"""Tests for the incremental re-solve layer (``repro.perf.solvecache``).

The layer's load-bearing invariant (DESIGN.md, "Incremental re-solve") is
**digest-exact skips only**: a memo hit returns bitwise the answer the cold
solve produced, so hit/miss patterns can never change a number.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.caching_lp import solve_caching
from repro.network.topology import single_cell_network
from repro.perf.executor import resolve_executor
from repro.perf.solvecache import SolveCache, p1_digest


def _network(rng, *, num_classes=4, num_items=6, cache_size=2):
    return single_cell_network(
        num_items=num_items,
        cache_size=cache_size,
        bandwidth=6.0,
        replacement_cost=5.0,
        omega_bs=rng.uniform(0.1, 1.0, num_classes),
    )


class TestP1Digest:
    def test_equal_inputs_equal_digest(self):
        c = np.arange(12, dtype=np.float64).reshape(3, 4)
        x0 = np.array([1.0, 0.0, 0.0, 1.0])
        assert p1_digest(c, 5.0, 2, x0) == p1_digest(c.copy(), 5.0, 2, x0.copy())

    def test_any_byte_change_changes_digest(self):
        c = np.arange(12, dtype=np.float64).reshape(3, 4)
        x0 = np.zeros(4)
        base = p1_digest(c, 5.0, 2, x0)
        c2 = c.copy()
        c2[1, 2] = np.nextafter(c2[1, 2], np.inf)
        assert p1_digest(c2, 5.0, 2, x0) != base
        assert p1_digest(c, np.nextafter(5.0, 6.0), 2, x0) != base
        assert p1_digest(c, 5.0, 3, x0) != base
        x1 = x0.copy()
        x1[0] = 1.0
        assert p1_digest(c, 5.0, 2, x1) != base

    def test_shape_is_part_of_the_key(self):
        flat = np.arange(12, dtype=np.float64)
        x0 = np.zeros(4)
        assert p1_digest(flat.reshape(3, 4), 5.0, 2, x0) != p1_digest(
            flat.reshape(4, 3), 5.0, 2, x0
        )


class TestSolveCacheMemo:
    def test_lookup_counts_and_round_trips_exactly(self):
        cache = SolveCache()
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cache.lookup(b"k") is None
        cache.store(b"k", x, -3.25)
        hit = cache.lookup(b"k")
        assert hit is not None
        got_x, got_obj = hit
        assert got_x.dtype == np.float64
        assert np.array_equal(got_x, x)
        assert got_obj == -3.25
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction_respects_limit(self):
        cache = SolveCache(memo_limit=2)
        x = np.zeros((1, 1))
        cache.store(b"a", x, 0.0)
        cache.store(b"b", x, 1.0)
        assert cache.lookup(b"a") is not None  # refresh 'a'
        cache.store(b"c", x, 2.0)  # evicts 'b'
        assert cache.lookup(b"b") is None
        assert cache.lookup(b"a") is not None
        assert cache.lookup(b"c") is not None

    def test_stats_keys(self):
        stats = SolveCache().stats()
        assert set(stats) == {"p1_memo_hits", "p1_memo_misses", "p1_memo_hit_rate"}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_memo_hits_return_exact_cold_solutions(seed: int):
    """Cached solve of a repeating mu sequence == uncached, bit for bit."""
    rng = np.random.default_rng(seed)
    net = _network(rng)
    T, M, K = 4, net.num_classes, net.num_items
    x_initial = np.zeros((net.num_sbs, K))
    x_initial[0, rng.integers(0, K)] = 1.0

    distinct = [rng.uniform(0.0, 8.0, size=(T, M, K)) for _ in range(3)]
    # A sequence with byte-identical repeats, as the stall re-anchor and
    # best-dual recovery produce.
    order = [0, 1, 0, 2, 1, 0]
    cache = SolveCache()
    for i, idx in enumerate(order):
        mu = distinct[idx]
        cached = solve_caching(net, mu, x_initial, cache=cache)
        cold = solve_caching(net, mu, x_initial, cache=None)
        assert np.array_equal(cached.x, cold.x)
        assert cached.objective == cold.objective
    # Every repeat is answered per-SBS from the memo.
    repeats = len(order) - len(set(order))
    assert cache.hits == repeats * net.num_sbs
    assert cache.misses == len(set(order)) * net.num_sbs


class TestCacheAcrossExecutors:
    def test_counters_and_results_identical_serial_vs_thread(self):
        rng = np.random.default_rng(3)
        net = _network(rng, num_classes=3, num_items=5, cache_size=2)
        T = 4
        x_initial = np.zeros((net.num_sbs, net.num_items))
        mus = [rng.uniform(0.0, 6.0, size=(T, 3, 5)) for _ in range(3)]
        mus.append(mus[0])  # one repeat

        def run(executor):
            # The cached sequence runs as one executor task, as a policy's
            # window sequence does under run_policies.
            cache = SolveCache()

            def sequence(seq):
                return [solve_caching(net, mu, x_initial, cache=cache) for mu in seq]

            [results] = resolve_executor(executor).map(sequence, [mus])
            return [(r.x.tobytes(), r.objective) for r in results], cache.stats()

        serial, threaded = run("serial"), run("thread:2")
        assert serial == threaded
        assert serial[1]["p1_memo_hits"] == 1
