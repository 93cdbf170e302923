"""Row blocks of the P2 water-fill: the split never changes a byte.

``waterfill_batch`` splits a large stack into one contiguous row block per
usable core (``optim/waterfill.py``, "Row blocks"). The forced cases patch
the split rule so that small stacks split; the natural cases leave it
alone and derive the expected block count from ``default_workers()``, so
that under one usable core (``taskset -c 0``) they check the inline path
and on more cores the pooled one.
"""

from __future__ import annotations

import multiprocessing
import sys

import numpy as np
import pytest

from repro.obs import Recorder, record_into
from repro.optim import waterfill as wf
from repro.perf.executor import ThreadExecutor, default_workers, resolve_executor

from test_batched import _bound_stack, _class_rows, _continuous_rows, _random_stack

_COUNTERS = (
    "p2_bw_bound_rows",
    "p2_bw_closed_form",
    "p2_bisection_fallbacks",
    "p2_bisection_fills",
    "p2_bisection_replayed",
    "p2_bisection_fixed_depth",
    "p2_row_blocks",
)


def _solve(stack, group_ids=None, **kw):
    """Solve ``stack``; returns ``(alloc bytes, u bytes, counters)``."""
    rec = Recorder()
    with record_into(rec):
        alloc, u = wf.waterfill_batch(*stack, 1.0, group_ids=group_ids, **kw)
    return alloc.tobytes(), u.tobytes(), {k: rec.metrics.counter(k) for k in _COUNTERS}


def _solve_in_worker(args):
    """Module-level (picklable) task: solve inside an executor worker."""
    stack, group_ids = args
    return _solve(stack, group_ids)


def _expected_blocks(rows: int, width: int) -> int:
    """The split rule: one block per usable core, each at least
    ``MIN_BLOCK_ELEMS`` elements; fewer than two blocks run inline."""
    n = min(default_workers(), rows * width // wf.MIN_BLOCK_ELEMS, rows)
    return n if n >= 2 else 0


def _large_stack(seed=0, rows=160):
    """All-active rows, every column routable: ``rows x 900`` elements."""
    return _continuous_rows(np.random.default_rng(seed), rows, 300, G=3)


def _families(rng):
    """Stacks covering every path a block can take."""
    stacks = []
    # Mostly slack rows, with zero-cap entries.
    stacks.append((_random_stack(rng, 37, 9), None))
    # Bound rows, G <= 2 (closed form) and G >= 3 (threshold search).
    stacks.append((_bound_stack(rng, 29, 12, G=2), None))
    stacks.append((_bound_stack(rng, 31, 15, G=4), None))
    # Class rows: zero bandwidth, exact tightness, near-tied and ulp-apart
    # weights (the fixed-depth fallback).
    for bw_mode, weights in (
        ("zero", "grid"),
        ("exact", "grid"),
        ("random", "near"),
        ("fits", "ulp"),
    ):
        stacks.append((_class_rows(rng, 23, 4, 6, bw_mode, weights), None))
    # Slope-free groups on the single-pass path next to sloped groups, and
    # columns with zero cap in every row.
    lam, caps, omega, mu, W, bw = _continuous_rows(rng, 24, 5, G=4)
    groups = np.repeat(np.arange(6), 4)
    mu[groups % 2 == 0] = 0.0
    caps[:, ::7] = 0.0
    bw[::5] = 0.0
    stacks.append(((lam, caps, omega, mu, W, bw), groups))
    return stacks


class TestForcedBlocks:
    """Small stacks forced to split: same bytes as one inline call."""

    @pytest.mark.parametrize("workers", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocked_equals_inline(self, monkeypatch, seed, workers):
        rng = np.random.default_rng(seed)
        for stack, groups in _families(rng):
            inline = _solve(stack, groups)
            assert inline[2]["p2_row_blocks"] == 0
            with monkeypatch.context() as m:
                m.setattr(wf, "MIN_BLOCK_ELEMS", 1)
                m.setattr(wf, "default_workers", lambda: workers)
                # Chunks smaller than a block, so chunk edges fall inside
                # blocks, and blocks of uneven size (R is not a multiple).
                m.setattr(wf, "_CHUNK_ELEMS", 64)
                blocked = _solve(stack, groups)
            assert blocked[:2] == inline[:2]
            counts = dict(blocked[2], p2_row_blocks=0)
            assert counts == inline[2]
            assert blocked[2]["p2_row_blocks"] >= 2

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch):
        """Eight blocks on eight threads, switching every microsecond: a
        block writing outside its rows, or a lost counter, shows."""
        stack = _bound_stack(np.random.default_rng(4), 61, 20, G=3)
        inline = _solve(stack)
        pool = ThreadExecutor(8)
        interval = sys.getswitchinterval()
        monkeypatch.setattr(wf, "MIN_BLOCK_ELEMS", 1)
        monkeypatch.setattr(wf, "default_workers", lambda: 8)
        monkeypatch.setattr(wf, "get_executor", lambda spec: pool)
        try:
            sys.setswitchinterval(1e-6)
            runs = [_solve(stack) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        for blocked in runs:
            assert blocked[:2] == inline[:2]
            assert blocked[2] == dict(inline[2], p2_row_blocks=8)

    def test_block_count_is_capped_by_rows(self, monkeypatch):
        stack = _bound_stack(np.random.default_rng(3), 2, 40, G=3)
        monkeypatch.setattr(wf, "MIN_BLOCK_ELEMS", 1)
        monkeypatch.setattr(wf, "default_workers", lambda: 8)
        rows = stack[0].shape[0]
        assert _solve(stack)[2]["p2_row_blocks"] == (rows if rows >= 2 else 0)

    def test_one_worker_runs_inline(self, monkeypatch):
        stack = _large_stack()
        monkeypatch.setattr(wf, "default_workers", lambda: 1)
        assert _solve(stack)[2]["p2_row_blocks"] == 0


class TestNaturalBlocks:
    """The real split rule on stacks large enough to split."""

    def test_large_stack_block_count_and_bytes(self, monkeypatch):
        stack = _large_stack()
        rows, width = stack[0].shape
        pooled = _solve(stack)
        assert pooled[2]["p2_row_blocks"] == _expected_blocks(rows, width)
        monkeypatch.setattr(wf, "MIN_BLOCK_ELEMS", 10**12)
        inline = _solve(stack)
        assert inline[2]["p2_row_blocks"] == 0
        assert pooled[:2] == inline[:2]

    def test_single_pass_stack_block_count_and_bytes(self, monkeypatch):
        lam, caps, omega, mu, W, bw = _large_stack(seed=1)
        stack = (lam, caps, omega, np.zeros_like(mu), W, bw)
        rows, width = lam.shape
        pooled = _solve(stack)
        assert pooled[2]["p2_bw_bound_rows"] == 0
        assert pooled[2]["p2_row_blocks"] == _expected_blocks(rows, width)
        monkeypatch.setattr(wf, "MIN_BLOCK_ELEMS", 10**12)
        assert _solve(stack)[:2] == pooled[:2]

    def test_small_stack_stays_inline(self):
        stack = _large_stack(rows=40)  # 36,000 elements
        assert _solve(stack)[2]["p2_row_blocks"] == 0


class TestNested:
    """Inside an executor worker the kernel runs inline, same bytes."""

    @pytest.mark.parametrize("spec", ["thread:2", "process:2"])
    def test_worker_runs_inline(self, spec):
        stack = _large_stack(seed=2)
        outside = _solve(stack)
        (inside,) = resolve_executor(spec).map(_solve_in_worker, [(stack, None)])
        assert inside[2]["p2_row_blocks"] == 0
        assert inside[:2] == outside[:2]
        assert dict(inside[2], p2_row_blocks=0) == dict(outside[2], p2_row_blocks=0)


def _child_solve(stack, queue):
    queue.put(_solve(stack))


@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_forked_child_gets_a_fresh_pool():
    """A child forked after the parent used the pool inherits no dead
    pool threads: its own large stack finishes, with the same bytes."""
    stack = _large_stack(seed=3)
    parent = _solve(stack)  # starts the shared pool where the split applies
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_child_solve, args=(stack, queue))
    child.start()
    try:
        result = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert result[:2] == parent[:2]
    assert result[2]["p2_row_blocks"] == parent[2]["p2_row_blocks"]


class TestZeroBandwidthRows:
    """Bound rows with zero bandwidth are answered without a search."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_fixed_depth_reference(self, seed):
        rng = np.random.default_rng(seed)
        for G, K in ((1, 9), (2, 5), (3, 4), (5, 3)):
            stack = _class_rows(rng, 17, G, K, "zero")
            fast = _solve(stack)
            ref = _solve(stack, closed_form=False, early_exit=False)
            assert fast[:2] == ref[:2]
            c = fast[2]
            assert c["p2_bw_bound_rows"] > 0
            assert c["p2_bw_closed_form"] == c["p2_bw_bound_rows"]
            assert c["p2_bisection_fallbacks"] == c["p2_bisection_fills"] == 0
            assert not np.frombuffer(fast[0]).any()

    def test_mixed_stack_accounting(self):
        lam, caps, omega, mu, W, bw = _bound_stack(np.random.default_rng(7), 40, 12, G=4)
        bw[::3] = 0.0
        # Tiny positive bandwidths must still be searched.
        bw[1::3] = np.minimum(bw[1::3], 1e-6)
        stack = (lam, caps, omega, mu, W, bw)
        fast = _solve(stack)
        ref = _solve(stack, closed_form=False, early_exit=False)
        assert fast[:2] == ref[:2]
        c = fast[2]
        assert c["p2_bw_closed_form"] >= np.count_nonzero(bw == 0)
        assert c["p2_bw_closed_form"] + c["p2_bisection_fallbacks"] == c["p2_bw_bound_rows"]
        # The reference bisects every bound row, zero bandwidth included.
        assert ref[2]["p2_bw_closed_form"] == 0


class TestSignedZeroBandwidth:
    """A bound row with bandwidth -0.0 answers like one with +0.0."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equal_to_fixed_depth_reference_sign_included(self, seed):
        rng = np.random.default_rng(seed)
        for G, K in ((1, 9), (2, 5), (3, 4)):
            lam, caps, omega, mu, W, _ = _class_rows(rng, 17, G, K, "zero")
            bw = rng.choice([0.0, -0.0], 17)
            assert np.signbit(bw).any()
            stack = (lam, caps, omega, mu, W, bw)
            fast = _solve(stack)
            ref = _solve(stack, closed_form=False, early_exit=False)
            assert fast[:2] == ref[:2]
            assert not np.signbit(np.frombuffer(fast[1])).any()
            c = fast[2]
            assert c["p2_bw_bound_rows"] > 0
            assert c["p2_bw_closed_form"] == c["p2_bw_bound_rows"]
            assert (
                c["p2_bw_closed_form"] + c["p2_bisection_fallbacks"]
                == c["p2_bw_bound_rows"]
            )


class TestIdleRows:
    """Rows with no cap-positive item keep the zeros the row loops give."""

    @staticmethod
    def _routed_twin(stack, idle):
        """The stack plus one column that gives every idle row a capped,
        weightless, slope-free item: nothing is routed to it, but the row
        now runs its row loop."""
        lam, caps, omega, mu, W, bw = stack
        col = idle.astype(float)[:, None]
        return (
            np.hstack([lam, col]),
            np.hstack([caps, col]),
            np.hstack([omega, np.zeros_like(col)]),
            np.hstack([mu, np.zeros_like(col)]),
            W,
            bw,
        )

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "kw",
        [{}, {"early_exit": False}, {"closed_form": False, "early_exit": False}],
    )
    def test_equal_to_the_row_loops(self, seed, kw):
        rng = np.random.default_rng(seed)
        for stack, groups in _families(rng):
            lam, caps, omega, mu, W, bw = (a.copy() for a in stack)
            idle = rng.random(caps.shape[0]) < 0.4
            caps[idle] = 0.0
            lam[idle & (rng.random(idle.size) < 0.5)] = 0.0
            # Idle rows outside the shortcut's domain keep their loop.
            W, bw = W.copy(), bw.astype(float)
            W[idle & (rng.random(idle.size) < 0.2)] = np.nan
            bw[idle & (rng.random(idle.size) < 0.2)] = -0.0
            stack = (lam, caps, omega, mu, W, bw)
            fast = _solve(stack, groups, **kw)
            loops = _solve(self._routed_twin(stack, idle), groups, **kw)
            alloc = np.frombuffer(fast[0]).reshape(caps.shape)
            twin = np.frombuffer(loops[0]).reshape(caps.shape[0], -1)
            assert alloc.tobytes() == np.ascontiguousarray(twin[:, :-1]).tobytes()
            assert not twin[:, -1].any()
            assert fast[1] == loops[1]
            u = np.frombuffer(fast[1])
            assert fast[2] == loops[2]
            plain = idle & ~np.isnan(W) & ~np.signbit(bw)
            assert not (alloc[plain].any() or u[plain].any())
            assert not (np.signbit(alloc[plain]).any() or np.signbit(u[plain]).any())


class TestGroupFlags:
    """A group bisects when any of its rows holds a sloped, capped item."""

    def test_stacked_groups_equal_separate_calls(self):
        rng = np.random.default_rng(11)
        R = 40
        lam, caps, omega, mu, W, bw = _random_stack(rng, R, 8)
        groups = rng.integers(0, 10, R)
        slope_free = groups % 3 == 0
        mu[slope_free] = rng.choice([0.0, -0.0], mu[slope_free].shape)
        mu[groups == 1, 0] = np.inf
        mu[groups == 2, 1] = -np.inf
        caps[groups == 4] = 0.0
        row_any = ((mu > 0) & (caps > 0)).any(axis=1)
        flags = np.zeros(10, dtype=bool)
        np.logical_or.at(flags, groups, row_any)
        assert flags.any() and not flags[np.unique(groups)].all()
        stack = (lam, caps, omega, mu, W, bw)
        with np.errstate(invalid="ignore"):
            alloc, u = wf.waterfill_batch(*stack, 1.0, group_ids=groups)
            for g in np.unique(groups):
                rows = groups == g
                a_g, u_g = wf.waterfill_batch(*(x[rows] for x in stack), 1.0)
                assert a_g.tobytes() == np.ascontiguousarray(alloc[rows]).tobytes()
                assert u_g.tobytes() == u[rows].tobytes()
