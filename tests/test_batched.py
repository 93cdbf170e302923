"""Equivalence properties of the batched solve core.

The batched kernels (DESIGN.md, "Batched solve core") promise that
``RuntimeConfig(batched=...)`` selects *granularity, not semantics*: the
stacked ``P1`` certificate pass and the all-SBS ``P2`` water-fill must
reproduce the per-SBS / per-slot loop paths bit-for-bit wherever the paths
are both exact, and within ``1e-9`` (with equal objectives) where the
reference itself is approximate. These tests pin that contract with
randomized multi-SBS instances — uneven class counts included, so the
zero-cap padding rows of the SBS-major stacking are exercised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RuntimeConfig
from repro.core.caching_lp import (
    _objective_single,
    _solve_batched_p1,
    _solve_single_sbs_flow,
    class_prices,
    solve_caching,
)
from repro.core.capped import capped_cancel_stack
from repro.core.load_balancing import (
    _project_blocks_capped,
    _solve_p2_fast,
    _solve_p2_fista,
    _waterfill_reference,
    solve_y_given_x,
)
from repro.core.polish import polish_caching
from repro.core.rounding import optimal_rounding_threshold, round_caching
from repro.core.problem import JointProblem
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.obs import Recorder, record_into
from repro.optim.waterfill import waterfill_batch
from repro.perf.solvecache import SolveCache

BATCHED = RuntimeConfig(batched=True)
LOOPED = RuntimeConfig(batched=False)


def _multi_network(rng, *, N, K, C, beta=2.0, bandwidth=3.0, omega_hat=0.0):
    """N-SBS network with 1-3 classes per SBS (uneven on purpose)."""
    counts = rng.integers(1, 4, size=N)
    classes, cid = [], 0
    for n in range(N):
        for _ in range(counts[n]):
            classes.append(
                MUClass(cid, n, float(rng.uniform(0.1, 1.0)), omega_hat)
            )
            cid += 1
    return Network(
        ContentCatalog(K),
        tuple(SmallBaseStation(n, C, bandwidth, beta) for n in range(N)),
        tuple(classes),
    )


def _multi_problem(rng, *, N, K, T, C, sparsity=0.3, omega_hat=0.0):
    net = _multi_network(rng, N=N, K=K, C=C, omega_hat=omega_hat)
    demand = rng.uniform(0.0, 3.0, size=(T, net.num_classes, K))
    demand *= rng.random(demand.shape) > sparsity
    return JointProblem(network=net, demand=demand)


def _sparse_mu(rng, shape, scale=4.0, sparsity=0.4):
    mu = rng.uniform(0.0, scale, size=shape)
    mu *= rng.random(shape) > sparsity
    return mu


dims = st.tuples(
    st.integers(0, 2**32 - 1),  # numpy seed
    st.integers(2, 4),  # N
    st.integers(3, 8),  # K
    st.integers(1, 4),  # T
    st.integers(1, 3),  # C
)


class TestP2Batched:
    """The all-SBS stacked P2 equals the per-SBS loop, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_fast_path_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        mu = _sparse_mu(rng, prob.y_shape)
        loop = _solve_p2_fast(prob, mu, batched=False)
        batched = _solve_p2_fast(prob, mu, batched=True)
        assert np.array_equal(loop.y, batched.y)
        assert loop.objective == batched.objective

    @settings(max_examples=15, deadline=None)
    @given(dims)
    def test_fixed_cache_oracle_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        x = np.zeros(prob.x_shape)
        for t in range(T):
            for n in range(N):
                x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
        loop = solve_y_given_x(prob, x, config=LOOPED)
        batched = solve_y_given_x(prob, x, config=BATCHED)
        assert np.array_equal(loop.y, batched.y)
        assert loop.objective == batched.objective

    @settings(max_examples=8, deadline=None)
    @given(dims)
    def test_fista_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        # omega_hat > 0 leaves the closed-form fast path: FISTA engages,
        # where "batched" only changes the projection stacking.
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C, omega_hat=0.1)
        mu = _sparse_mu(rng, prob.y_shape, scale=1.0)
        loop = _solve_p2_fista(prob, mu, batched=False)
        batched = _solve_p2_fista(prob, mu, batched=True)
        assert np.array_equal(loop.y, batched.y)
        assert loop.objective == batched.objective


def _row_objective(alloc, lam, omega, mu, W, scale):
    """P2 row objective in allocation space (what the water-fill minimizes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(alloc > 0, mu / np.where(lam > 0, lam, 1.0), 0.0)
    residual = W - float((omega * alloc).sum())
    return scale * residual * residual + float((slope * alloc).sum())


def _random_stack(rng, R, J):
    lam = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.3)
    frac = rng.uniform(0.0, 1.0, size=(R, J))
    caps = lam * frac  # routing caps never exceed demand volume
    omega = rng.uniform(0.05, 1.0, size=(R, J))
    mu = rng.uniform(0.0, 2.0, size=(R, J)) * (rng.random((R, J)) > 0.4)
    W = (omega * caps).sum(axis=1) * rng.uniform(1.0, 1.5, size=R)
    bandwidths = rng.uniform(0.5, 4.0, size=R)
    return lam, caps, omega, mu, W, bandwidths


def _class_rows(rng, R, G, K, bw_mode):
    """P2-shaped rows: G MU classes of K items, omega constant per class
    block. Coarse dyadic grids for omega, lam, mu and caps make slopes tie
    within a class, keys tie across classes at the bisection's dyadic
    midpoints, and running cap sums hit the bandwidth exactly."""
    J = G * K
    omega = np.repeat(rng.choice([0.5, 1.0, 1.5, 2.0], (R, G)), K, axis=1)
    lam = rng.choice([0.0, 1.0, 2.0], (R, J), p=[0.2, 0.4, 0.4])
    mu = rng.choice([0.0, 0.25, 0.5, 1.0, 2.0], (R, J))
    caps = lam * rng.choice([0.0, 0.5, 1.0], (R, J), p=[0.2, 0.3, 0.5])
    # One sloped, routable item per row so every row enters the bisection.
    lam[:, 0], mu[:, 0], caps[:, 0] = 1.0, 0.5, 1.0
    W = (lam * omega).sum(axis=1)
    total = caps.sum(axis=1)
    if bw_mode == "zero":
        bw = np.zeros(R)
    elif bw_mode == "fits":
        # Most midpoints' eligible caps fit: non-tight prefixes.
        bw = np.floor(1.5 * total) / 2
    elif bw_mode == "exact":
        # bw equals the caps of the k lowest-threshold items, so it runs
        # out exactly at the last eligible item where those are eligible.
        with np.errstate(divide="ignore", invalid="ignore"):
            thr = np.where(caps > 0, mu / (lam * omega), np.inf)
        cum = np.cumsum(
            np.take_along_axis(caps, np.argsort(thr, axis=1, kind="stable"), 1),
            axis=1,
        )
        bw = cum[np.arange(R), rng.integers(0, J, R)]
    else:
        bw = np.floor(rng.uniform(0.0, 2.0, R) * total) / 2
    return lam, caps, omega, mu, W, bw


class TestWaterfillKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_early_exit_bitwise(self, seed, R, J):
        """The bisection early-exit is a no-op on the returned numbers."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _random_stack(rng, R, J)
        full = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, early_exit=False)
        fast = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, early_exit=True)
        assert np.array_equal(full[0], fast[0])
        assert np.array_equal(full[1], fast[1])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(1, 30),
        st.sampled_from(["zero", "fits", "exact", "random"]),
    )
    def test_prefix_state_reuse_bitwise_on_class_rows(self, seed, R, G, K, bw_mode):
        """Allocated-prefix state reuse and cross-side settling return the
        fixed-depth bisection's bits (sign of zero included) on
        class-structured rows full of slope, key and bandwidth ties."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _class_rows(rng, R, G, K, bw_mode)
        args = (lam, caps, omega, mu, W, bw, 1.0)
        full = waterfill_batch(*args, early_exit=False, closed_form=False)
        fast = waterfill_batch(*args, early_exit=True, closed_form=False)
        assert full[0].tobytes() == fast[0].tobytes()
        assert full[1].tobytes() == fast[1].tobytes()

    def test_fills_per_bound_row_pinned(self):
        """Fresh greedy fills per bisected row on a fixed G = 3 stack. The
        fixed-depth bisection runs 26 midpoint fills plus 2 endpoint fills
        per row; allocated-prefix reuse needs a fraction of that."""
        rng = np.random.default_rng(0)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, 200, 30, G=3)

        def fills(early_exit):
            rec = Recorder()
            with record_into(rec):
                waterfill_batch(
                    lam, caps, omega, mu, W, bw, 1.0, early_exit=early_exit
                )
            return (
                rec.metrics.counter("p2_bisection_fills"),
                rec.metrics.counter("p2_bisection_fallbacks"),
            )

        fixed, rows = fills(False)
        assert rows > 0 and fixed == 28 * rows
        reused, rows_again = fills(True)
        assert rows_again == rows
        # 242 fills for 200 rows; whole-order state reuse needed 412.
        assert reused == 242

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_matches_bisection_reference(self, seed, R, J):
        """Closed form is within 1e-9 of the historical bisection solver,
        and never worse (it is exact where the reference is approximate)."""
        rng = np.random.default_rng(seed)
        lam, caps, _, mu, W, bw = _random_stack(rng, R, J)
        # The reference solver takes one omega row shared by all rows
        # (its rows are the slots of a single SBS).
        omega_row = rng.uniform(0.05, 1.0, size=J)
        omega = np.tile(omega_row, (R, 1))
        scale = float(rng.uniform(0.2, 2.0))
        bw_scalar = float(bw[0])
        alloc, _ = waterfill_batch(
            lam, caps, omega, mu, W, np.full(R, bw_scalar), scale
        )
        ref_alloc, _ = _waterfill_reference(
            lam, caps, omega_row, mu, W, bw_scalar, scale
        )
        for r in range(R):
            got = _row_objective(alloc[r], lam[r], omega[r], mu[r], W[r], scale)
            ref = _row_objective(
                ref_alloc[r], lam[r], omega[r], mu[r], W[r], scale
            )
            tol = 1e-9 * max(1.0, abs(ref))
            assert got <= ref + tol

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 8))
    def test_zero_cap_columns_inert(self, seed, R, J):
        """Padding columns (zero caps everywhere) cannot change any bit —
        the compression recursion depends on it."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _random_stack(rng, R, J)
        dead = rng.choice(J, size=max(1, J // 2), replace=False)
        caps[:, dead] = 0.0
        alloc, u = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        keep = np.setdiff1d(np.arange(J), dead)
        alloc_c, u_c = waterfill_batch(
            np.ascontiguousarray(lam[:, keep]),
            np.ascontiguousarray(caps[:, keep]),
            np.ascontiguousarray(omega[:, keep]),
            np.ascontiguousarray(mu[:, keep]),
            W, bw, 1.0,
        )
        assert np.array_equal(alloc[:, keep], alloc_c)
        assert np.array_equal(alloc[:, dead], np.zeros((R, dead.size)))
        assert np.array_equal(u, u_c)


class TestProjectionEarlyExit:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_bitwise(self, seed, R, J):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.5, 4.0, size=R)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        full = _project_blocks_capped(v, a, budgets, caps, early_exit=False)
        fast = _project_blocks_capped(v, a, budgets, caps, early_exit=True)
        assert np.array_equal(full, fast)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_exact_theta_beats_bisection(self, seed, R, J):
        """The event-sweep theta is feasible and never a worse projection
        (in Euclidean distance) than the bisection reference, beyond the
        1e-9 envelope."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.2, 2.0, size=R)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        exact = _project_blocks_capped(v, a, budgets, caps)
        ref = _project_blocks_capped(v, a, budgets, caps, closed_form=False)
        assert (exact >= -1e-12).all()
        assert (exact <= caps + 1e-9).all()
        usage = np.einsum("rj,rj->r", a, exact)
        assert (usage <= budgets * (1 + 1e-9) + 1e-9).all()
        d_exact = ((exact - v) ** 2).sum(axis=1)
        d_ref = ((ref - v) ** 2).sum(axis=1)
        assert (d_exact <= d_ref + 1e-9 * np.maximum(1.0, d_ref)).all()


class TestP1Batched:
    """The stacked certificate pass answers exactly like the flow backend."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_accepted_solves_match_flow_exactly(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.7)
        prices = class_prices(net, mu)
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        accepted = _solve_batched_p1(net, prices, x0, list(range(N)))
        for n, (x_b, obj_b) in accepted.items():
            x_f, obj_f = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            assert np.array_equal(x_b, x_f), f"SBS {n} trajectory differs"
            assert obj_b == obj_f

    @settings(max_examples=15, deadline=None)
    @given(dims, st.booleans())
    def test_solve_caching_batched_vs_loop(self, d, with_cache):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        loop = solve_caching(
            net, mu, x0, backend="flow", config=LOOPED,
            cache=SolveCache() if with_cache else None,
        )
        batched = solve_caching(
            net, mu, x0, backend="flow", config=BATCHED,
            cache=SolveCache() if with_cache else None,
        )
        assert np.array_equal(loop.x, batched.x)
        assert loop.objective == batched.objective

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_executors_bitwise(self, rng, executor):
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6), sparsity=0.5)
        x0 = np.zeros((3, 6))
        base = solve_caching(net, mu, x0, backend="flow", config=BATCHED)
        other = solve_caching(
            net, mu, x0, backend="flow", executor=executor, config=BATCHED
        )
        assert np.array_equal(base.x, other.x)
        assert base.objective == other.objective

    def test_memo_hit_short_circuits_batch(self, rng):
        """A warm cache answers repeats before the batched pass sees them."""
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6))
        x0 = np.zeros((3, 6))
        cache = SolveCache()
        first = solve_caching(net, mu, x0, backend="flow", config=BATCHED, cache=cache)
        misses = cache.misses
        second = solve_caching(net, mu, x0, backend="flow", config=BATCHED, cache=cache)
        assert cache.misses == misses  # all hits the second time
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective


class TestQuantizedMemo:
    def test_band_hit_reevaluates_objective(self, rng):
        """A cross-band hit reuses the trajectory but prices the actual
        objective — drift at float-noise level stays within 1e-9."""
        net = _multi_network(rng, N=2, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6))
        x0 = np.zeros((2, 6))
        cfg = RuntimeConfig(batched=True, quantized_memo=True)
        cache = SolveCache()
        first = solve_caching(net, mu, x0, backend="flow", config=cfg, cache=cache)
        drift = mu * (1.0 + rng.random(mu.shape) * 1e-14)
        second = solve_caching(net, drift, x0, backend="flow", config=cfg, cache=cache)
        assert cache.quant_hits >= 1
        assert np.array_equal(first.x, second.x)
        # The reported objective is exactly the reused trajectory priced
        # against the *drifted* mu, not the stale stored value...
        prices = class_prices(net, drift)
        expected = sum(
            _objective_single(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                second.x[:, n, :], x0[n],
            )
            for n in range(2)
        )
        assert second.objective == pytest.approx(expected, abs=1e-12)
        # ...and the trajectory is within the 1e-9 envelope of a cold solve.
        cold = solve_caching(net, drift, x0, backend="flow", config=BATCHED)
        assert second.objective <= cold.objective + 1e-9 * max(
            1.0, abs(cold.objective)
        )

    def test_exact_repeat_is_not_counted_banded(self, rng):
        net = _multi_network(rng, N=2, K=5, C=1)
        mu = _sparse_mu(rng, (2, net.num_classes, 5))
        x0 = np.zeros((2, 5))
        cfg = RuntimeConfig(batched=True, quantized_memo=True)
        cache = SolveCache()
        solve_caching(net, mu, x0, backend="flow", config=cfg, cache=cache)
        solve_caching(net, mu, x0, backend="flow", config=cfg, cache=cache)
        assert cache.quant_hits == 0  # same bytes, not cross-band reuse
        assert cache.hits == 2


class TestRoundingRepair:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 9))
    def test_stacked_repair_matches_loop(self, seed, N, K):
        """The vectorized capacity repair equals the per-(t, n) loop."""
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 4))
        # Cluster values near the threshold so over-capacity rows (and
        # ties) actually occur.
        x_frac = rng.choice(
            [0.0, 0.3, 0.39, 0.4, 0.8, 1.0], size=(T, N, K)
        ) * np.ones((T, N, K))
        caps = rng.integers(1, max(2, K // 2), size=N)
        got = round_caching(x_frac, caps)
        expected = np.where(x_frac >= optimal_rounding_threshold(), 1.0, 0.0)
        for n in range(N):
            cap = int(caps[n])
            for t in range(T):
                sel = np.flatnonzero(expected[t, n] > 0.5)
                if sel.size > cap:
                    keep = sel[
                        np.argsort(-x_frac[t, n, sel], kind="stable")
                    ][:cap]
                    expected[t, n] = 0.0
                    expected[t, n, keep] = 1.0
        assert np.array_equal(got, expected)
        assert np.all((got > 0.5).sum(axis=2) <= caps[None, :])


class TestPolishBatched:
    @settings(max_examples=10, deadline=None)
    @given(dims)
    def test_batched_vs_loop_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        x = np.zeros(prob.x_shape)
        for t in range(T):
            for n in range(N):
                x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
        x_l, y_l, cost_l = polish_caching(prob, x, config=LOOPED)
        x_b, y_b, cost_b = polish_caching(prob, x, config=BATCHED)
        assert np.array_equal(x_l, x_b)
        assert np.array_equal(y_l, y_b)
        assert cost_l.total == cost_b.total


def _bound_stack(rng, R, J, G=2, bw_frac=0.4):
    """A row stack whose every surviving row is bandwidth-bound.

    Two-phase: solve once with effectively infinite bandwidth to learn each
    row's unconstrained fill, then starve every row to ``bw_frac`` of it —
    the adversarial regime where the closed-form parametric solve carries
    the whole batch. ``G`` distinct positive omegas per row (``G <= 2`` is
    the certified closed-form family; ``G >= 3`` must fall back, counted).
    """
    lam = rng.exponential(1.0, (R, J)) + 1e-3
    omvals = np.sort(rng.uniform(0.2, 2.0, (R, G)), axis=1)
    gi = rng.integers(0, G, (R, J))
    omega = np.take_along_axis(omvals, gi, axis=1)
    mu = rng.exponential(0.5, (R, J))
    mu[rng.random((R, J)) < 0.3] = 0.0
    caps = lam * rng.uniform(0.1, 1.0, (R, J))
    caps[rng.random((R, J)) < 0.15] = 0.0
    # Rows whose every positive-cap item has zero slope take the
    # single-pass greedy shortcut and are (by design) not counted as
    # bound rows — force one sloped, capped item per row so every
    # surviving row really enters the bound stage.
    anchor = np.arange(R)
    mu[anchor, 0] = np.maximum(mu[anchor, 0], 0.1)
    caps[anchor, 0] = np.maximum(caps[anchor, 0], 0.5 * lam[anchor, 0])
    W = (lam * omega).sum(axis=1) * rng.uniform(0.3, 1.2, R)
    unconstrained, _ = waterfill_batch(
        lam, caps, omega, mu, W, np.full(R, 1e18), 1.0
    )
    totals = unconstrained.sum(axis=1)
    keep = totals > 0
    bw = totals[keep] * bw_frac
    return lam[keep], caps[keep], omega[keep], mu[keep], W[keep], bw


_P2_COUNTERS = ("p2_bw_bound_rows", "p2_bw_closed_form", "p2_bisection_fallbacks")


def _counters(run):
    rec = Recorder()
    with record_into(rec):
        out = run()
    return out, {name: rec.metrics.counter(name) for name in _P2_COUNTERS}


class TestBwBoundClosedForm:
    """Exactness and accounting of the closed-form bandwidth-bound solve."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 25),
        st.integers(2, 18),
        st.sampled_from([1, 2]),
        st.floats(0.05, 0.95),
    )
    def test_feasible_tight_and_never_worse(self, seed, R, J, G, bw_frac):
        """On an all-bound stack the closed form stays feasible, exhausts
        the budget (complementary slackness: the bound multiplier is
        positive, so the constraint is tight), and is never worse than a
        deep bisection beyond the 1e-9 relative envelope."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, G, bw_frac)
        if lam.shape[0] == 0:
            return
        (out, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        alloc, u = out
        rows = lam.shape[0]
        assert counters["p2_bw_bound_rows"] == rows
        # Accounting identity: certified closed-form solves plus counted
        # bisection fallbacks cover every bound row (degenerate rows may
        # legitimately fail the certificate and fall back).
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        assert (alloc >= 0.0).all()
        assert (alloc <= caps * (1 + 1e-12) + 1e-12).all()
        sums = alloc.sum(axis=1)
        assert (sums <= bw * (1 + 1e-9) + 1e-12).all()
        # Complementary slackness: the unconstrained fill strictly exceeds
        # bw, so the budget multiplier is positive and the optimum sits on
        # the hyperplane. Closed-form rows are exact; when a fallback row
        # is present its bisection is tight only to its bracket width.
        if counters["p2_bisection_fallbacks"] == 0:
            assert (sums >= bw * (1 - 1e-9) - 1e-12).all()
        else:
            assert (sums >= bw * (1 - 1e-6) - 1e-9).all()
        for r in range(rows):
            sl = slice(r, r + 1)
            deep, _ = _waterfill_reference(
                lam[sl], caps[sl], omega[r], mu[sl], W[sl], bw[r], 1.0, iters=60
            )
            got = _row_objective(alloc[r], lam[r], omega[r], mu[r], W[r], 1.0)
            ref = _row_objective(deep[0], lam[r], omega[r], mu[r], W[r], 1.0)
            assert got <= ref + 1e-9 * max(1.0, abs(ref))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(3, 14))
    def test_three_group_rows_fall_back_counted(self, seed, R, J):
        """G = 3 is outside the certified family: every bound row must take
        the (column-compressed) bisection fallback, bit-identical to the
        closed_form=False path, and be counted."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, G=3)
        if lam.shape[0] == 0:
            return
        # Rows where fewer than 3 omega groups survive the cap mask may
        # still be solved closed-form; only the accounting total is fixed.
        (out, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        rows = lam.shape[0]
        assert counters["p2_bw_bound_rows"] == rows
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        # Rows with more than two surviving omega groups must all have
        # fallen back (the certified families only cover G <= 2).
        g_counts = [
            np.unique(omega[r][(caps[r] > 0) & (omega[r] > 0)]).size
            for r in range(rows)
        ]
        assert counters["p2_bisection_fallbacks"] >= sum(g > 2 for g in g_counts)
        # Fallback rows reuse the bisection verbatim, so when everything
        # fell back the outputs must match the closed_form=False bits.
        ref = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, closed_form=False)
        if counters["p2_bw_closed_form"] == 0:
            assert np.array_equal(out[0], ref[0])
            assert np.array_equal(out[1], ref[1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(2, 10))
    def test_padding_invariance_on_bound_stack(self, seed, R, J):
        """Order-preserving zero-cap padding cannot change any bit of the
        closed-form bound solve (the layout property the batched/loop
        equivalence rests on)."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J)
        if lam.shape[0] == 0:
            return
        rows = lam.shape[0]
        alloc, u = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        # Interleave dead columns at random positions, preserving order.
        width = J + int(rng.integers(1, J + 1))
        keep = np.sort(rng.choice(width, size=J, replace=False))
        lam_p = np.zeros((rows, width))
        caps_p = np.zeros((rows, width))
        om_p = np.zeros((rows, width))
        mu_p = np.zeros((rows, width))
        lam_p[:, keep], caps_p[:, keep] = lam, caps
        om_p[:, keep], mu_p[:, keep] = omega, mu
        alloc_p, u_p = waterfill_batch(lam_p, caps_p, om_p, mu_p, W, bw, 1.0)
        assert np.array_equal(alloc_p[:, keep], alloc)
        assert np.array_equal(u_p, u)
        assert not alloc_p[:, np.setdiff1d(np.arange(width), keep)].any()

    @settings(max_examples=12, deadline=None)
    @given(dims)
    def test_starved_batched_vs_loop_bitwise(self, d):
        """Batched vs loop bit-identity under bandwidth starvation — the
        regime where the closed form (not the slack scan) produces the
        returned rows."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        starved = JointProblem(
            network=Network(
                prob.network.catalog,
                tuple(
                    SmallBaseStation(
                        s.sbs_id, s.cache_size, 0.4, s.replacement_cost
                    )
                    for s in prob.network.sbss
                ),
                prob.network.mu_classes,
            ),
            demand=prob.demand,
        )
        mu = _sparse_mu(rng, starved.y_shape)
        (loop, loop_c) = _counters(
            lambda: _solve_p2_fast(starved, mu, batched=False)
        )
        (batched, batched_c) = _counters(
            lambda: _solve_p2_fast(starved, mu, batched=True)
        )
        assert np.array_equal(loop.y, batched.y)
        assert loop.objective == batched.objective
        assert loop_c == batched_c
        assert (
            loop_c["p2_bw_closed_form"] + loop_c["p2_bisection_fallbacks"]
            == loop_c["p2_bw_bound_rows"]
        )

    @settings(max_examples=8, deadline=None)
    @given(dims, st.booleans())
    def test_starved_solve_caching_cache_and_executors(self, d, with_cache):
        """The end-to-end solve under starvation is invariant to the memo
        cache and the executor, bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, bandwidth=0.4)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        base = solve_caching(net, mu, x0, backend="flow", config=BATCHED)
        cached = solve_caching(
            net, mu, x0, backend="flow", config=BATCHED,
            cache=SolveCache() if with_cache else None,
        )
        threaded = solve_caching(
            net, mu, x0, backend="flow", executor="thread:2", config=BATCHED
        )
        for other in (cached, threaded):
            assert np.array_equal(base.x, other.x)
            assert base.objective == other.objective

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12))
    def test_closed_form_off_counts_every_row_as_fallback(self, seed, R, J):
        """closed_form=False demotes every bound row to the bisection;
        the accounting identity must still hold with zero closed solves."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J)
        if lam.shape[0] == 0:
            return
        (out, counters) = _counters(
            lambda: waterfill_batch(
                lam, caps, omega, mu, W, bw, 1.0, closed_form=False
            )
        )
        assert counters["p2_bw_closed_form"] == 0
        assert counters["p2_bw_bound_rows"] == lam.shape[0]
        assert counters["p2_bisection_fallbacks"] == lam.shape[0]

    def test_closed_form_covers_the_bulk_deterministic(self):
        """On a pinned bound stack the certificate solves the vast
        majority of rows closed-form; the fallback is the exception, not
        the rule."""
        rng = np.random.default_rng(0)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, 300, 24)
        rows = lam.shape[0]
        (_, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        assert counters["p2_bw_bound_rows"] == rows
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        assert counters["p2_bw_closed_form"] >= 0.9 * rows


class TestP1Ties:
    """Degenerate stacks — tied and cap-bound rows — are *accepted* cases.

    The paper's uniform-cost scenarios make (nearly) every P1 row either
    tie-degenerate or cap-bound; the canonical discipline plus the exact
    capped kernel must answer them in the batched pass, bitwise what the
    per-SBS flow backend returns, instead of falling back row by row.
    """

    def _assert_all_accepted_match_flow(self, net, prices, x0, N):
        accepted = _solve_batched_p1(net, prices, x0, list(range(N)))
        assert set(accepted) == set(range(N)), (
            f"degenerate rows fell back: accepted {sorted(accepted)} of {N}"
        )
        for n, (x_b, obj_b) in accepted.items():
            x_f, obj_f = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            assert np.array_equal(x_b, x_f), f"SBS {n} trajectory differs"
            assert obj_b == obj_f

    @settings(max_examples=25, deadline=None)
    @given(dims, st.floats(0.1, 3.0))
    def test_uniform_price_stacks_accepted(self, d, value):
        """Every item identically priced: maximal ties, cap-bound when the
        uniform value clears the swap cost."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, beta=float(rng.uniform(0.0, 2.0)))
        prices = np.full((T, N, K), float(value))
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_duplicated_item_stacks_accepted(self, d):
        """Item columns duplicated so distinct items carry identical price
        trajectories — the classic tied-argmax case."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        base = rng.uniform(0.0, 2.0, size=(T, N, max(1, K // 2)))
        prices = np.empty((T, N, K))
        for k in range(K):
            prices[:, :, k] = base[:, :, k % base.shape[2]]
        x0 = np.zeros((N, K))
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_zero_beta_stacks_accepted(self, d):
        """Free replacement (beta = 0) ties every fetch/evict margin."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, beta=0.0)
        prices = rng.uniform(0.0, 1.5, size=(T, N, K))
        # Quantize to a coarse grid so exact cross-item ties are common.
        prices = np.round(prices * 4.0) / 4.0
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    def test_ties_off_restores_the_fallback_storm(self, rng):
        """The kill switch really is an acceptance-rate A/B: with
        ``batched_ties=False`` the degenerate rows are punted to the
        per-SBS backends (counted as fallbacks), with the default they are
        answered in-batch — and the costs are identical either way."""
        net = _multi_network(rng, N=4, K=8, C=2, beta=0.5)
        # Uniform demand -> uniform prices -> every row cap-bound.
        mu = np.full((3, net.num_classes, 8), 1.0)
        x0 = np.zeros((4, 8))

        rec_on = Recorder()
        with record_into(rec_on):
            on = solve_caching(net, mu, x0, backend="flow", config=BATCHED)
        assert rec_on.metrics.counter("p1_batched_fallbacks") == 0
        assert rec_on.metrics.counter("p1_batched_capped") > 0

        rec_off = Recorder()
        with record_into(rec_off):
            off = solve_caching(
                net, mu, x0, backend="flow",
                config=RuntimeConfig(batched=True, batched_ties=False),
            )
        assert rec_off.metrics.counter("p1_batched_fallbacks") > 0
        assert rec_off.metrics.counter("p1_batched_capped") == 0

        # The A/B gates the *rate*; the answers must not move a bit.
        assert np.array_equal(on.x, off.x)
        assert on.objective == off.objective


class TestCappedKernel:
    """Exactness properties of the cap-constrained cancel kernel."""

    def _instance(self, rng, B, T, K):
        """Cap-bound-leaning stack: mostly-attractive items, small caps."""
        C = rng.uniform(-0.2, 1.0, size=(B, T, K))
        beta = rng.uniform(0.0, 0.8, size=B)
        caps = rng.integers(1, max(2, K // 2 + 1), size=B)
        x0 = np.zeros((B, K))
        for b in range(B):
            x0[b, rng.choice(K, size=rng.integers(0, caps[b] + 1), replace=False)] = 1.0
        return C, beta, x0, caps

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.integers(1, 6), st.integers(2, 8))
    def test_accepted_rows_are_flow_optimal(self, seed, B, T, K):
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._instance(rng, B, T, K)
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        assert ok.any(), "kernel certified nothing on a benign stack"
        for b in np.flatnonzero(ok):
            xb = x[b]
            # Feasible, binary, cap-respecting.
            assert set(np.unique(xb)) <= {0.0, 1.0}
            assert (xb.sum(axis=1) <= caps[b]).all()
            obj = _objective_single(C[b], float(beta[b]), xb, x0[b])
            _, obj_f = _solve_single_sbs_flow(
                C[b], float(beta[b]), int(caps[b]), x0[b], canonical=False,
            )
            scale = max(1.0, abs(obj_f))
            assert obj == pytest.approx(obj_f, abs=1e-9 * scale), (
                f"row {b}: capped {obj} vs flow {obj_f}"
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.integers(1, 5), st.integers(2, 7))
    def test_stacked_equals_single_row(self, seed, B, T, K):
        """B-elementwise discipline: a row's answer must not depend on its
        batch-mates — stacked and B=1 runs agree bitwise."""
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._instance(rng, B, T, K)
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        for b in range(B):
            x1, ok1 = capped_cancel_stack(
                C[b : b + 1], beta[b : b + 1], x0[b : b + 1], caps[b : b + 1]
            )
            assert bool(ok1[0]) == bool(ok[b])
            if ok[b]:
                assert np.array_equal(x1[0], x[b])

    def test_zero_cap_keeps_cache_empty(self, rng):
        C = rng.uniform(0.0, 1.0, size=(2, 3, 4))
        x, ok = capped_cancel_stack(
            C, np.array([0.5, 0.0]), np.zeros((2, 4)), np.array([0, 0])
        )
        assert ok.all()
        assert not x.any()

    def test_full_cap_matches_flow(self, rng):
        """cap = K removes the binding constraint; the kernel must still
        answer exactly (the relaxed pass normally owns this regime)."""
        C = rng.uniform(-0.5, 1.0, size=(3, 4, 5))
        beta = np.array([0.0, 0.3, 1.0])
        caps = np.array([5, 5, 5])
        x0 = np.zeros((3, 5))
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        for b in np.flatnonzero(ok):
            obj = _objective_single(C[b], float(beta[b]), x[b], x0[b])
            _, obj_f = _solve_single_sbs_flow(
                C[b], float(beta[b]), 5, x0[b], canonical=False
            )
            assert obj == pytest.approx(obj_f, abs=1e-12)

    def test_empty_stack_shapes(self):
        x, ok = capped_cancel_stack(
            np.zeros((0, 3, 4)), np.zeros(0), np.zeros((0, 4)), np.zeros(0, dtype=int)
        )
        assert x.shape == (0, 3, 4)
        assert ok.shape == (0,)
