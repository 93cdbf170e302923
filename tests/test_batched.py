"""Equivalence properties of the batched solve core.

The stacked kernels (DESIGN.md, "Batched solve core") answer every SBS of
a window at once, and stacking selects *granularity, not semantics*: the
stacked ``P1`` certificate pass and the all-SBS ``P2`` water-fill must
return, for each SBS, bit-for-bit what a solve of that SBS alone returns
wherever both are exact, and within ``1e-9`` where the reference itself is
approximate. These tests pin that contract with randomized multi-SBS
instances — uneven class counts included, so the zero-cap padding rows of
the SBS-major stacking are exercised.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caching_lp import (
    _objective_single,
    _solve_batched_p1,
    _solve_single_sbs_flow,
    class_prices,
    solve_caching,
)
from repro.api import build_scenario
from repro.core.capped import (
    _arc_inputs,
    _hub_certified,
    _prefix_greedy_stack,
    _residual_masks,
    capped_cancel_stack,
)
from repro.core.distributed import split_by_sbs
from repro.core.load_balancing import (
    _project_blocks_capped,
    _solve_p2_fast,
    _waterfill_reference,
    solve_y_given_x,
)
from repro.core.polish import _candidate_blocks, _cell_moves, _slot_problems
from repro.core.rounding import optimal_rounding_threshold, round_caching
from repro.core.problem import JointProblem
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.obs import Recorder, record_into
from repro.optim.projection import project_halfspace_box
from repro.optim.waterfill import _near_tied_weights, _solve_bw_bound, waterfill_batch
from repro.perf.executor import resolve_executor
from repro.perf.solvecache import SolveCache

from p1_oracle import bellman_converged


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


def _assert_stack_matches_split(prob, solve, stacked):
    """``stacked`` (a solve of the whole problem) equals, bit for bit, the
    per-SBS solves of :func:`split_by_sbs` sub-problems: each SBS's ``y``
    block, and the objective summed over SBSs in order."""
    total = 0.0
    for n, (sub, classes) in enumerate(split_by_sbs(prob)):
        alone = solve(sub, n, classes)
        assert alone.y.tobytes() == stacked.y[:, classes, :].tobytes(), n
        total += alone.objective
    assert total == stacked.objective


class TestP2Batched:
    """The all-SBS stacked P2 equals per-SBS solves, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_fast_path_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        mu = _sparse_mu(rng, prob.y_shape)
        _assert_stack_matches_split(
            prob,
            lambda sub, n, classes: _solve_p2_fast(sub, mu[:, classes, :]),
            _solve_p2_fast(prob, mu),
        )

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
        _assert_stack_matches_split(
            prob,
            lambda sub, n, classes: solve_y_given_x(sub, x[:, n : n + 1, :]),
            solve_y_given_x(prob, x),
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 9))
    def test_fista_bitwise(self, seed, R, J):
        """FISTA's stacked block projection equals row-by-row calls on each
        row's own (unpadded) width: rows of uneven width are zero-padded in
        the stack exactly as SBSs with fewer classes are."""
        rng = np.random.default_rng(seed)
        widths = rng.integers(1, J + 1, size=R)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.2, 2.0, size=R)
        pad = np.arange(J)[None, :] >= widths[:, None]
        v[pad] = a[pad] = caps[pad] = 0.0
        stacked = _project_blocks_capped(v, a, budgets, caps)
        for r, w in enumerate(widths):
            alone = _project_blocks_capped(
                v[r : r + 1, :w], a[r : r + 1, :w], budgets[r : r + 1],
                caps[r : r + 1, :w],
            )
            assert alone[0].tobytes() == stacked[r, :w].tobytes(), r
            assert not stacked[r, w:].any()


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


def _class_weights(rng, R, G, weights):
    """Per-class omega rows, shape ``(R, G)``.

    ``grid`` draws from a coarse dyadic grid (classes tie exactly);
    ``ulp`` steps each class one ``np.nextafter`` above the previous one
    from a U[0.5, 1.5] base; ``near`` steps by a relative gap drawn
    log-uniformly between one ulp and 1e-12. The last two are the weights
    whose products ``fl(c * omega)`` tie for some multipliers ``c`` and
    not for others, so equal-slope items swap order as the residual moves.
    """
    if weights == "grid":
        return rng.choice([0.5, 1.0, 1.5, 2.0], (R, G))
    omega = np.empty((R, G))
    omega[:, 0] = rng.uniform(0.5, 1.5, R)
    for g in range(1, G):
        prev = omega[:, g - 1]
        step = np.nextafter(prev, np.inf)
        if weights == "near":
            gap = 2.0 ** rng.uniform(-52.0, np.log2(1e-12), R)
            step = np.maximum(step, prev * (1.0 + gap))
        omega[:, g] = step
    return omega


def _class_rows(rng, R, G, K, bw_mode, weights="grid"):
    """P2-shaped rows: G MU classes of K items, omega constant per class
    block. Coarse dyadic grids for lam, mu and caps (and omega, unless
    ``weights`` asks for near-equal class weights, see
    :func:`_class_weights`) make slopes tie within a class, keys tie across
    classes at the bisection's dyadic midpoints, and running cap sums hit
    the bandwidth exactly."""
    J = G * K
    omega = np.repeat(_class_weights(rng, R, G, weights), K, axis=1)
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


def _continuous_rows(rng, R, K, G=30):
    """Rows shaped like the paper's ``P2`` rows: G MU classes of K items
    with U[0, 1] class weights, caps equal to continuous demands and a
    bandwidth of 5-60% of each row's caps. Algorithm 1's multipliers leave
    many items nearly indifferent at the optimum, so the eligibility
    thresholds ``slope / (2 omega)`` are drawn within 20% of one residual
    and a tenth of the slopes are zero. About a quarter of the bisected
    roots then sit at a jump between two allocation classes."""
    J = G * K
    omega = np.repeat(rng.uniform(0.0, 1.0, (R, G)), K, axis=1)
    lam = rng.uniform(0.0, 1.0, (R, J))
    W = (lam * omega).sum(axis=1)
    thr = (W * rng.uniform(0.1, 0.9, R))[:, None] * rng.uniform(0.8, 1.2, (R, J))
    mu = 2.0 * thr * omega * lam * (rng.random((R, J)) > 0.1)
    bw = lam.sum(axis=1) * rng.uniform(0.05, 0.6, R)
    return lam, lam.copy(), omega, mu, W, bw


def _fuzz_stack(family, rng):
    """One stack of the search fuzz's four row families."""
    if family == 0:
        return _random_stack(rng, int(rng.integers(1, 7)), int(rng.integers(1, 10)))
    if family == 1:
        return _class_rows(
            rng,
            int(rng.integers(1, 7)),
            int(rng.integers(1, 31)),
            int(rng.integers(1, 11)),
            ("zero", "fits", "exact", "random")[int(rng.integers(4))],
            ("grid", "ulp", "near")[int(rng.integers(3))],
        )
    if family == 2:
        G = int(rng.integers(3, 7))
        return _bound_stack(rng, int(rng.integers(2, 20)), int(rng.integers(3, 30)), G)
    return _continuous_rows(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))


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

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 6),
        st.integers(1, 30),
        st.integers(1, 30),
        st.sampled_from(["zero", "fits", "exact", "random"]),
        st.sampled_from(["grid", "ulp", "near"]),
    )
    def test_prefix_state_reuse_bitwise_on_class_rows(
        self, seed, R, G, K, bw_mode, weights
    ):
        """Allocated-prefix state reuse and the threshold replay return the
        fixed-depth bisection's bits (sign of zero included) on
        class-structured rows full of slope, key and bandwidth ties, and
        on rows whose class weights sit one ulp to 1e-12 apart."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _class_rows(rng, R, G, K, bw_mode, weights)
        args = (lam, caps, omega, mu, W, bw, 1.0)
        full = waterfill_batch(*args, early_exit=False, closed_form=False)
        fast = waterfill_batch(*args, early_exit=True, closed_form=False)
        assert full[0].tobytes() == fast[0].tobytes()
        assert full[1].tobytes() == fast[1].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
    def test_search_bitwise_on_continuous_class_rows(self, seed, R, K):
        """The threshold search returns the fixed-depth bisection's bits on
        rows shaped like the paper's, where many roots sit at a jump
        between two allocation classes."""
        rng = np.random.default_rng(seed)
        args = _continuous_rows(rng, R, K) + (1.0,)
        full = waterfill_batch(*args, early_exit=False, closed_form=False)
        fast = waterfill_batch(*args, closed_form=False)
        assert full[0].tobytes() == fast[0].tobytes()
        assert full[1].tobytes() == fast[1].tobytes()

    def test_search_fuzz_four_families(self):
        """A fixed-seed fuzz over random stacks, class rows (grid, ulp and
        near weights), G >= 3 bound stacks and continuous 30-class rows:
        every stack returns the fixed-depth bisection's bits, and only rows
        inside the weight guard reach the fixed-depth path."""

        def run(stack, **kw):
            rec = Recorder()
            with record_into(rec):
                out = waterfill_batch(*stack, 1.0, closed_form=False, **kw)
            return out, rec.metrics

        searched = 0
        for i in range(400):
            stack = _fuzz_stack(i % 4, np.random.default_rng(i))
            if stack[0].shape[0] == 0:
                continue
            (fast, _), (full, _) = run(stack), run(stack, early_exit=False)
            assert fast[0].tobytes() == full[0].tobytes(), i
            assert fast[1].tobytes() == full[1].tobytes(), i
            outside = ~_near_tied_weights(stack[2], stack[1])
            if outside.any():
                _, metrics = run(tuple(arr[outside] for arr in stack))
                assert metrics.counter("p2_bisection_fixed_depth") == 0, i
                searched += metrics.counter("p2_bisection_replayed")
        assert searched > 1000

    def test_fills_per_bound_row_pinned(self):
        """Fresh greedy fills per bisected row on a fixed G = 3 stack. The
        fixed-depth bisection runs 26 midpoint fills plus 2 endpoint fills
        per row; the threshold search answers every row in about one."""
        rng = np.random.default_rng(0)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, 200, 30, G=3)

        def fills(early_exit):
            rec = Recorder()
            with record_into(rec):
                out = waterfill_batch(
                    lam, caps, omega, mu, W, bw, 1.0, early_exit=early_exit
                )
            return out, tuple(
                rec.metrics.counter(name)
                for name in (
                    "p2_bisection_fills",
                    "p2_bisection_fallbacks",
                    "p2_bisection_replayed",
                    "p2_bisection_fixed_depth",
                )
            )

        full, (fixed, rows, replayed, depth) = fills(False)
        assert rows > 0 and fixed == 28 * rows
        assert replayed == 0 and depth == rows
        fast, (searched, rows_again, replayed, depth) = fills(True)
        assert rows_again == rows
        assert full[0].tobytes() == fast[0].tobytes()
        assert full[1].tobytes() == fast[1].tobytes()
        # 214 fills for 200 rows; the level-by-level threshold replay
        # needed 225, the level-by-level prefix reuse 242 and whole-order
        # state reuse 412.
        assert searched == 214
        # The search answers every row; a slide back into the fixed-depth
        # bisection fails here.
        assert replayed == rows and depth == 0

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
    def test_exact_theta_beats_bisection(self, seed, R, J):
        """The event-sweep theta is feasible and never a worse projection
        (in Euclidean distance) than the scalar bisection
        :func:`project_halfspace_box` — which shares no code with
        :func:`halfspace_theta_exact` — beyond the 1e-9 envelope."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.2, 2.0, size=R)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        exact = _project_blocks_capped(v, a, budgets, caps)
        ref = np.stack(
            [
                project_halfspace_box(v[r], a[r], float(budgets[r]), hi=caps[r])
                for r in range(R)
            ]
        )
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
        """``solve_caching`` equals the per-SBS flow run one SBS at a time,
        with its objectives summed in SBS order."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        batched = solve_caching(
            net, mu, x0, cache=SolveCache() if with_cache else None
        )
        prices = class_prices(net, mu)
        objective = 0.0
        for n in range(N):
            xn, obj = _solve_single_sbs_flow(
                prices[:, n, :], float(net.replacement_costs[n]),
                int(net.cache_sizes[n]), x0[n],
            )
            assert np.array_equal(xn, batched.x[:, n, :]), n
            objective += obj
        assert objective == batched.objective

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_executors_bitwise(self, rng, executor):
        """A solve inside an executor's worker (as sweeps and
        ``run_policies`` run one) returns the in-process bits."""
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6), sparsity=0.5)
        x0 = np.zeros((3, 6))
        base = solve_caching(net, mu, x0)
        others = resolve_executor(executor).map(
            functools.partial(solve_caching, net, mu), [x0, x0]
        )
        for other in others:
            assert np.array_equal(base.x, other.x)
            assert base.objective == other.objective

    def test_memo_hit_short_circuits_batch(self, rng):
        """A warm cache answers repeats before the batched pass sees them."""
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6))
        x0 = np.zeros((3, 6))
        cache = SolveCache()
        first = solve_caching(net, mu, x0, cache=cache)
        misses = cache.misses
        second = solve_caching(net, mu, x0, cache=cache)
        assert cache.misses == misses  # all hits the second time
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective


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
        """Each row of a cell's stacked candidate evaluation equals the
        fixed-cache oracle for that candidate cache, bit for bit — what the
        per-move loop would compute."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        x = np.zeros(prob.x_shape)
        for t in range(T):
            for n in range(N):
                x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
        for t, sub in enumerate(_slot_problems(prob)):
            for n in range(N):
                new_rows = _cell_moves(x[t, n], C)
                blocks = _candidate_blocks(sub, n, new_rows)
                classes = prob.network.classes_of_sbs[n]
                for v, row in enumerate(new_rows):
                    x_t = x[t].copy()
                    x_t[n] = row
                    y = solve_y_given_x(sub, x_t[None]).y
                    assert blocks[v].tobytes() == y[0, classes, :].tobytes()


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
        """On an all-bound stack every row stays feasible and is never worse
        than a deep bisection beyond the 1e-9 relative envelope, and every
        row the closed form certifies exhausts the budget."""
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
        # Each certified closed-form candidate spends the whole budget. A
        # fallback row need not: the unconstrained optimum is not unique
        # when items of different weights are indifferent at the optimal
        # residual, and one that fits the budget can exist although the
        # slack scan's greedy choice does not fit it
        # (test_unused_bandwidth_row_is_optimal).
        slope = np.where(lam > 0, mu / lam, np.inf)
        solved = _solve_bw_bound(omega, caps, slope, W, bw, 2.0)[2]
        assert solved.sum() == counters["p2_bw_closed_form"]
        assert (sums[solved] >= bw[solved] * (1 - 1e-9) - 1e-12).all()
        for r in range(rows):
            sl = slice(r, r + 1)
            deep, _ = _waterfill_reference(
                lam[sl], caps[sl], omega[r], mu[sl], W[sl], bw[r], 1.0, iters=60
            )
            got = _row_objective(alloc[r], lam[r], omega[r], mu[r], W[r], 1.0)
            ref = _row_objective(deep[0], lam[r], omega[r], mu[r], W[r], 1.0)
            assert got <= ref + 1e-9 * max(1.0, abs(ref))

    def test_unused_bandwidth_row_is_optimal(self):
        """A bound row whose optimum leaves bandwidth unused. Row 2 of this
        stack falls back to the bisection and routes 2.0858 of its 2.1421
        budget. It is optimal: its zero-slope items of the heavier weight
        alone can offload all of W within the budget, so the optimal
        objective is 0 and the KKT multiplier of the budget is 0. The slack
        scan ranks every zero-slope item at threshold 0 in column order,
        lighter ones first, and overshoots the budget, which is why the row
        counts as bound at all."""
        lam, caps, omega, mu, W, bw = _bound_stack(
            np.random.default_rng(9), 15, 15, G=2, bw_frac=0.75
        )
        (out, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        assert counters["p2_bisection_fallbacks"] == 2
        r = 2
        alloc = out[0][r]
        free = (caps[r] > 0) & (mu[r] == 0)
        heavy = free & (omega[r] == omega[r][free].max())
        w_heavy = omega[r][heavy].max()
        assert caps[r][heavy].sum() * w_heavy >= W[r]
        assert W[r] / w_heavy < bw[r] * (1 - 1e-3)
        assert alloc.sum() < bw[r] * (1 - 1e-3)
        got = _row_objective(alloc, lam[r], omega[r], mu[r], W[r], 1.0)
        deep, _ = _waterfill_reference(
            lam[r : r + 1], caps[r : r + 1], omega[r], mu[r : r + 1],
            W[r : r + 1], bw[r], 1.0, iters=60,
        )
        ref = _row_objective(deep[0], lam[r], omega[r], mu[r], W[r], 1.0)
        assert 0.0 <= ref <= got <= 1e-12

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
        """Stacked vs per-SBS bit-identity under bandwidth starvation — the
        regime where the bound solve (not the slack scan) produces the
        returned rows — with the per-SBS bound-row counters summing to the
        stacked ones."""
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
        (stacked, stacked_c) = _counters(lambda: _solve_p2_fast(starved, mu))
        split_c = dict.fromkeys(_P2_COUNTERS, 0.0)

        def alone(sub, n, classes):
            sol, counters = _counters(
                lambda: _solve_p2_fast(sub, mu[:, classes, :])
            )
            for name in _P2_COUNTERS:
                split_c[name] += counters[name]
            return sol

        _assert_stack_matches_split(starved, alone, stacked)
        assert split_c == stacked_c
        assert (
            stacked_c["p2_bw_closed_form"] + stacked_c["p2_bisection_fallbacks"]
            == stacked_c["p2_bw_bound_rows"]
        )

    @settings(max_examples=8, deadline=None)
    @given(dims, st.booleans())
    def test_starved_solve_caching_cache_and_executors(self, d, with_cache):
        """The end-to-end solve under starvation is invariant to the memo
        cache and to running in a worker thread, bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, bandwidth=0.4)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        base = solve_caching(net, mu, x0)
        cached = solve_caching(
            net, mu, x0, cache=SolveCache() if with_cache else None
        )
        threaded = resolve_executor("thread:2").map(
            functools.partial(solve_caching, net, mu), [x0, x0]
        )
        for other in (cached, *threaded):
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

    def test_default_solve_counts_capped_not_fallbacks(self, rng):
        """On the default config, ``solve_caching`` answers uniform-price
        (cap-bound) rows with the capped kernel and records no fallback."""
        net = _multi_network(rng, N=4, K=8, C=2, beta=0.5)
        mu = np.full((3, net.num_classes, 8), 1.0)
        rec = Recorder()
        with record_into(rec):
            solve_caching(net, mu, np.zeros((4, 8)))
        assert rec.metrics.counter("p1_batched_fallbacks") == 0
        assert rec.metrics.counter("p1_batched_capped") > 0

    def test_cancel_rows_counted_per_round(self):
        """``p1_capped_cancel_rows`` sums, over rounds, the rows the capped
        kernel's certificate sends to the cancel phase."""
        problem = build_scenario(seed=1, horizon=40, beta=0.5).problem()
        net, mu = problem.network, 10.0 * problem.demand
        rec = Recorder()
        with record_into(rec):
            solve_caching(net, mu, problem.x_initial)
        C = class_prices(net, mu).transpose(1, 0, 2)
        _, ok, cancels = capped_cancel_stack(
            C, net.replacement_costs, problem.x_initial, net.cache_sizes
        )
        assert ok.all() and cancels > 0
        assert rec.metrics.counter("p1_capped_cancel_rows") == cancels

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
        x, ok, _ = capped_cancel_stack(C, beta, x0, caps)
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
           st.integers(1, 12), st.integers(2, 7))
    def test_stacked_equals_single_row(self, seed, B, T, K):
        """B-elementwise discipline: a row's answer must not depend on its
        batch-mates — stacked and B=1 runs agree bitwise."""
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._instance(rng, B, T, K)
        x, ok, _ = capped_cancel_stack(C, beta, x0, caps)
        for b in range(B):
            x1, ok1, _ = capped_cancel_stack(
                C[b : b + 1], beta[b : b + 1], x0[b : b + 1], caps[b : b + 1]
            )
            assert bool(ok1[0]) == bool(ok[b])
            if ok[b]:
                assert np.array_equal(x1[0], x[b])

    def _family(self, rng, B, T, K, family):
        """One family's stack, caps anywhere in ``0..K``."""
        if family == "uniform":
            C = np.broadcast_to(rng.uniform(0.1, 3.0, (B, 1, 1)), (B, T, K)).copy()
        elif family == "duplicated":
            base = rng.uniform(0.0, 2.0, (B, T, max(1, K // 2)))
            C = base[:, :, np.arange(K) % base.shape[2]]
        elif family == "zero_beta":
            C = np.round(rng.uniform(0.0, 1.5, (B, T, K)) * 4.0) / 4.0
        else:
            C = rng.uniform(-0.2, 1.0, (B, T, K))
        beta = np.zeros(B) if family == "zero_beta" else rng.uniform(0.0, 2.0, B)
        caps = rng.integers(0, K + 1, size=B)
        x0 = (rng.random((B, K)) < 0.4).astype(np.float64)
        return C, beta, x0, caps

    def _assert_certificate_matches_sweeps(self, C, beta, x0, caps, x):
        """The certificate's mask equals the sweeps' mask at their fixed
        point: ``T + 1 + 2 T K`` pairs outlast any convergent row."""
        B, T, K = C.shape
        fetch, tol = _arc_inputs(C, beta, x0)
        on, ent, cont, exi = _residual_masks(x, x0)
        swept = bellman_converged(
            C, fetch, on, ent, cont, exi, on.sum(axis=2), caps, tol,
            T + 1 + 2 * T * K,
        )
        certified = _hub_certified(C, fetch, x, x0, caps, tol)
        assert np.array_equal(certified, swept), (certified, swept)
        return certified

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 12),
           st.integers(1, 8),
           st.sampled_from(["random", "uniform", "duplicated", "zero_beta"]))
    def test_certificate_matches_fixed_point_sweeps(self, seed, B, T, K, family):
        """The hub-graph certificate routes exactly the rows the Bellman
        sweeps route — on the prefix-greedy candidate, and on a random
        cap-feasible trajectory, which usually holds improving cycles."""
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._family(rng, B, T, K, family)
        x = _prefix_greedy_stack(C, beta, x0, caps)
        self._assert_certificate_matches_sweeps(C, beta, x0, caps, x)
        rank = rng.random((B, T, K)).argsort(axis=2).argsort(axis=2)
        keep = rng.integers(0, caps[:, None, None] + 1, size=(B, T, 1))
        self._assert_certificate_matches_sweeps(
            C, beta, x0, caps, (rank < keep).astype(np.float64)
        )

    def test_certificate_matches_sweeps_at_horizon_40(self):
        """Long horizons stretch the certificate's prefix sums; on the paper
        scenario's horizon-40 prices both verdicts still match the sweeps."""
        problem = build_scenario(seed=1, horizon=40, beta=50.0).problem()
        c = class_prices(problem.network, problem.demand)[:, 0, :8]
        rows = [(0.05, 1.0), (0.5, 10.0), (2.0, 1.0), (5.0, 10.0), (50.0, 1.0)]
        C = np.stack([f * c for _, f in rows])
        beta = np.array([b for b, _ in rows])
        x0 = np.zeros((len(rows), 8))
        caps = np.full(len(rows), 3)
        x = _prefix_greedy_stack(C, beta, x0, caps)
        certified = self._assert_certificate_matches_sweeps(C, beta, x0, caps, x)
        assert certified.any() and not certified.all(), certified

    def test_self_loop_is_a_cycle(self):
        """With a negative ``beta`` (no model has one) re-fetching a held
        item at hub 1 is the only improving cycle; it closes at one hub."""
        C, beta = np.ones((1, 2, 1)), np.array([-0.1])
        x0, caps = np.zeros((1, 1)), np.array([1])
        x = _prefix_greedy_stack(C, beta, x0, caps)
        assert x.all()  # held in both slots, so hub 1 sits mid-run
        assert not self._assert_certificate_matches_sweeps(C, beta, x0, caps, x)[0]

    def test_zero_cap_keeps_cache_empty(self, rng):
        C = rng.uniform(0.0, 1.0, size=(2, 3, 4))
        x, ok, _ = capped_cancel_stack(
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
        x, ok, _ = capped_cancel_stack(C, beta, x0, caps)
        for b in np.flatnonzero(ok):
            obj = _objective_single(C[b], float(beta[b]), x[b], x0[b])
            _, obj_f = _solve_single_sbs_flow(
                C[b], float(beta[b]), 5, x0[b], canonical=False
            )
            assert obj == pytest.approx(obj_f, abs=1e-12)

    def test_empty_stack_shapes(self):
        x, ok, _ = capped_cancel_stack(
            np.zeros((0, 3, 4)), np.zeros(0), np.zeros((0, 4)), np.zeros(0, dtype=int)
        )
        assert x.shape == (0, 3, 4)
        assert ok.shape == (0,)
