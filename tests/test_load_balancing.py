"""Tests for subproblem P2 and the fixed-cache load-balancing oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.load_balancing import (
    _solve_p2_fista,
    p2_objective,
    solve_p2,
    solve_y_given_x,
)
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.network.costs import LinearOperatingCost
from repro.network.topology import single_cell_network
from repro.workload.demand import paper_demand


def _problem(rng, *, K=5, M=4, T=3, C=2, B=4.0, omega_hat=0.0, density=(0.0, 3.0)):
    net = single_cell_network(
        num_items=K,
        cache_size=C,
        bandwidth=B,
        replacement_cost=1.0,
        omega_bs=rng.uniform(0.1, 1.0, M),
        omega_sbs=omega_hat,
    )
    demand = paper_demand(T, M, K, rng=rng, density_range=density)
    return JointProblem(net, demand.rates)


class TestSolveP2:
    def test_zero_mu_saturates_bandwidth(self, rng):
        """With no prices the solver offloads up to the bandwidth limit."""
        prob = _problem(rng, B=2.0, density=(1.0, 3.0))
        sol = solve_p2(prob, np.zeros(prob.y_shape))
        for t in range(prob.horizon):
            load = float((prob.demand[t] * sol.y[t]).sum())
            assert load <= 2.0 + 1e-6
            assert load == pytest.approx(2.0, rel=1e-3)  # demand >> bandwidth

    def test_huge_mu_shuts_offloading(self, rng):
        prob = _problem(rng)
        sol = solve_p2(prob, np.full(prob.y_shape, 1e9))
        assert sol.y.sum() == pytest.approx(0.0, abs=1e-6)

    def test_mu_shape_validated(self, rng):
        prob = _problem(rng)
        with pytest.raises(DimensionMismatchError):
            solve_p2(prob, np.zeros((1, 1, 1)))

    def test_objective_matches_evaluator(self, rng):
        prob = _problem(rng)
        mu = rng.uniform(0, 2, prob.y_shape)
        sol = solve_p2(prob, mu)
        assert sol.objective == pytest.approx(
            p2_objective(prob, sol.y, mu), rel=1e-6
        )

    def test_fast_path_matches_fista(self, rng):
        for _ in range(5):
            prob = _problem(rng, T=2)
            mu = rng.uniform(0, 4, prob.y_shape) * (rng.random(prob.y_shape) > 0.3)
            fast = solve_p2(prob, mu)
            slow = _solve_p2_fista(prob, mu, tol=1e-11, max_iter=8000)
            assert fast.objective == pytest.approx(
                slow.objective, rel=1e-4, abs=1e-6
            )

    def test_general_costs_use_fista(self, rng):
        prob = _problem(rng, omega_hat=0.05)
        mu = rng.uniform(0, 1, prob.y_shape)
        sol = solve_p2(prob, mu)
        # Feasibility under the general path.
        assert np.all(sol.y >= -1e-8) and np.all(sol.y <= 1 + 1e-8)
        for t in range(prob.horizon):
            assert (prob.demand[t] * sol.y[t]).sum() <= 4.0 + 1e-5


class TestSolveYGivenX:
    def test_respects_cache_mask(self, rng):
        prob = _problem(rng)
        x = np.zeros(prob.x_shape)
        x[:, 0, 1] = 1.0
        sol = solve_y_given_x(prob, x)
        mask = np.ones(prob.y_shape, dtype=bool)
        mask[:, :, 1] = False
        assert sol.y[mask].sum() == pytest.approx(0.0, abs=1e-9)

    def test_empty_cache_zero_offload(self, rng):
        prob = _problem(rng)
        sol = solve_y_given_x(prob, np.zeros(prob.x_shape))
        assert sol.y.sum() == 0.0

    def test_full_cache_saturates_or_serves_all(self, rng):
        prob = _problem(rng, C=5, B=1000.0)
        x = np.ones(prob.x_shape)
        sol = solve_y_given_x(prob, x)
        # Bandwidth ample: everything with positive omega served locally.
        demanded = prob.demand > 0
        np.testing.assert_allclose(sol.y[demanded], 1.0, atol=1e-6)

    def test_greedy_prefers_high_omega(self, rng):
        net = single_cell_network(
            num_items=1,
            cache_size=1,
            bandwidth=1.0,
            replacement_cost=1.0,
            omega_bs=[0.1, 0.9],
        )
        demand = np.ones((1, 2, 1))
        prob = JointProblem(net, demand)
        x = np.ones((1, 1, 1))
        sol = solve_y_given_x(prob, x)
        # Only 1 unit of bandwidth: it must go to the omega=0.9 class.
        assert sol.y[0, 1, 0] == pytest.approx(1.0)
        assert sol.y[0, 0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_cache(self, rng):
        """More cached content never increases the optimal cost."""
        prob = _problem(rng)
        x_small = np.zeros(prob.x_shape)
        x_small[:, 0, 0] = 1.0
        x_big = x_small.copy()
        x_big[:, 0, 1] = 1.0
        cost_small = prob.cost(x_small, solve_y_given_x(prob, x_small).y)
        cost_big = prob.cost(x_big, solve_y_given_x(prob, x_big).y)
        assert cost_big.operating <= cost_small.operating + 1e-6

    def test_x_shape_validated(self, rng):
        prob = _problem(rng)
        with pytest.raises(DimensionMismatchError):
            solve_y_given_x(prob, np.zeros((1, 1, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, 2.0])
    def test_x_outside_unit_interval_raises(self, rng, bad):
        """One entry outside [0, 1] (or NaN) is a configuration error, not
        a NaN objective, a y above 1 or a silently uncached item."""
        prob = _problem(rng)
        x = np.ones(prob.x_shape)
        x[1, 0, 2] = bad
        with pytest.raises(ConfigurationError):
            solve_y_given_x(prob, x)

    def test_fista_path_given_x(self, rng):
        prob = _problem(rng, omega_hat=0.02, T=2)
        x = np.zeros(prob.x_shape)
        x[:, 0, :3] = 1.0
        sol = solve_y_given_x(prob, x)
        mask = x[:, prob.network.class_sbs, :] == 0
        assert np.abs(sol.y[mask]).max(initial=0.0) <= 1e-8

    def test_linear_cost_plugged_in(self, rng):
        net = single_cell_network(
            num_items=3, cache_size=3, bandwidth=2.0, replacement_cost=1.0,
            omega_bs=[0.5, 0.8],
        )
        demand = paper_demand(2, 2, 3, rng=rng, density_range=(0.5, 2.0))
        prob = JointProblem(
            net, demand.rates, bs_cost=LinearOperatingCost(), sbs_cost=LinearOperatingCost()
        )
        x = np.ones(prob.x_shape)
        sol = solve_y_given_x(prob, x)
        for t in range(2):
            assert (prob.demand[t] * sol.y[t]).sum() <= 2.0 + 1e-6


def _padded_stack(problem, mu, x_caps):
    """Kernel inputs of the fast path built SBS by SBS into zero-padded
    arrays: the reference the gathered assembly must match byte for byte."""
    net, T = problem.network, problem.horizon
    K, N = net.num_items, net.num_sbs
    counts = [len(c) for c in net.classes_of_sbs]
    R, j_max = N * T, max(counts) * K
    lam_b, mu_b, om_b, caps_b = (np.zeros((R, j_max)) for _ in range(4))
    W_b, bw_b = np.zeros(R), np.zeros(R)
    for n, classes in enumerate(net.classes_of_sbs):
        J, rows = counts[n] * K, slice(n * T, (n + 1) * T)
        lam = problem.demand[:, classes, :].reshape(T, -1)
        omega = np.repeat(net.omega_bs[classes], K)
        lam_b[rows, :J], caps_b[rows, :J] = lam, lam
        mu_b[rows, :J] = mu[:, classes, :].reshape(T, -1)
        om_b[rows, :J] = omega
        if x_caps is not None:
            caps_b[rows, :J] *= np.broadcast_to(
                x_caps[:, n, None, :], (T, counts[n], K)
            ).reshape(T, -1)
        W_b[rows] = lam @ omega
        bw_b[rows] = float(net.bandwidths[n])
    return lam_b, caps_b, om_b, mu_b, W_b, bw_b


@pytest.mark.parametrize("N,classes_per_sbs", [(1, 6), (3, 2), (4, 3)])
def test_p2_fast_assembly_bytes(N, classes_per_sbs, monkeypatch):
    """Equal-width networks gather the kernel inputs in one pass; every
    input is byte-equal to the SBS-by-SBS padded assembly."""
    import repro.core.load_balancing as lb
    from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation

    rng = np.random.default_rng(N)
    K, T = 6, 5
    owners = rng.permutation(np.repeat(np.arange(N), classes_per_sbs))
    net = Network(
        ContentCatalog(K),
        tuple(SmallBaseStation(n, 2, float(rng.uniform(1, 5)), 1.0) for n in range(N)),
        tuple(
            MUClass(m, int(n), float(rng.uniform(0.1, 1.0)))
            for m, n in enumerate(owners)
        ),
    )
    prob = JointProblem(net, paper_demand(T, len(owners), K, rng=rng).rates)
    mu = rng.uniform(0, 3, prob.y_shape) * (rng.random(prob.y_shape) < 0.5)
    x = (rng.random(prob.x_shape) < 0.5).astype(float)
    seen = []
    kernel = lb.waterfill_batch
    monkeypatch.setattr(
        lb, "waterfill_batch", lambda *a, **k: seen.append(a) or kernel(*a, **k)
    )
    for mu_in, x_caps in ((mu, None), (np.zeros(prob.y_shape), x)):
        lb._solve_p2_fast(prob, mu_in, x_caps=x_caps)
        got, want = seen.pop()[:6], _padded_stack(prob, mu_in, x_caps)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_p2_fast_agrees_with_fista_property(seed: int):
    """Property: the water-filling solver matches FISTA on random instances."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 5))
    M = int(rng.integers(1, 4))
    T = int(rng.integers(1, 3))
    B = float(rng.uniform(0.5, 5.0))
    net = single_cell_network(
        num_items=K, cache_size=1, bandwidth=B, replacement_cost=1.0,
        omega_bs=rng.uniform(0.0, 1.0, M),
    )
    demand = paper_demand(T, M, K, rng=rng, density_range=(0.0, 2.0))
    prob = JointProblem(net, demand.rates)
    mu = rng.uniform(0, 3, prob.y_shape) * (rng.random(prob.y_shape) > 0.5)
    fast = solve_p2(prob, mu)
    slow = _solve_p2_fista(prob, mu, tol=1e-11, max_iter=8000)
    assert fast.objective <= slow.objective + 1e-4 * (1 + abs(slow.objective))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_y_given_x_feasible_property(seed: int):
    """Property: the oracle's output always satisfies every constraint."""
    rng = np.random.default_rng(seed)
    K, M, T, C = 4, 3, 2, 2
    net = single_cell_network(
        num_items=K, cache_size=C, bandwidth=float(rng.uniform(0.5, 4.0)),
        replacement_cost=1.0, omega_bs=rng.uniform(0, 1, M),
    )
    demand = paper_demand(T, M, K, rng=rng, density_range=(0.0, 3.0))
    prob = JointProblem(net, demand.rates)
    x = np.zeros(prob.x_shape)
    for t in range(T):
        x[t, 0, rng.choice(K, C, replace=False)] = 1.0
    sol = solve_y_given_x(prob, x)
    prob.check_feasible(x, sol.y)
