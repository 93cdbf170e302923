"""Tests for Algorithm 1 (primal-dual decomposition) and the problem container."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.caching_lp import solve_caching
from repro.core.exhaustive import solve_exhaustive
from repro.core.load_balancing import solve_p2
from repro.core.primal_dual import solve_primal_dual
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.network.topology import single_cell_network
from repro.workload.demand import paper_demand


class TestJointProblem:
    def test_shapes(self, tiny_problem):
        assert tiny_problem.horizon == 3
        assert tiny_problem.x_shape == (3, 1, 4)
        assert tiny_problem.y_shape == (3, 3, 4)

    def test_default_initial_cache_empty(self, tiny_problem):
        assert tiny_problem.x_initial.sum() == 0.0

    def test_rejects_negative_demand(self, tiny_network):
        with pytest.raises(ConfigurationError):
            JointProblem(tiny_network, -np.ones((2, 3, 4)))

    def test_rejects_wrong_demand_shape(self, tiny_network):
        with pytest.raises(DimensionMismatchError):
            JointProblem(tiny_network, np.ones((2, 5, 4)))

    def test_rejects_fractional_initial_cache(self, tiny_network):
        with pytest.raises(ConfigurationError):
            JointProblem(
                tiny_network, np.ones((2, 3, 4)), x_initial=np.full((1, 4), 0.5)
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("demand", np.nan),
            ("demand", np.inf),
            ("replacement_cost", np.nan),
            ("replacement_cost", np.inf),
            ("bandwidth", np.nan),
            ("omega_bs", np.nan),
            ("omega_bs", np.inf),
            ("omega_sbs", np.nan),
            ("bandwidth", np.inf),  # legal: an uncapacitated SBS link
        ],
    )
    def test_non_finite_inputs_raise_or_solve_finite(self, field, value):
        """Hostile values raise a typed error at construction; none may
        reach Algorithm 1 and come back as NaN bounds."""
        params = dict(bandwidth=3.0, replacement_cost=2.0, omega_bs=0.5, omega_sbs=0.0)
        demand = np.random.default_rng(0).uniform(0.0, 3.0, (3, 2, 20))
        if field == "demand":
            demand[1, 0, 4] = value
        else:
            params[field] = value

        def build():
            net = single_cell_network(
                num_items=20,
                cache_size=3,
                bandwidth=params["bandwidth"],
                replacement_cost=params["replacement_cost"],
                omega_bs=[params["omega_bs"], 0.3],
                omega_sbs=[params["omega_sbs"], 0.0],
            )
            return JointProblem(net, demand)

        if field == "bandwidth" and value == np.inf:
            result = solve_primal_dual(build(), max_iter=10)
            assert np.isfinite([result.upper_bound, result.lower_bound]).all()
        else:
            with pytest.raises(ConfigurationError):
                build()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["solve_caching", "solve_p2", "mu0"])
    def test_non_finite_multipliers_raise(self, tiny_problem, entry, value):
        """One NaN or infinite price raises instead of returning a NaN or
        infinite objective or lower bound."""
        mu = np.ones(tiny_problem.y_shape)
        mu[1, 0, 2] = value
        with pytest.raises(ConfigurationError):
            if entry == "solve_caching":
                solve_caching(tiny_problem.network, mu, tiny_problem.x_initial)
            elif entry == "solve_p2":
                solve_p2(tiny_problem, mu)
            else:
                solve_primal_dual(tiny_problem, max_iter=3, mu0=mu)

    def test_check_feasible_accepts_valid(self, tiny_problem):
        x = np.zeros(tiny_problem.x_shape)
        x[:, 0, 0] = 1.0
        y = np.zeros(tiny_problem.y_shape)
        y[:, :, 0] = 0.1
        tiny_problem.check_feasible(x, y)

    def test_check_feasible_rejects_coupling_violation(self, tiny_problem):
        x = np.zeros(tiny_problem.x_shape)
        y = np.zeros(tiny_problem.y_shape)
        y[0, 0, 0] = 0.5  # not cached
        with pytest.raises(ConfigurationError):
            tiny_problem.check_feasible(x, y)

    def test_check_feasible_rejects_capacity_violation(self, tiny_problem):
        x = np.ones(tiny_problem.x_shape)  # C=1 but all 4 cached
        y = np.zeros(tiny_problem.y_shape)
        with pytest.raises(ConfigurationError):
            tiny_problem.check_feasible(x, y)

    def test_check_feasible_rejects_bandwidth_violation(self, rng):
        net = single_cell_network(
            num_items=2, cache_size=2, bandwidth=0.5, replacement_cost=1.0,
            omega_bs=[0.5],
        )
        prob = JointProblem(net, np.full((1, 1, 2), 5.0))
        x = np.ones((1, 1, 2))
        y = np.ones((1, 1, 2))
        with pytest.raises(ConfigurationError):
            prob.check_feasible(x, y)

    def test_window_padding(self, tiny_problem):
        sub = tiny_problem.window(2, 4, tiny_problem.x_initial)
        assert sub.horizon == 4
        np.testing.assert_allclose(sub.demand[0], tiny_problem.demand[2])
        assert sub.demand[1:].sum() == 0.0

    def test_cost_is_sum_of_components(self, tiny_problem):
        x = np.zeros(tiny_problem.x_shape)
        y = np.zeros(tiny_problem.y_shape)
        breakdown = tiny_problem.cost(x, y)
        assert breakdown.total == pytest.approx(
            breakdown.bs_cost + breakdown.sbs_cost + breakdown.replacement
        )
        assert breakdown.replacement == 0.0


class TestPrimalDual:
    def test_matches_exhaustive_on_tiny_instances(self, rng):
        for trial in range(4):
            net = single_cell_network(
                num_items=4,
                cache_size=1,
                bandwidth=3.0,
                replacement_cost=float(rng.uniform(0, 5)),
                omega_bs=rng.uniform(0.1, 1.0, 3),
            )
            demand = paper_demand(3, 3, 4, rng=rng, density_range=(0.0, 6.0))
            prob = JointProblem(net, demand.rates)
            exact = solve_exhaustive(prob)
            result = solve_primal_dual(prob, max_iter=300, gap_tol=1e-5)
            assert result.upper_bound >= exact.cost.total - 1e-6
            assert result.lower_bound <= exact.cost.total + 1e-6
            assert result.upper_bound <= exact.cost.total * 1.02 + 1e-6

    def test_bounds_are_ordered_and_feasible(self, small_scenario):
        prob = small_scenario.problem()
        result = solve_primal_dual(prob, max_iter=60)
        assert result.lower_bound <= result.upper_bound + 1e-9
        prob.check_feasible(result.x, result.y)
        assert result.cost.total == pytest.approx(result.upper_bound)

    def test_history_monotone(self, small_scenario):
        result = solve_primal_dual(small_scenario.problem(), max_iter=40)
        lbs = [h[0] for h in result.history]
        ubs = [h[1] for h in result.history]
        assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))

    def test_warm_start_converges_faster_or_equal(self, small_scenario):
        prob = small_scenario.problem()
        cold = solve_primal_dual(prob, max_iter=60, gap_tol=1e-4)
        warm = solve_primal_dual(prob, max_iter=60, gap_tol=1e-4, mu0=cold.mu)
        assert warm.upper_bound <= cold.upper_bound + 1e-6

    def test_paper_step_rule_also_converges(self, tiny_problem):
        result = solve_primal_dual(
            tiny_problem, max_iter=400, gap_tol=1e-3, step="paper", alpha=0.05
        )
        exact = solve_exhaustive(tiny_problem)
        assert result.upper_bound <= exact.cost.total * 1.05 + 1e-6

    def test_ub_patience_stops_early(self, small_scenario):
        result = solve_primal_dual(
            small_scenario.problem(), max_iter=200, gap_tol=0.0, ub_patience=3
        )
        assert result.iterations < 200

    def test_zero_beta_no_time_coupling(self, rng):
        """With beta = 0 the optimum is slot-separable; gap closes fast."""
        net = single_cell_network(
            num_items=4, cache_size=2, bandwidth=2.0, replacement_cost=0.0,
            omega_bs=rng.uniform(0.1, 1.0, 3),
        )
        demand = paper_demand(3, 3, 4, rng=rng, density_range=(0.5, 3.0))
        prob = JointProblem(net, demand.rates)
        result = solve_primal_dual(prob, max_iter=300, gap_tol=1e-5)
        exact = solve_exhaustive(prob)
        assert result.upper_bound == pytest.approx(exact.cost.total, rel=1e-3)

    def test_parameter_validation(self, tiny_problem):
        with pytest.raises(ConfigurationError):
            solve_primal_dual(tiny_problem, max_iter=0)
        with pytest.raises(ConfigurationError):
            solve_primal_dual(tiny_problem, polyak_relax=5.0)
        with pytest.raises(ConfigurationError):
            solve_primal_dual(tiny_problem, mu0=np.zeros((1, 1, 1)))
        with pytest.raises(ConfigurationError):
            solve_primal_dual(tiny_problem, caching_backend="lp")

    def test_integral_caches_always(self, small_scenario):
        result = solve_primal_dual(small_scenario.problem(), max_iter=30)
        assert set(np.unique(result.x)) <= {0.0, 1.0}


class TestExhaustive:
    def test_refuses_oversized_instances(self, rng):
        net = single_cell_network(
            num_items=10, cache_size=5, bandwidth=3.0, replacement_cost=1.0,
            omega_bs=[0.5],
        )
        demand = paper_demand(10, 1, 10, rng=rng)
        with pytest.raises(ConfigurationError):
            solve_exhaustive(JointProblem(net, demand.rates))

    def test_trivial_instance(self, rng):
        net = single_cell_network(
            num_items=2, cache_size=1, bandwidth=10.0, replacement_cost=0.0,
            omega_bs=[1.0],
        )
        demand = np.zeros((1, 1, 2))
        demand[0, 0, 0] = 2.0
        result = solve_exhaustive(JointProblem(net, demand))
        # Cache item 0, serve everything locally: cost 0.
        assert result.cost.total == pytest.approx(0.0)
        assert result.x[0, 0, 0] == 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_primal_dual_never_beats_exhaustive(seed: int):
    """Property: UB >= exact optimum >= LB on random tiny instances."""
    rng = np.random.default_rng(seed)
    net = single_cell_network(
        num_items=3,
        cache_size=1,
        bandwidth=float(rng.uniform(0.5, 3.0)),
        replacement_cost=float(rng.uniform(0.0, 4.0)),
        omega_bs=rng.uniform(0.0, 1.0, 2),
    )
    demand = paper_demand(2, 2, 3, rng=rng, density_range=(0.0, 4.0))
    prob = JointProblem(net, demand.rates)
    exact = solve_exhaustive(prob)
    result = solve_primal_dual(prob, max_iter=200, gap_tol=1e-6)
    assert result.upper_bound >= exact.cost.total - 1e-7
    assert result.lower_bound <= exact.cost.total + 1e-7
