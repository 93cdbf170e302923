"""Tests for the OfflineOptimal policy wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from p1_oracle import solve_caching_highs
from repro.core.offline import OfflineOptimal
from repro.scenario import validate_plan
from repro.sim.engine import evaluate_plan


class TestOfflineOptimal:
    def test_plan_is_feasible_and_integral(self, small_scenario):
        policy = OfflineOptimal(max_iter=60)
        plan = policy.plan(small_scenario)
        validate_plan(small_scenario, plan)
        assert set(np.unique(plan.x)) <= {0.0, 1.0}
        assert plan.solves > 0

    def test_solve_exposes_bounds(self, small_scenario):
        result = OfflineOptimal(max_iter=60).solve(small_scenario)
        assert result.lower_bound <= result.upper_bound + 1e-9
        assert result.gap >= 0

    def test_name(self):
        assert OfflineOptimal().name == "Offline"

    def test_more_iterations_never_worse(self, small_scenario):
        short = OfflineOptimal(max_iter=5, ub_patience=None).solve(small_scenario)
        long = OfflineOptimal(max_iter=80, ub_patience=None).solve(small_scenario)
        assert long.upper_bound <= short.upper_bound + 1e-9

    def test_lp_backend_equivalent(self, small_scenario, monkeypatch):
        """Algorithm 1 with P1 answered by the HiGHS oracle lands on the
        same plan cost as with the library's own P1 path."""
        flow = OfflineOptimal(max_iter=60).solve(small_scenario)
        monkeypatch.setattr(
            "repro.core.primal_dual.solve_caching", solve_caching_highs
        )
        lp = OfflineOptimal(max_iter=60).solve(small_scenario)
        assert flow.upper_bound == pytest.approx(lp.upper_bound, rel=1e-2)

    def test_evaluation_matches_internal_cost(self, small_scenario):
        policy = OfflineOptimal(max_iter=60)
        result = policy.solve(small_scenario)
        realized = evaluate_plan(
            small_scenario,
            policy.plan(small_scenario),
            policy_name=policy.name,
        )
        # evaluate_plan re-solves y for the same caches on the same demand:
        # identical cost.
        assert realized.cost.total == pytest.approx(result.cost.total, rel=1e-9)
