"""Tests for the local-search polish on caching trajectories."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.polish as polish_module
from repro.core.exhaustive import solve_exhaustive
from repro.core.load_balancing import solve_y_given_x
from repro.core.polish import polish_caching
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.network.topology import single_cell_network
from repro.obs import Recorder, record_into
from repro.workload.demand import paper_demand


class TestPolish:
    def test_never_worse(self, small_scenario, rng):
        prob = small_scenario.problem()
        x0 = np.zeros(prob.x_shape)
        for t in range(prob.horizon):
            x0[t, 0, rng.choice(8, 3, replace=False)] = 1.0
        before = prob.cost(x0, solve_y_given_x(prob, x0).y)
        x, y, after = polish_caching(prob, x0)
        assert after.total <= before.total + 1e-9
        prob.check_feasible(x, y)

    def test_fixes_obviously_bad_cache(self, rng):
        net = single_cell_network(
            num_items=4, cache_size=1, bandwidth=5.0, replacement_cost=0.5,
            omega_bs=[1.0],
        )
        demand = np.zeros((2, 1, 4))
        demand[:, 0, 0] = 3.0  # all demand on item 0
        prob = JointProblem(net, demand)
        x0 = np.zeros((2, 1, 4))
        x0[:, 0, 3] = 1.0  # caching a dead item
        x, _y, cost = polish_caching(prob, x0)
        np.testing.assert_allclose(x[:, 0, 0], 1.0)

    def test_reaches_exhaustive_optimum_on_tiny(self, rng):
        for _ in range(3):
            net = single_cell_network(
                num_items=3, cache_size=1, bandwidth=2.0,
                replacement_cost=float(rng.uniform(0, 2)),
                omega_bs=rng.uniform(0.2, 1.0, 2),
            )
            demand = paper_demand(3, 2, 3, rng=rng, density_range=(0.5, 3.0))
            prob = JointProblem(net, demand.rates)
            exact = solve_exhaustive(prob)
            # Polish from the empty trajectory with several passes.
            x, _y, cost = polish_caching(
                prob, np.zeros(prob.x_shape), max_passes=6
            )
            # Local search need not reach the global optimum, but on these
            # tiny instances with independent items it typically does; at
            # minimum it must stay feasible and not exceed the no-cache cost.
            empty_cost = prob.cost(
                np.zeros(prob.x_shape),
                solve_y_given_x(prob, np.zeros(prob.x_shape)).y,
            )
            assert cost.total <= empty_cost.total + 1e-9
            assert cost.total >= exact.cost.total - 1e-9

    def test_respects_capacity(self, small_scenario):
        prob = small_scenario.problem()
        x, _y, _cost = polish_caching(prob, np.zeros(prob.x_shape))
        assert np.all(x.sum(axis=2) <= prob.network.cache_sizes[None, :])

    def test_validation(self, small_scenario):
        prob = small_scenario.problem()
        with pytest.raises(ConfigurationError):
            polish_caching(prob, np.zeros(prob.x_shape), max_passes=0)
        with pytest.raises(ConfigurationError):
            polish_caching(prob, np.zeros((1, 1, 1)))

    def test_idempotent_at_local_optimum(self, small_scenario):
        prob = small_scenario.problem()
        x1, _, c1 = polish_caching(prob, np.zeros(prob.x_shape), max_passes=8)
        x2, _, c2 = polish_caching(prob, x1, max_passes=2)
        assert c2.total == pytest.approx(c1.total, abs=1e-9)
        np.testing.assert_allclose(x2, x1)


def _multi_cell(seed: int, N: int, beta: float):
    """``N`` SBSs with 2-4 classes each and a random feasible start ``x``
    (some cells below capacity, so inserts are scored too)."""
    rng = np.random.default_rng(seed)
    K, T = 7, 4
    owners = rng.permutation(np.repeat(np.arange(N), rng.integers(2, 5, N)))
    classes = tuple(
        MUClass(m, int(n), float(rng.uniform(0.1, 1.0)))
        for m, n in enumerate(owners)
    )
    caps = rng.integers(1, 4, N)
    net = Network(
        ContentCatalog(K),
        tuple(
            SmallBaseStation(n, int(caps[n]), float(rng.uniform(1.0, 6.0)), beta)
            for n in range(N)
        ),
        classes,
    )
    demand = paper_demand(T, len(classes), K, rng=rng, density_range=(0.0, 4.0))
    x = np.zeros((T, N, K))
    for t in range(T):
        for n in range(N):
            x[t, n, rng.choice(K, int(rng.integers(0, caps[n] + 1)), replace=False)] = 1
    return JointProblem(net, demand.rates), x


class TestFastPathMatchesOracle:
    def test_array_scan_equals_per_move_oracle(self, monkeypatch):
        """The array scan applies the same moves as the per-move oracle:
        identical ``x``, ``y`` and cost bytes, on N = 1, 2, 3 at beta in
        {0, 0.5, 5}."""
        applied = 0.0
        for N in (1, 2, 3):
            for beta in (0.0, 0.5, 5.0):
                for seed in (1, 2):
                    prob, x0 = _multi_cell(100 * N + seed, N, beta)
                    runs = []
                    for fast in (True, False):
                        with monkeypatch.context() as patch:
                            if not fast:
                                patch.setattr(
                                    polish_module, "_uses_fast_path", lambda p: False
                                )
                            recorder = Recorder()
                            with record_into(recorder):
                                out = polish_caching(prob, x0)
                        runs.append((out, recorder.metrics))
                    (fx, fy, fc), fast_metrics = runs[0]
                    (ox, oy, oc), oracle_metrics = runs[1]
                    assert fx.tobytes() == ox.tobytes()
                    assert fy.tobytes() == oy.tobytes()
                    for field in ("bs_cost", "sbs_cost", "replacement"):
                        assert np.float64(getattr(fc, field)).tobytes() == (
                            np.float64(getattr(oc, field)).tobytes()
                        )
                    assert fc.replacements == oc.replacements
                    for name in ("polish_moves_scored", "polish_moves_applied"):
                        assert fast_metrics.counter(name) == oracle_metrics.counter(
                            name
                        )
                    assert fast_metrics.counter("polish_moves_scored") > 0
                    applied += fast_metrics.counter("polish_moves_applied")
        assert applied > 0


class TestSeededPrimalDual:
    def test_candidates_bound_the_result(self, small_scenario, rng):
        from repro.core.primal_dual import solve_primal_dual

        prob = small_scenario.problem()
        candidate = np.zeros(prob.x_shape)
        candidate[:, 0, :3] = 1.0
        cand_cost = prob.cost(
            candidate, solve_y_given_x(prob, candidate).y
        ).total
        result = solve_primal_dual(
            prob, max_iter=3, initial_candidates=(candidate,)
        )
        assert result.upper_bound <= cand_cost + 1e-9

    def test_bad_candidate_shape_rejected(self, small_scenario):
        from repro.core.primal_dual import solve_primal_dual

        prob = small_scenario.problem()
        with pytest.raises(ConfigurationError):
            solve_primal_dual(
                prob, max_iter=2, initial_candidates=(np.zeros((1, 1, 1)),)
            )

    def test_offline_never_loses_to_lrfu_or_static(self, rng):
        from repro.baselines import LRFU, StaticTopK
        from repro.core.offline import OfflineOptimal
        from repro.sim.runner import run_policies
        from repro.sim.experiment import paper_scenario

        scenario = paper_scenario(
            seed=8, horizon=10, num_items=8, num_classes=6,
            cache_size=2, bandwidth=6.0, beta=5.0,
        )
        results = run_policies(
            scenario, [OfflineOptimal(max_iter=40), LRFU(), StaticTopK()]
        )
        off = results["Offline"].cost.total
        assert off <= results["LRFU"].cost.total + 1e-9
        assert off <= results["StaticTopK"].cost.total + 1e-9
