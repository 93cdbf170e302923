"""Parallel execution must be bit-identical to serial.

The executor layer's contract (see ``repro.perf.executor``) is that the
thread and process backends change wall-clock time only: every fan-out
site reduces in fixed SBS/point order, so ``x``, ``y`` and every cost
number match the serial run exactly — not approximately. These tests pin
that contract on the two fan-out sites — the per-policy fan-out of
``run_policies`` (online RHC and the offline policy) and the distributed
per-SBS solver — and on one Algorithm 1 solve run inside a worker.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.distributed import solve_distributed
from repro.core.offline import OfflineOptimal
from repro.core.online.base import OnlineSolveSettings
from repro.core.online.rhc import RHC
from repro.core.primal_dual import solve_primal_dual
from repro.perf.executor import resolve_executor
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.config import RuntimeConfig
from repro.scenario import Scenario
from repro.sim.runner import run_policies, run_policy
from repro.workload.demand import paper_demand
from repro.workload.predictor import PerturbedPredictor

PARALLEL_SPECS = ("thread:2", "process:2")


@pytest.fixture(scope="module")
def two_sbs_scenario() -> Scenario:
    rng = np.random.default_rng(42)
    net = Network(
        ContentCatalog(6),
        (
            SmallBaseStation(0, 2, 4.0, 3.0),
            SmallBaseStation(1, 3, 6.0, 8.0),
        ),
        (
            MUClass(0, 0, 0.8),
            MUClass(1, 0, 0.3),
            MUClass(2, 1, 0.9),
            MUClass(3, 1, 0.5),
            MUClass(4, 1, 0.2),
        ),
    )
    demand = paper_demand(8, 5, 6, rng=rng, density_range=(0.0, 3.0))
    predictor = PerturbedPredictor(demand, eta=0.2, seed=7)
    return Scenario(network=net, demand=demand, predictor=predictor)


def _assert_same_run(a, b) -> None:
    """Exact (bitwise) equality of two RunResults, wall time excepted."""
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.cost == b.cost
    assert np.array_equal(a.per_slot_total, b.per_slot_total)
    assert a.solves == b.solves


class TestOfflineDeterminism:
    @pytest.mark.parametrize("spec", PARALLEL_SPECS)
    def test_solve_primal_dual_matches_serial(self, two_sbs_scenario, spec):
        """An Algorithm 1 solve inside a worker (as sweeps run one)
        returns the in-process bits."""
        problem = two_sbs_scenario.problem()
        serial = solve_primal_dual(problem, max_iter=25)
        [parallel] = resolve_executor(spec).map(
            functools.partial(solve_primal_dual, max_iter=25), [problem]
        )
        assert np.array_equal(serial.x, parallel.x)
        assert np.array_equal(serial.y, parallel.y)
        assert serial.cost == parallel.cost
        assert serial.lower_bound == parallel.lower_bound
        assert serial.gap == parallel.gap
        assert serial.iterations == parallel.iterations

    def test_timings_recorded(self, two_sbs_scenario):
        result = solve_primal_dual(two_sbs_scenario.problem(), max_iter=5)
        assert {"p1", "p2", "total"} <= set(result.timings)
        assert result.timings["total"] > 0.0


class TestOnlineDeterminism:
    """Policies fanned out by ``run_policies`` match their serial runs."""

    @pytest.mark.parametrize("spec", PARALLEL_SPECS)
    def test_rhc_matches_serial(self, two_sbs_scenario, spec):
        policy = RHC(
            window=3, settings=OnlineSolveSettings(max_iter=15, ub_patience=5)
        )
        serial = run_policy(two_sbs_scenario, policy)
        parallel = run_policies(
            two_sbs_scenario, [policy, policy], config=RuntimeConfig(executor=spec)
        )
        for result in parallel.values():
            _assert_same_run(serial, result)

    def test_offline_policy_matches_serial(self, two_sbs_scenario):
        policy = OfflineOptimal(max_iter=20)
        serial = run_policy(two_sbs_scenario, policy)
        parallel = run_policies(
            two_sbs_scenario, [policy, policy], config=RuntimeConfig(workers=2)
        )
        for result in parallel.values():
            _assert_same_run(serial, result)


class TestDistributedDeterminism:
    @pytest.mark.parametrize("spec", PARALLEL_SPECS)
    def test_solve_distributed_matches_serial(self, two_sbs_scenario, spec):
        problem = two_sbs_scenario.problem()
        serial = solve_distributed(problem, max_iter=25, executor="serial")
        parallel = solve_distributed(problem, max_iter=25, executor=spec)
        assert np.array_equal(serial.x, parallel.x)
        assert np.array_equal(serial.y, parallel.y)
        assert serial.cost == parallel.cost
        assert serial.lower_bound == parallel.lower_bound
