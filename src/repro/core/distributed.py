"""Distributed (per-SBS) solving — the paper's future-work direction.

The conclusion of the paper announces "distributed algorithms" as future
work. For the cost model of Section II the joint problem is *exactly*
separable across SBSs: each SBS owns its cache variables, its MU classes'
load-balancing variables, its capacity/bandwidth constraints, and its own
additive share of every cost term (Eqs. 5, 6, 8 all sum per SBS). Each SBS
can therefore run Algorithm 1 on its local subproblem with no coordination
at all, and the concatenation of the local solutions solves the global
problem.

This module implements that decomposition: :func:`split_by_sbs` carves a
joint problem into single-SBS problems, :func:`solve_distributed` solves
them independently (as independent SBS controllers would) and merges the
results, and :class:`DistributedOfflineOptimal` wraps it as a policy. The
test suite asserts the merge matches the joint solve — turning the
separability claim into executable proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.primal_dual import PrimalDualResult, solve_primal_dual
from repro.core.problem import JointProblem
from repro.network.costs import CostBreakdown
from repro.network.topology import Network
from repro.perf.executor import Executor, resolve_executor
from repro.scenario import PolicyPlan, Scenario
from repro.types import DEFAULT_GAP_TOL, FloatArray, IntArray


def split_by_sbs(problem: JointProblem) -> list[tuple[JointProblem, IntArray]]:
    """Split a joint problem into independent single-SBS problems.

    Returns one ``(sub_problem, class_indices)`` pair per SBS, where
    ``class_indices`` maps the sub-problem's class axis back into the joint
    problem's.
    """
    net = problem.network
    out: list[tuple[JointProblem, IntArray]] = []
    for n in range(net.num_sbs):
        classes = net.classes_of_sbs[n]
        sub_network = _single_sbs_network(net, n)
        sub = JointProblem(
            network=sub_network,
            demand=problem.demand[:, classes, :],
            x_initial=problem.x_initial[n : n + 1],
            bs_cost=problem.bs_cost,
            sbs_cost=problem.sbs_cost,
        )
        out.append((sub, classes))
    return out


def _single_sbs_network(network: Network, n: int) -> Network:
    """A one-SBS network containing SBS ``n`` and its classes, re-indexed."""
    from repro.network.stations import SmallBaseStation
    from repro.network.users import MUClass

    sbs = network.sbss[n]
    classes = network.classes_of_sbs[n]
    return Network(
        catalog=network.catalog,
        sbss=(
            SmallBaseStation(
                0, sbs.cache_size, sbs.bandwidth, sbs.replacement_cost
            ),
        ),
        mu_classes=tuple(
            MUClass(i, 0, network.mu_classes[m].omega_bs, network.mu_classes[m].omega_sbs)
            for i, m in enumerate(classes)
        ),
        bs=network.bs,
    )


@dataclass(frozen=True)
class DistributedResult:
    """Merged outcome of the independent per-SBS solves.

    Attributes mirror :class:`~repro.core.primal_dual.PrimalDualResult`
    where meaningful; ``per_sbs`` holds the local results.
    """

    x: FloatArray
    y: FloatArray
    cost: CostBreakdown
    lower_bound: float
    gap: float
    per_sbs: tuple[PrimalDualResult, ...]

    @property
    def upper_bound(self) -> float:
        return self.cost.total


def _solve_sbs_subproblem(
    task: tuple[JointProblem, int, float, int | None],
) -> PrimalDualResult:
    """One SBS controller's local Algorithm 1 run (picklable task)."""
    sub, max_iter, gap_tol, ub_patience = task
    return solve_primal_dual(
        sub, max_iter=max_iter, gap_tol=gap_tol, ub_patience=ub_patience
    )


def solve_distributed(
    problem: JointProblem,
    *,
    max_iter: int = 150,
    gap_tol: float = DEFAULT_GAP_TOL,
    ub_patience: int | None = 25,
    executor: Executor | str | None = None,
) -> DistributedResult:
    """Solve each SBS's subproblem independently and merge.

    Every SBS runs Algorithm 1 locally; nothing is exchanged. The merged
    bounds are sums of the local bounds (valid because the objective and
    constraints are separable). With a parallel ``executor`` (e.g.
    ``"process:4"``) the independent controllers run concurrently — they
    would run on separate machines in a real deployment — and the merge
    happens in fixed SBS order, so the result is bit-identical to the
    serial path.
    """
    net = problem.network
    x = np.zeros(problem.x_shape)
    y = np.zeros(problem.y_shape)
    total_cost = CostBreakdown.zero()
    lower = 0.0
    parts = split_by_sbs(problem)
    tasks = [(sub, max_iter, gap_tol, ub_patience) for sub, _ in parts]
    ex = resolve_executor(executor)
    if ex.workers > 1 and len(tasks) > 1:
        locals_ = ex.map(_solve_sbs_subproblem, tasks)
    else:
        locals_ = [_solve_sbs_subproblem(task) for task in tasks]
    for n, (result, (_, classes)) in enumerate(zip(locals_, parts)):
        x[:, n, :] = result.x[:, 0, :]
        y[:, classes, :] = result.y
        total_cost = total_cost + result.cost
        lower += result.lower_bound
    gap = (total_cost.total - lower) / max(abs(total_cost.total), 1e-12)
    return DistributedResult(
        x=x,
        y=y,
        cost=total_cost,
        lower_bound=lower,
        gap=gap,
        per_sbs=tuple(locals_),
    )


@dataclass(frozen=True)
class DistributedOfflineOptimal:
    """Offline optimum computed by independent per-SBS controllers.

    ``executor`` is a spec string (e.g. ``"process:4"``) rather than an
    :class:`~repro.perf.Executor` instance so the policy stays picklable
    for sweep-level fan-out.
    """

    max_iter: int = 150
    gap_tol: float = DEFAULT_GAP_TOL
    ub_patience: int | None = 25
    executor: str | None = None

    @property
    def name(self) -> str:
        return "DistributedOffline"

    def plan(self, scenario: Scenario) -> PolicyPlan:
        result = solve_distributed(
            scenario.problem(),
            max_iter=self.max_iter,
            gap_tol=self.gap_tol,
            ub_patience=self.ub_patience,
            executor=self.executor,
        )
        return PolicyPlan(x=result.x, y=result.y, solves=len(result.per_sbs))
