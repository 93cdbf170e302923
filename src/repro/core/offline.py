"""The offline optimal policy (Section III).

Runs Algorithm 1 over the entire horizon with the *true* demand — the
paper's "unrealistic lower bound" baseline that every online algorithm is
compared against in Section V.

Two engineering additions harden the primal recovery (the dual bounds are
unaffected):

- **incumbent seeding**: the per-slot volume-top-C (LRFU) and static
  horizon-top-C trajectories are evaluated up-front, so the returned
  solution provably never loses to those heuristics;
- **local-search polish** (:mod:`repro.core.polish`): single-item
  swap/insert/evict moves on the best trajectory, closing the small primal
  gaps a subgradient method can leave on weakly coupled instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.polish import polish_caching
from repro.core.primal_dual import PrimalDualResult, solve_primal_dual
from repro.core.problem import JointProblem
from repro.scenario import PolicyPlan, Scenario
from repro.types import DEFAULT_GAP_TOL, FloatArray


def _volume_top_c(problem: JointProblem, *, static: bool) -> FloatArray:
    """Heuristic trajectory: cache the top-``C_n`` items by demand volume.

    ``static=True`` ranks by horizon-total volume (one cache for all
    slots); ``static=False`` re-ranks every slot (the LRFU trajectory).
    """
    net = problem.network
    T = problem.horizon
    x = np.zeros(problem.x_shape)
    for n in range(net.num_sbs):
        classes = net.classes_of_sbs[n]
        cap = int(net.cache_sizes[n])
        if cap == 0:
            continue
        volume = problem.demand[:, classes, :].sum(axis=1)  # (T, K)
        if static:
            score = np.broadcast_to(volume.sum(axis=0), (T, net.num_items))
        else:
            score = volume
        top = np.argsort(-score, axis=1, kind="stable")[:, :cap]
        # One scatter for all slots: keep only the positive-volume picks.
        positive = np.take_along_axis(score, top, axis=1) > 0
        tt, jj = np.nonzero(positive)
        x[tt, n, top[tt, jj]] = 1.0
    return x


@dataclass(frozen=True)
class OfflineOptimal:
    """Offline optimal solution via the primal-dual algorithm.

    Parameters
    ----------
    max_iter:
        Outer subgradient iteration cap.
    gap_tol:
        Relative duality-gap tolerance (paper's ``epsilon = 1e-4``).
    ub_patience:
        Optional early stop when the feasible cost stops improving; set to
        ``None`` when a tight dual certificate is the point of the run.
    polish:
        Apply the local-search polish to the final trajectory.
    seed_candidates:
        Seed the search with the LRFU and static top-C trajectories.
    """

    max_iter: int = 200
    gap_tol: float = DEFAULT_GAP_TOL
    ub_patience: int | None = 25
    polish: bool = True
    seed_candidates: bool = True

    @property
    def name(self) -> str:
        return "Offline"

    def plan(self, scenario: Scenario) -> PolicyPlan:
        result = self.solve(scenario)
        return PolicyPlan(x=result.x, y=result.y, solves=result.iterations)

    def solve(self, scenario: Scenario) -> PrimalDualResult:
        """Run Algorithm 1 (plus seeding/polish) and return the full result."""
        problem = scenario.problem()
        candidates: tuple[FloatArray, ...] | None = None
        if self.seed_candidates:
            candidates = (
                _volume_top_c(problem, static=False),
                _volume_top_c(problem, static=True),
            )
        result = solve_primal_dual(
            problem,
            max_iter=self.max_iter,
            gap_tol=self.gap_tol,
            ub_patience=self.ub_patience,
            initial_candidates=candidates,
        )
        if not self.polish:
            return result
        x, y, cost = polish_caching(problem, result.x)
        if cost.total >= result.cost.total - 1e-12:
            return result
        denom = max(abs(cost.total), 1e-12)
        return replace(
            result,
            x=x,
            y=y,
            cost=cost,
            gap=(cost.total - result.lower_bound) / denom,
        )
