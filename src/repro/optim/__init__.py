"""From-scratch optimization substrate.

The paper's algorithms need three numerical workhorses, all implemented
here without external solver dependencies:

- projected-gradient machinery for the strictly convex load-balancing
  subproblem ``P2`` (:mod:`~repro.optim.projection`, :mod:`~repro.optim.fista`),
- linear programming for the totally unimodular caching subproblem ``P1``
  (:mod:`~repro.optim.simplex` — the paper's stated method — behind the
  general-form interface of :mod:`~repro.optim.linprog`, and an
  equivalent min-cost-flow solver in :mod:`~repro.optim.mincostflow`),
- dual subgradient ascent for Algorithm 1's outer loop
  (:mod:`~repro.optim.subgradient`).

Both iterative loops accept an anytime :class:`~repro.optim.budget.SolveBudget`
(wall-time / iteration caps with best-feasible-iterate fallback), which the
fault-degradation path uses to guarantee a degraded slot never stalls the
horizon.

:mod:`~repro.optim.tum` provides the total-unimodularity utilities behind
Theorem 1, and :mod:`~repro.optim.knapsack` the exact greedy solver for the
load-balancing problem once the cache is fixed.
"""

from repro.optim.budget import SolveBudget
from repro.optim.fista import FistaResult, minimize_fista
from repro.optim.knapsack import fractional_knapsack_offload
from repro.optim.linprog import LPResult, solve_lp
from repro.optim.mincostflow import MinCostFlow
from repro.optim.projection import (
    project_box,
    project_capped_simplex,
    project_halfspace_box,
)
from repro.optim.simplex import SimplexResult, solve_simplex
from repro.optim.subgradient import StepRule, paper_step_rule, constant_step_rule, sqrt_step_rule
from repro.optim.tum import is_interval_matrix, is_totally_unimodular

__all__ = [
    "FistaResult",
    "LPResult",
    "MinCostFlow",
    "SimplexResult",
    "SolveBudget",
    "StepRule",
    "constant_step_rule",
    "fractional_knapsack_offload",
    "is_interval_matrix",
    "is_totally_unimodular",
    "minimize_fista",
    "paper_step_rule",
    "project_box",
    "project_capped_simplex",
    "project_halfspace_box",
    "solve_lp",
    "solve_simplex",
    "sqrt_step_rule",
]
