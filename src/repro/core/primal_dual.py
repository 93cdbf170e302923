"""Algorithm 1 — primal-dual decomposition for the joint problem.

The coupling constraint ``y <= x`` (Eq. 3) is relaxed with multipliers
``mu[t, m, k] >= 0`` (Eq. 12). Each outer iteration:

1. solves the caching subproblem ``P1`` (integral, Theorem 1),
2. solves the load-balancing subproblem ``P2`` (strictly convex),
3. updates ``mu`` along the subgradient ``y - x`` (Eq. 17),
4. maintains a certified *lower bound* (the dual value ``P1 + P2``) and a
   feasible *upper bound* (the cost of ``P1``'s caches with the exact
   fixed-cache ``y`` — the repair that makes the primal candidate feasible),

and stops at relative gap ``epsilon`` (the paper uses ``1e-4``) or the
iteration cap — exactly the structure of the paper's Algorithm 1.

Step sizes
----------
The paper's Eq. 16 rule ``delta_l = 1 / (1 + alpha l)`` is dimensionless;
because ``mu`` has the units of marginal cost (hundreds to thousands in the
paper's scenario), the rule is kept but scaled by a unit-correcting factor
measured on the first iteration. The default is the Polyak step
``delta_l = (UB_best - d_l) / ||g_l||^2``, which needs no tuning and
certifies the same bounds; both are available via ``step``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Mapping

import numpy as np

from repro.core.caching_lp import solve_caching
from repro.core.load_balancing import solve_p2, solve_y_given_x
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.network.costs import CostBreakdown
from repro.obs.convergence import ConvergenceTrace
from repro.obs.recorder import emit, observe_quantile
from repro.optim.budget import SolveBudget
from repro.optim.subgradient import dual_ascent_recorder
from repro.perf.solvecache import SolveCache
from repro.perf.timers import StageTimers
from repro.types import DEFAULT_GAP_TOL, FloatArray

StepMode = Literal["polyak", "paper"]


@dataclass(frozen=True)
class PrimalDualResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    x:
        Best feasible integral caching trajectory found, shape ``(T, N, K)``.
    y:
        The exact optimal load balancing for ``x``, shape ``(T, M, K)``.
    cost:
        Itemized cost of ``(x, y)`` — the certified upper bound.
    lower_bound:
        Best dual value (a certified lower bound on the optimum).
    gap:
        Relative duality gap ``(UB - LB) / |UB|`` at termination.
    iterations:
        Outer (subgradient) iterations performed.
    converged:
        Whether the gap tolerance was met.
    mu:
        Final multipliers (useful for warm-starting subsequent windows).
    history:
        Per-iteration ``(lower_bound, upper_bound)`` pairs.
    timings:
        Wall-clock seconds per solver stage (``p1``, ``p2``, ``repair``,
        ``total``), from :class:`repro.perf.timers.StageTimers`.
    stopped_by_budget:
        Whether an anytime budget (``max_seconds``) ended the loop before
        convergence; ``(x, y)`` is then the best *feasible* pair found so
        far and the bounds/gap are still certified.
    convergence:
        Per-iteration :class:`repro.obs.convergence.ConvergenceTrace` with
        columns ``gap``, ``lower_bound``, ``upper_bound``, ``step``,
        ``subgrad_norm`` — the dual-ascent diagnostics the paper plots.
    """

    x: FloatArray
    y: FloatArray
    cost: CostBreakdown
    lower_bound: float
    gap: float
    iterations: int
    converged: bool
    mu: FloatArray
    history: tuple[tuple[float, float], ...]
    timings: Mapping[str, float] = field(default_factory=dict)
    stopped_by_budget: bool = False
    convergence: ConvergenceTrace | None = None

    @property
    def upper_bound(self) -> float:
        return self.cost.total


def solve_primal_dual(
    problem: JointProblem,
    *,
    max_iter: int = 150,
    gap_tol: float = DEFAULT_GAP_TOL,
    step: StepMode = "polyak",
    alpha: float = 0.05,
    polyak_relax: float = 1.0,
    caching_backend: str = "flow",
    mu0: FloatArray | None = None,
    ub_patience: int | None = None,
    initial_candidates: tuple[FloatArray, ...] | None = None,
    max_seconds: float | None = None,
    solve_cache: SolveCache | None = None,
) -> PrimalDualResult:
    """Run Algorithm 1 on ``problem``.

    Parameters
    ----------
    max_iter:
        Cap on outer subgradient iterations (the paper's ``L``).
    gap_tol:
        Relative duality-gap stopping tolerance (the paper's ``epsilon``).
    step:
        ``"polyak"`` (default) or ``"paper"`` (Eq. 16 with measured scale).
    alpha:
        Decay parameter of the paper's step rule.
    polyak_relax:
        Relaxation factor ``theta`` in the Polyak step.
    caching_backend:
        Must be ``"flow"``, the one ``P1`` path
        (:func:`repro.core.caching_lp.solve_caching`); kept so callers that
        name it keep working. Any other value raises
        :class:`repro.exceptions.ConfigurationError`.
    mu0:
        Warm-start multipliers, e.g. from the previous receding-horizon
        window; dramatically cuts iterations for consecutive solves.
    ub_patience:
        Optional early stop: end when the best feasible cost has not
        improved for this many iterations. Used by the online controllers,
        where the feasible trajectory (not the dual certificate) is what
        gets committed.
    initial_candidates:
        Optional heuristic caching trajectories (shape ``(T, N, K)``,
        integral, capacity-feasible) evaluated up-front as incumbent upper
        bounds. Guarantees the returned solution is at least as good as
        every supplied candidate.
    max_seconds:
        Anytime wall-time cap. Checked after each completed outer
        iteration, so at least one feasible ``(x, y)`` pair always exists
        when the cap fires; the result then carries
        ``stopped_by_budget=True``. The same clock is shared with the
        FISTA fallback inside ``P2`` so a single slow subproblem cannot
        blow through the cap.
    solve_cache:
        Incremental re-solve state (:class:`repro.perf.solvecache.SolveCache`)
        shared with related solves — the online controllers pass one cache
        across their whole window sequence. When omitted, a private
        per-call cache is created so within-solve reuse still applies. The
        memo makes the *stall re-anchor* and the *best-dual recovery* step
        free: when the loop stops without converging, the caching
        trajectory at the best dual point is re-derived from the memo and
        evaluated as one extra feasible candidate.
    """
    if max_iter <= 0:
        raise ConfigurationError(f"max_iter must be positive, got {max_iter}")
    if not 0 < polyak_relax <= 2:
        raise ConfigurationError(f"polyak_relax must be in (0, 2], got {polyak_relax}")
    if caching_backend != "flow":
        raise ConfigurationError(
            f"caching_backend must be 'flow', got {caching_backend!r}"
        )

    if mu0 is not None and not np.isfinite(mu0).all():
        raise ConfigurationError("mu0 must be finite")

    sbs_of = problem.network.class_sbs
    mu = np.zeros(problem.y_shape) if mu0 is None else np.maximum(mu0, 0.0)
    if mu.shape != problem.y_shape:
        raise ConfigurationError(f"mu0 shape {mu.shape} != {problem.y_shape}")
    if solve_cache is None:
        solve_cache = SolveCache()
    timers = StageTimers()
    solve_started = time.perf_counter()
    budget = SolveBudget(max_seconds=max_seconds) if max_seconds is not None else None
    stopped_by_budget = False
    stopped_by_patience = False

    lower_bound = -np.inf
    best_cost: CostBreakdown | None = None
    best_x: FloatArray | None = None
    best_y: FloatArray | None = None
    history: list[tuple[float, float]] = []
    paper_scale: float | None = None
    y_warm: FloatArray | None = None
    gap = np.inf
    iterations = 0
    converged = False
    relax = polyak_relax
    since_lb_improved = 0
    since_ub_improved = 0
    repair_cache: dict[bytes, tuple[FloatArray, CostBreakdown]] = {}
    convergence = dual_ascent_recorder()

    for candidate_x in initial_candidates or ():
        cx = np.where(np.asarray(candidate_x, dtype=np.float64) > 0.5, 1.0, 0.0)
        if cx.shape != problem.x_shape:
            raise ConfigurationError(
                f"candidate shape {cx.shape} != {problem.x_shape}"
            )
        with timers.stage("repair"):
            cy = solve_y_given_x(problem, cx).y
        c_cost = problem.cost(cx, cy)
        repair_cache[cx.tobytes()] = (cy, c_cost)
        if best_cost is None or c_cost.total < best_cost.total:
            best_cost, best_x, best_y = c_cost, cx, cy

    mu_best: FloatArray | None = None
    mu_solved: FloatArray | None = None
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        mu_solved = mu
        reanchor = False
        with timers.stage("p1"):
            caching = solve_caching(
                problem.network, mu, problem.x_initial, cache=solve_cache
            )
        with timers.stage("p2"):
            balancing = solve_p2(problem, mu, y0=y_warm, budget=budget)
        y_warm = balancing.y
        dual_value = caching.objective + balancing.objective
        # At the -inf sentinel the relative-improvement margin is nan
        # (-inf + 1e-12*inf), which compares False against everything and
        # would pin the bound at -inf forever; accept any finite dual first.
        if not np.isfinite(lower_bound) or dual_value > lower_bound + 1e-12 * max(
            1.0, abs(lower_bound)
        ):
            lower_bound = dual_value
            # The subgradient update rebinds ``mu`` to a fresh array, so
            # aliasing (no copy) is safe here.
            mu_best = mu
            since_lb_improved = 0
        else:
            since_lb_improved += 1
            # The Polyak step overshoots when the dual stalls; relax it.
            if since_lb_improved >= 5:
                relax = max(relax * 0.5, 0.05)
                since_lb_improved = 0
                # Also re-anchor the ascent at the best dual point seen:
                # the gradient step is skipped this iteration, so the next
                # one re-solves ``mu_best`` byte-identically — ``P1`` comes
                # straight from the memo — and the relaxed ascent continues
                # from the best point instead of wherever the overshoot
                # drifted.
                if mu_best is not None and mu_best is not mu:
                    mu = mu_best
                    reanchor = True

        # Feasible repair: keep P1's caches, re-solve y exactly under them.
        # P1 often revisits the same caches as mu oscillates, so repairs
        # are memoized on the cache trajectory.
        x_key = caching.x.tobytes()
        cached = repair_cache.get(x_key)
        if cached is None:
            with timers.stage("repair"):
                repaired_y = solve_y_given_x(problem, caching.x).y
            candidate = problem.cost(caching.x, repaired_y)
            repair_cache[x_key] = (repaired_y, candidate)
        else:
            repaired_y, candidate = cached
        if best_cost is None or candidate.total < best_cost.total - 1e-12:
            best_cost = candidate
            best_x = caching.x
            best_y = repaired_y
            since_ub_improved = 0
        else:
            since_ub_improved += 1

        history.append((lower_bound, best_cost.total))
        denom = max(abs(best_cost.total), 1e-12)
        gap = (best_cost.total - lower_bound) / denom

        subgrad = balancing.y - caching.x[:, sbs_of, :]
        norm_sq = float(np.sum(subgrad**2))
        delta = 0.0
        stop = False
        if gap <= gap_tol:
            converged = True
            stop = True
        elif ub_patience is not None and since_ub_improved >= ub_patience:
            stopped_by_patience = True
            stop = True
        elif budget is not None and budget.exhausted(iteration):
            stopped_by_budget = True
            stop = True
        elif norm_sq <= 1e-18:
            # y <= x already satisfied everywhere: the candidate is optimal
            # for the current mu and the repair certified it.
            converged = gap <= gap_tol
            stop = True
        elif reanchor:
            pass  # mu was rebound to mu_best above; re-solve it next
        else:
            surplus = max(best_cost.total - dual_value, 0.0)
            if step == "polyak":
                delta = relax * surplus / norm_sq
            elif step == "paper":
                if paper_scale is None:
                    paper_scale = surplus / norm_sq if surplus > 0 else 1.0
                delta = paper_scale / (1.0 + alpha * iteration)
            else:
                raise ConfigurationError(f"unknown step mode {step!r}")
            mu = np.maximum(mu + delta * subgrad, 0.0)
        convergence.record(
            lower_bound=lower_bound,
            upper_bound=best_cost.total,
            gap=gap,
            step=delta,
            subgrad_norm=float(np.sqrt(norm_sq)),
        )
        if stop:
            break

    assert best_cost is not None and best_x is not None and best_y is not None

    # Best-dual recovery: a loop that stopped without converging (patience
    # or iteration cap) last solved ``P1`` at a *worse* dual point than the
    # best one seen. Re-deriving the caching trajectory at ``mu_best`` is
    # free with the memo (its per-SBS subproblems were solved when the best
    # dual was recorded) and evaluating it can only improve the committed
    # feasible candidate — the classic primal-recovery-at-best-dual step.
    if (
        not converged
        and not stopped_by_budget
        and mu_best is not None
        and mu_solved is not None
        and mu_best is not mu_solved
        and mu_best.tobytes() != mu_solved.tobytes()
    ):
        with timers.stage("p1"):
            recovered = solve_caching(
                problem.network, mu_best, problem.x_initial, cache=solve_cache
            )
        x_key = recovered.x.tobytes()
        cached = repair_cache.get(x_key)
        if cached is None:
            with timers.stage("repair"):
                repaired_y = solve_y_given_x(problem, recovered.x).y
            candidate = problem.cost(recovered.x, repaired_y)
            repair_cache[x_key] = (repaired_y, candidate)
        else:
            repaired_y, candidate = cached
        if candidate.total < best_cost.total - 1e-12:
            best_cost, best_x, best_y = candidate, recovered.x, repaired_y
            gap = (best_cost.total - lower_bound) / max(abs(best_cost.total), 1e-12)
            converged = gap <= gap_tol

    timers.add("total", time.perf_counter() - solve_started)
    timings = timers.as_dict()
    emit(
        "solve_done",
        iterations=iterations,
        gap=float(gap),
        lower_bound=float(lower_bound),
        upper_bound=float(best_cost.total),
        converged=converged,
        stopped_by_budget=stopped_by_budget,
        stopped_by_patience=stopped_by_patience,
    )
    # Streaming sketches over *deterministic* solve outcomes only (never
    # wall-clock), so merged registries stay byte-identical across
    # executors (tests/test_obs_traces.py).
    observe_quantile("solve_gap", float(gap))
    observe_quantile("solve_iterations", float(iterations))
    if stopped_by_budget:
        emit(
            "budget_exhausted",
            iterations=iterations,
            max_seconds=max_seconds,
        )
    return PrimalDualResult(
        x=best_x,
        y=best_y,
        cost=best_cost,
        lower_bound=lower_bound,
        gap=gap,
        iterations=iterations,
        converged=converged,
        mu=mu,
        history=tuple(history),
        timings=timings,
        stopped_by_budget=stopped_by_budget,
        convergence=convergence.freeze(),
    )
