"""Shared machinery for the online controllers.

Every controller repeatedly solves a ``w``-slot window of the joint problem
(Eq. 26, via Algorithm 1 — Theorem 2 shows the integer window problem keeps
the continuous competitive ratio). :class:`OnlineSolveSettings` bundles the
inner-solver knobs, and :func:`solve_window` applies them with warm-started
multipliers, which is what keeps a 100-slot receding-horizon run fast: the
window shifts by one slot, so the previous window's multipliers (shifted by
one slot) are an excellent starting point.

When the scenario carries a fault schedule (:mod:`repro.faults`), windows
are planned against the *effective* network observed at the decision slot —
the persistence assumption: the currently-observed degradation is assumed
to last through the window. The installed caches handed to the window
problem are already evicted-to-fit by the physical system (controllers
track them with :func:`repro.faults.realize_slot`), and a previous window's
trajectory can seed the solve as a warm feasible candidate. The degraded
network and the eviction are gated on faults being active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from repro.core.primal_dual import PrimalDualResult, solve_primal_dual
from repro.faults.degrade import (
    degraded_network,
    evict_trajectory_to_fit,
    sbs_item_values,
)
from repro.obs.recorder import inc, slot_scope
from repro.perf.solvecache import SolveCache
from repro.scenario import Scenario
from repro.types import FloatArray


@dataclass(frozen=True)
class OnlineSolveSettings:
    """Inner-solver configuration for per-window Algorithm 1 runs.

    Parameters
    ----------
    max_iter:
        Subgradient iteration cap per window (smaller than the offline
        default — windows are small and warm-started).
    gap_tol:
        Relative duality-gap target per window.
    ub_patience:
        Stop a window solve early once the best feasible candidate has not
        improved for this many iterations — the committed trajectory is
        the feasible candidate, so chasing the dual certificate further
        buys nothing online.
    max_seconds:
        Anytime wall-time cap per window solve; the committed trajectory is
        then the best feasible one found so far. ``None`` (default) means
        uncapped. Keeps a degraded or surge-stressed slot from stalling
        the rest of the horizon.
    """

    max_iter: int = 40
    gap_tol: float = 1e-3
    ub_patience: int | None = 8
    max_seconds: float | None = None


class ColdKey(NamedTuple):
    """A first window: solved from ``scenario.x_initial``, nothing warm."""

    decided_at: int
    window_start: int
    window: int
    settings: OnlineSolveSettings


ColdResults = Mapping[ColdKey, PrimalDualResult]


def solve_window(
    scenario: Scenario,
    decided_at: int,
    window_start: int,
    window: int,
    x_prev: FloatArray,
    settings: OnlineSolveSettings,
    mu_warm: FloatArray | None,
    x_warm: FloatArray | None = None,
    solve_cache: SolveCache | None = None,
) -> PrimalDualResult:
    """Solve one prediction window with Algorithm 1.

    ``decided_at`` is the slot at which the forecast is issued (it differs
    from ``window_start`` only for the negatively-anchored first solves of
    FHC variants). Slots before 0 or past the trace see zero demand, per
    the paper's convention.

    ``x_warm`` — a previous window's caching trajectory, shifted to this
    window's slots — seeds Algorithm 1 as a feasible incumbent and a
    pre-warmed repair-cache entry (cross-window reuse). Under an active
    fault schedule the window problem is built on the degraded network
    observed at ``decided_at`` and the seed is first evicted-to-fit the
    effective capacities (warm restart from the last feasible point).
    ``solve_cache`` carries the ``P1`` memo across the caller's whole
    window sequence.
    """
    predicted = scenario.predictor.predict_window(
        max(decided_at, 0), window_start, window
    )
    faults = scenario.faults
    network = None
    candidates: tuple[FloatArray, ...] | None = None
    if faults is not None and not faults.is_empty:
        state = faults.state_at(max(decided_at, 0), scenario.network)
        network = degraded_network(scenario.network, state)
        if x_warm is not None and x_warm.shape[0] == window:
            caps_t = np.broadcast_to(
                state.cache_sizes, (window, scenario.network.num_sbs)
            )
            values_t = np.stack(
                [sbs_item_values(scenario.network, predicted[t]) for t in range(window)]
            )
            candidates = (evict_trajectory_to_fit(x_warm, caps_t, values_t),)
    elif x_warm is not None and x_warm.shape[0] == window:
        candidates = (x_warm,)
    problem = scenario.window_problem(predicted, x_prev, network=network)
    mu0 = None
    if mu_warm is not None and mu_warm.shape == (window, *predicted.shape[1:]):
        mu0 = mu_warm
    inc("window_solves")
    if mu0 is not None:
        inc("window_solves_warm_started")
    if candidates is not None:
        inc("window_solves_candidate_seeded")
    # Stamp the deciding slot onto every event the inner solver emits
    # (solve_done, budget_exhausted), so traces tie each solve to its slot.
    with slot_scope(max(window_start, 0)):
        return solve_primal_dual(
            problem,
            max_iter=settings.max_iter,
            gap_tol=settings.gap_tol,
            mu0=mu0,
            ub_patience=settings.ub_patience,
            initial_candidates=candidates,
            max_seconds=settings.max_seconds,
            solve_cache=solve_cache,
        )


def record_cache_stats(cache: SolveCache, controller: str) -> None:
    """Report a plan's :class:`SolveCache` counters, labeled per controller.

    The unlabeled ``p1_memo_*`` counters accumulate
    per-call inside ``solve_caching``; these labeled totals additionally
    attribute the reuse to the controller whose plan owned the cache (the
    benchmark report reads them per policy).
    """
    labels = {"controller": controller}
    if cache.hits:
        inc("p1_memo_hits", cache.hits, labels=labels)
    if cache.misses:
        inc("p1_memo_misses", cache.misses, labels=labels)


def shift_mu(mu: FloatArray, shift: int) -> FloatArray:
    """Shift multipliers ``shift`` slots earlier, padding the tail.

    Used to warm-start the next window: slot ``t`` of the new window
    corresponds to slot ``t + shift`` of the previous one; the final
    ``shift`` slots reuse the last available multiplier as a prior. Works
    on any per-slot trajectory — the controllers also apply it to caching
    trajectories when seeding warm candidates under faults.
    """
    if shift <= 0:
        return mu.copy()
    T = mu.shape[0]
    out = np.empty_like(mu)
    if shift >= T:
        out[:] = mu[-1]
        return out
    out[: T - shift] = mu[shift:]
    out[T - shift :] = mu[-1]
    return out
