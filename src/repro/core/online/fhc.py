"""Fixed Horizon Control — the building block of CHC and AFHC.

FHC variant ``v`` (one of ``r`` phase-shifted copies) re-plans at the times
``Psi_v = {tau : tau = v (mod r)}`` (Section IV-B): at each solve time it
optimizes the ``w``-slot window on predicted demand from *its own* cache
state and commits the first ``r`` actions. Variants are independent
trajectories; CHC averages them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.horizon import committed_slots, fhc_solve_times
from repro.core.online.base import ColdKey, ColdResults
from repro.core.online.base import OnlineSolveSettings, shift_mu, solve_window
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_slot, scenario_states
from repro.obs.recorder import inc
from repro.perf.solvecache import SolveCache
from repro.scenario import Scenario
from repro.types import FloatArray


@dataclass(frozen=True)
class FixedHorizonTrajectory:
    """One FHC variant's full trajectory over the horizon.

    Attributes
    ----------
    x, y:
        The variant's committed actions, shapes ``(T, N, K)`` / ``(T, M, K)``.
    solves:
        Number of window optimizations performed.
    """

    x: FloatArray
    y: FloatArray
    solves: int


def run_fhc_variant(
    scenario: Scenario,
    *,
    variant: int,
    window: int,
    commitment: int,
    settings: OnlineSolveSettings,
    solve_cache: SolveCache | None = None,
    cold: ColdResults | None = None,
) -> FixedHorizonTrajectory:
    """Run FHC variant ``v`` with window ``w`` and commitment level ``r``.

    ``solve_cache`` shares incremental re-solve state with the caller (CHC
    passes one cache across all its variants); when omitted, a per-variant
    cache is created. ``cold`` may hold the pre-solved cold first window.
    """
    if not 1 <= commitment <= window:
        raise ConfigurationError(
            f"commitment must be in [1, window={window}], got {commitment}"
        )
    T = scenario.horizon
    net = scenario.network
    x = np.zeros((T, net.num_sbs, net.num_items))
    y = np.zeros((T, net.num_classes, net.num_items))
    x_prev = scenario.x_initial
    mu_warm = None
    x_warm = None
    solves = 0
    faulted = scenario.faults is not None and not scenario.faults.is_empty
    states = scenario_states(scenario) if faulted else None
    if solve_cache is None:
        solve_cache = SolveCache()
    times = fhc_solve_times(variant, commitment, T)
    key = ColdKey(times[0], times[0], window, settings)
    for tau in times:
        result = cold.get(key) if cold and tau == times[0] else None
        if result is None:
            result = solve_window(
                scenario,
                decided_at=tau,
                window_start=tau,
                window=window,
                x_prev=x_prev,
                settings=settings,
                mu_warm=mu_warm,
                x_warm=x_warm,
                solve_cache=solve_cache,
            )
        solves += 1
        slots = committed_slots(tau, commitment, T)
        inc(
            "controller_commits",
            len(slots),
            labels={"controller": "FHC", "variant": variant},
        )
        for t in slots:
            x[t] = result.x[t - tau]
            y[t] = result.y[t - tau]
        if faulted:
            # Roll the committed block through the physical repairs so the
            # next solve starts from the caches actually installed.
            for t in slots:
                x_prev = realize_slot(
                    x[t], x_prev, states.slot(t), scenario.demand.rates[t], net
                )
        elif len(slots):
            x_prev = x[slots[-1]]
        # Cross-window reuse: this window's trajectory, shifted past the
        # committed block, seeds the variant's next solve.
        x_warm = shift_mu(result.x, commitment)
        mu_warm = shift_mu(result.mu, commitment)
    return FixedHorizonTrajectory(x=x, y=y, solves=solves)
