"""Receding Horizon Control (Algorithm 2).

At each slot ``tau`` RHC solves the window ``[tau, tau + w)`` on predicted
demand, starting from the caches actually installed at ``tau - 1``, and
commits only the first slot's actions (Eqs. 32-33). Because the window
problem is solved by Algorithm 1, the committed caches are integral without
rounding, and Theorem 2 carries over the continuous competitive ratio
``1 + O(1/w)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.online.base import (
    ColdKey,
    ColdResults,
    OnlineSolveSettings,
    record_cache_stats,
    shift_mu,
    solve_window,
)
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_slot, scenario_states
from repro.obs.recorder import inc, label_scope
from repro.perf.solvecache import SolveCache
from repro.scenario import PolicyPlan, Scenario


@dataclass(frozen=True)
class RHC:
    """Receding Horizon Control with prediction window ``w``.

    Parameters
    ----------
    window:
        Prediction window size ``w`` (the paper's default is 10).
    settings:
        Inner-solver configuration for the per-window Algorithm 1 runs.
    """

    window: int = 10
    settings: OnlineSolveSettings = field(default_factory=OnlineSolveSettings)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")

    @property
    def name(self) -> str:
        return f"RHC(w={self.window})"

    def cold_windows(self, scenario: Scenario) -> tuple[ColdKey, ...]:
        return (ColdKey(0, 0, self.window, self.settings),)

    def plan(self, scenario: Scenario, cold: ColdResults | None = None) -> PolicyPlan:
        with label_scope(controller=self.name):
            return self._plan(scenario, cold)

    def _plan(self, scenario: Scenario, cold: ColdResults | None) -> PolicyPlan:
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
        cache = SolveCache()
        (key,) = self.cold_windows(scenario)
        for tau in range(T):
            result = cold.get(key) if cold and tau == 0 else None
            if result is None:
                result = solve_window(
                    scenario,
                    decided_at=tau,
                    window_start=tau,
                    window=self.window,
                    x_prev=x_prev,
                    settings=self.settings,
                    mu_warm=mu_warm,
                    x_warm=x_warm,
                    solve_cache=cache,
                )
            solves += 1
            inc("controller_commits", labels={"controller": "RHC"})
            x[tau] = result.x[0]
            y[tau] = result.y[0]
            if faulted:
                # Track the caches actually installed (outage freeze +
                # evict-to-fit) so the next window starts from reality.
                x_prev = realize_slot(
                    x[tau], x_prev, states.slot(tau), scenario.demand.rates[tau], net
                )
            else:
                x_prev = x[tau]
            # Cross-window reuse: the committed trajectory, shifted one
            # slot, seeds the next window as a feasible incumbent.
            x_warm = shift_mu(result.x, 1)
            mu_warm = shift_mu(result.mu, 1)
        record_cache_stats(cache, self.name)
        return PolicyPlan(x=x, y=y, solves=solves)
