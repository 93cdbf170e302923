"""Committed Horizon Control (Algorithm 3) and AFHC, with rounding.

CHC with commitment level ``r`` runs the ``r`` phase-shifted FHC variants
and *averages* their actions (Eqs. 36-37). Averaged caches are generally
fractional, so the paper's rounding policy (Theorem 3) is applied:
threshold the averaged caches at ``rho* = (3 - sqrt(5))/2``, keep ``y``
only where the rounded cache holds the item. AFHC is exactly CHC with
``r = w`` (full-window commitment), provided as its own named policy for
the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.horizon import fhc_solve_times
from repro.core.online.base import ColdKey, ColdResults
from repro.core.online.base import OnlineSolveSettings, record_cache_stats
from repro.core.online.fhc import run_fhc_variant
from repro.core.rounding import (
    optimal_rounding_threshold,
    round_caching,
    round_load_balancing,
)
from repro.exceptions import ConfigurationError
from repro.obs.recorder import inc, label_scope
from repro.perf.solvecache import SolveCache
from repro.scenario import PolicyPlan, Scenario


@dataclass(frozen=True)
class CHC:
    """Committed Horizon Control with window ``w`` and commitment ``r``.

    Parameters
    ----------
    window:
        Prediction window size ``w``.
    commitment:
        Commitment level ``r`` in ``[1, w]`` (paper default in the
        evaluation: ``r = w/2``). ``r = 1`` recovers RHC-like behaviour
        (but still averaged over one variant, i.e. plain RHC); ``r = w``
        is AFHC.
    rho:
        Rounding threshold; ``None`` uses the optimal ``rho*`` of Thm 3.
    settings:
        Inner-solver configuration.
    """

    window: int = 10
    commitment: int = 5
    rho: float | None = None
    settings: OnlineSolveSettings = field(default_factory=OnlineSolveSettings)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")
        if not 1 <= self.commitment <= self.window:
            raise ConfigurationError(
                f"commitment must be in [1, window={self.window}], "
                f"got {self.commitment}"
            )
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must be in (0, 1), got {self.rho}")

    @property
    def name(self) -> str:
        return f"CHC(w={self.window},r={self.commitment})"

    def cold_windows(self, scenario: Scenario) -> tuple[ColdKey, ...]:
        r, T = self.commitment, scenario.horizon
        firsts = (fhc_solve_times(v, r, T)[0] for v in range(r))
        return tuple(ColdKey(t, t, self.window, self.settings) for t in firsts)

    def plan(self, scenario: Scenario, cold: ColdResults | None = None) -> PolicyPlan:
        with label_scope(controller=self.name):
            return self._plan(scenario, cold)

    def _plan(self, scenario: Scenario, cold: ColdResults | None) -> PolicyPlan:
        x_sum = np.zeros(
            (scenario.horizon, scenario.network.num_sbs, scenario.network.num_items)
        )
        y_sum = np.zeros(
            (
                scenario.horizon,
                scenario.network.num_classes,
                scenario.network.num_items,
            )
        )
        solves = 0
        # One cache across all variants: they run sequentially, so sharing
        # stays deterministic, and overlapping variant windows can answer
        # each other's byte-identical P1 subproblems from the memo.
        cache = SolveCache()
        for v in range(self.commitment):
            traj = run_fhc_variant(
                scenario,
                variant=v,
                window=self.window,
                commitment=self.commitment,
                settings=self.settings,
                solve_cache=cache,
                cold=cold,
            )
            x_sum += traj.x
            y_sum += traj.y
            solves += traj.solves
            inc("fhc_variants_run", labels={"controller": self.name})
        record_cache_stats(cache, self.name)
        x_avg = x_sum / self.commitment
        y_avg = y_sum / self.commitment
        rho = self.rho if self.rho is not None else optimal_rounding_threshold()
        x = round_caching(x_avg, scenario.network.cache_sizes, rho=rho)
        y = round_load_balancing(y_avg, x, scenario.network.class_sbs)
        return PolicyPlan(x=x, y=y, solves=solves)


class AFHC(CHC):
    """Averaging Fixed Horizon Control: CHC with full commitment ``r = w``.

    Not re-decorated as a dataclass: it keeps CHC's (frozen) fields but
    pins ``commitment = window`` in its constructor.
    """

    def __init__(
        self,
        window: int = 10,
        rho: float | None = None,
        settings: OnlineSolveSettings | None = None,
    ) -> None:
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "commitment", window)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "settings", settings if settings is not None else OnlineSolveSettings()
        )
        self.__post_init__()

    @property
    def name(self) -> str:
        return f"AFHC(w={self.window})"
