"""Run policies on scenarios and collect results.

Policy evaluations on one scenario are independent of each other, so
:func:`run_policies` can fan them out through the shared executor layer
(:mod:`repro.perf.executor`). Results are reduced in the order the
policies were given, bit-identical to a serial run.

Result dicts are keyed by policy name. Duplicate names (two ``RHC``
instances with different windows, say) would silently collapse into one
entry, so :func:`run_policies` de-duplicates them up front with the same
renaming adapter the sweeps use — ``RHC``, ``RHC#2``, ``RHC#3`` — and keys
the serial and parallel branches identically. Cold windows two or more
policies open with are solved once, before the fan-out (DESIGN.md §4).
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from repro.config import RuntimeConfig
from repro.core.online.base import ColdKey, ColdResults, solve_window
from repro.obs.recorder import current_recorder, inc, label_scope
from repro.perf.solvecache import SolveCache
from repro.perf.executor import Executor, map_recorded, resolve_executor
from repro.scenario import CachingPolicy, PolicyPlan, Scenario
from repro.sim.engine import EvaluationMode, RunResult, evaluate_plan

logger = logging.getLogger("repro.sim.runner")


@dataclass(frozen=True)
class _RenamedPolicy:
    """Present a policy under a stable display name.

    Sweeps that vary a policy parameter (e.g. the window ``w``) embed the
    parameter in the default names, which would make series keys differ
    across sweep points; this adapter pins the key. :func:`run_policies`
    also uses it to de-duplicate colliding names.
    """

    inner: CachingPolicy
    display: str

    @property
    def name(self) -> str:
        return self.display

    def cold_windows(self, scenario: Scenario) -> tuple[ColdKey, ...]:
        return getattr(self.inner, "cold_windows", lambda _: ())(scenario)

    def plan(self, scenario: Scenario, **cold: Any) -> PolicyPlan:
        return self.inner.plan(scenario, **cold)


def shared_cold_windows(
    scenario: Scenario, policies: list[CachingPolicy]
) -> list[ColdResults | None]:
    """Per policy, read-only results of its cold windows another one shares."""
    declared = [getattr(p, "cold_windows", lambda _: ())(scenario) for p in policies]
    counts = Counter(key for keys in declared for key in keys)
    shared = [key for key, n in counts.items() if n > 1]
    results, cache = {}, SolveCache()
    with label_scope(policy="shared"):
        for key in shared:
            result = solve_window(
                scenario, key.decided_at, key.window_start, key.window,
                scenario.x_initial, key.settings, None, solve_cache=cache,
            )
            for array in (result.x, result.y, result.mu):
                array.flags.writeable = False  # plans copy what they keep
            results[key] = result
    colds = [{k: results[k] for k in keys if k in results} or None for keys in declared]
    if shared:
        inc("window_solves_shared", sum(len(c) for c in colds if c))
    return colds


def _stable_names(policies: Iterable[CachingPolicy]) -> list[CachingPolicy]:
    """Strip parameter suffixes: ``RHC(w=10)`` -> ``RHC`` etc."""
    return [
        _RenamedPolicy(p, p.name.split("(")[0]) if "(" in p.name else p
        for p in policies
    ]


def _unique_names(policies: list[CachingPolicy]) -> list[CachingPolicy]:
    """Suffix repeated display names (``LRFU``, ``LRFU#2``, ...).

    Keeps every policy's result addressable — without this, a results dict
    keyed by name silently drops all but the last duplicate.
    """
    counts: dict[str, int] = {}
    out: list[CachingPolicy] = []
    for policy in policies:
        n = counts.get(policy.name, 0) + 1
        counts[policy.name] = n
        out.append(
            policy if n == 1 else _RenamedPolicy(policy, f"{policy.name}#{n}")
        )
    return out


def run_policy(
    scenario: Scenario,
    policy: CachingPolicy,
    *,
    mode: EvaluationMode = "reoptimize",
) -> RunResult:
    """Plan with ``policy`` and score it against the scenario's true demand.

    The returned result carries the wall-clock seconds the plan + scoring
    took (``RunResult.wall_time``), measured where the work actually ran —
    inside the worker when executed through a parallel executor.
    """
    return _run_policy_task((scenario, policy, mode, None))


def _run_policy_task(
    task: tuple[Scenario, CachingPolicy, EvaluationMode, ColdResults | None],
) -> RunResult:
    """Module-level task wrapper so process executors can pickle it."""
    scenario, policy, mode, cold = task
    started = time.perf_counter()
    with label_scope(policy=policy.name):
        plan = policy.plan(scenario, cold=cold) if cold else policy.plan(scenario)
        result = evaluate_plan(
            scenario, plan, policy_name=policy.name, mode=mode
        )
    return replace(result, wall_time=time.perf_counter() - started)


def run_policies(
    scenario: Scenario,
    policies: Iterable[CachingPolicy],
    *,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
) -> dict[str, RunResult]:
    """Run several policies on the same scenario; keyed by policy name.

    With an ``executor`` (or a :class:`repro.config.RuntimeConfig`) the
    policies run in parallel. The result dict is always in input-policy
    order and always has one entry per policy: colliding names are
    suffixed (``LRFU``, ``LRFU#2``) instead of silently dropping results.
    """
    policy_list = _unique_names(list(policies))
    ex = resolve_executor(executor, config=config)
    recorder = current_recorder()
    colds = shared_cold_windows(scenario, policy_list)
    tasks = [(scenario, p, mode, c) for p, c in zip(policy_list, colds)]
    if recorder is not None:
        # Recorded runs use the recorded fan-out on EVERY backend, serial
        # included: each task collects into a fresh recorder merged back in
        # input order, so the trace bytes are executor-invariant.
        outcomes = map_recorded(ex, _run_policy_task, tasks, recorder)
    elif ex.workers > 1 and len(policy_list) > 1:
        outcomes = ex.map(_run_policy_task, tasks)
    else:
        outcomes = [_run_policy_task(task) for task in tasks]
    results = {p.name: r for p, r in zip(policy_list, outcomes)}
    if verbose:
        for result in results.values():
            logger.info(
                "  %-16s total=%12.1f  (%.2fs)",
                result.policy,
                result.cost.total,
                result.wall_time,
            )
    return results


def cost_ratios(
    results: Mapping[str, RunResult], *, reference: str = "Offline"
) -> dict[str, float]:
    """Total-cost ratios of every policy to a reference policy.

    The paper's Section V-C reports these as "cost ratio to offline".
    """
    if reference not in results:
        raise KeyError(f"reference policy {reference!r} not in results")
    base = results[reference].cost.total
    if base <= 0:
        return {name: float("nan") for name in results}
    return {name: r.cost.total / base for name, r in results.items()}
