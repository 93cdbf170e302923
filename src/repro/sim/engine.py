"""Realized-cost evaluation of policy plans.

All policies — offline, online, baselines — are scored here against the
*true* demand trace, with the same machinery, so comparisons are apples to
apples. Two evaluation modes:

- ``"reoptimize"`` (default): given the plan's caches, the load balancing
  is re-solved exactly on the true demand (the fixed-cache oracle). This
  scores the *caching* decisions: every policy gets the best feasible
  ``y`` for its caches, which is also how the replacement-count and
  BS-cost figures of the paper are comparable across policies.
- ``"as_decided"``: the plan's own ``y`` (computed from predictions) is
  used after a feasibility repair — masked by the installed caches and
  scaled down proportionally wherever the realized bandwidth usage would
  exceed ``B_n``. This scores caching *and* load-balancing decisions.

When the scenario carries a fault schedule (see :mod:`repro.faults`), the
engine scores plans against the *effective* per-slot network state: planned
caches are rolled forward with the outage-freeze/evict-to-fit repair
(:func:`repro.faults.realize_caching`) so the realized trajectory never
violates a shrunken capacity, and the load balancing is re-solved per
maximal run of slots with identical effective bandwidths — a down SBS
therefore serves nothing, and its traffic falls back to the BS. Both
evaluation modes honor this; the realized ``(x, y)`` in the returned
:class:`RunResult` always satisfies the effective constraints
(:func:`repro.faults.assert_feasible_under_faults` audits exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.core.load_balancing import solve_y_given_x
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_caching, scenario_states
from repro.network.costs import CostBreakdown, slot_costs
from repro.obs.recorder import current_recorder, emit
from repro.scenario import PolicyPlan, Scenario, validate_plan
from repro.types import FloatArray

EvaluationMode = Literal["reoptimize", "as_decided"]


@dataclass(frozen=True)
class RunResult:
    """Realized outcome of one policy on one scenario.

    Attributes
    ----------
    policy:
        Display name of the policy.
    cost:
        Itemized total cost over the horizon.
    per_slot_total:
        Realized total cost per slot, shape ``(T,)`` (for time-series plots).
    per_slot_replacements:
        Cache insertions per slot, shape ``(T,)``.
    x, y:
        The realized trajectories.
    solves:
        Number of optimization solves the policy performed.
    wall_time:
        Wall-clock seconds spent planning + scoring this policy (set by
        :func:`repro.sim.runner.run_policy`; 0 when not measured), without
        the cold windows a comparison shares and solves before its fan-out.
    """

    policy: str
    cost: CostBreakdown
    per_slot_total: FloatArray
    per_slot_replacements: FloatArray
    x: FloatArray
    y: FloatArray
    solves: int
    wall_time: float = 0.0


def evaluate_plan(
    scenario: Scenario,
    plan: PolicyPlan,
    *,
    policy_name: str = "policy",
    mode: EvaluationMode = "reoptimize",
) -> RunResult:
    """Score a plan against the scenario's true demand."""
    if mode not in ("reoptimize", "as_decided"):
        raise ConfigurationError(f"unknown evaluation mode {mode!r}")
    validate_plan(scenario, plan)
    faulted = scenario.faults is not None and not scenario.faults.is_empty
    if faulted:
        states = scenario_states(scenario)
        x = realize_caching(
            plan.x, scenario.x_initial, states, scenario.demand.rates, scenario.network
        )
    else:
        states = None
        x = np.where(plan.x > 0.5, 1.0, 0.0)

    if mode == "as_decided" and plan.y is not None:
        bw = states.bandwidths if states is not None else None
        y = _repair_decided_y(scenario, x, plan.y, bandwidths=bw)
    elif faulted:
        y = _solve_y_under_faults(scenario, x, states)
    else:
        y = solve_y_given_x(scenario.problem(), x).y

    net = scenario.network
    T = scenario.horizon
    slots = slot_costs(
        net,
        scenario.demand.rates,
        y,
        x,
        scenario.x_initial,
        bs_cost=scenario.bs_cost,
        sbs_cost=scenario.sbs_cost,
    )
    per_slot_total = slots.bs_cost + slots.sbs_cost + slots.replacement
    # Telemetry is gated once, not per emit: the per-slot event fields
    # (churn counts, reroute detection) cost numpy work we skip entirely
    # when no recorder is ambient.
    if current_recorder() is not None:
        fault_mask = scenario.faults.active_mask(T) if faulted else None
        for t in range(T):
            prev = x[t - 1] if t else scenario.x_initial
            emit(
                "slot_start",
                slot=t,
                policy=policy_name,
                demand=float(scenario.demand.rates[t].sum()),
            )
            if fault_mask is not None:
                if fault_mask[t] and (t == 0 or not fault_mask[t - 1]):
                    emit("fault_injected", slot=t, policy=policy_name)
                if not fault_mask[t] and t > 0 and fault_mask[t - 1]:
                    emit("fault_cleared", slot=t, policy=policy_name)
            inserted = int(np.sum((x[t] > 0.5) & (prev <= 0.5)))
            evicted = int(np.sum((x[t] <= 0.5) & (prev > 0.5)))
            if inserted:
                emit("cache_insert", slot=t, policy=policy_name, count=inserted)
            if evicted:
                emit("cache_evict", slot=t, policy=policy_name, count=evicted)
            if states is not None:
                down = (states.bandwidths[t] <= 0.0) & (net.bandwidths > 0.0)
                for n in np.flatnonzero(down):
                    rerouted = float(
                        scenario.demand.rates[t][net.class_sbs == n].sum()
                    )
                    emit(
                        "reroute",
                        slot=t,
                        policy=policy_name,
                        sbs=int(n),
                        load=rerouted,
                    )
            emit(
                "slot_end",
                slot=t,
                policy=policy_name,
                total=float(per_slot_total[t]),
                bs=float(slots.bs_cost[t]),
                sbs=float(slots.sbs_cost[t]),
                replacement=float(slots.replacement[t]),
                replacements=int(slots.replacements[t]),
            )

    return RunResult(
        policy=policy_name,
        cost=slots.total(),
        per_slot_total=per_slot_total,
        per_slot_replacements=slots.replacements.astype(np.float64),
        x=x,
        y=y,
        solves=plan.solves,
    )


def _solve_y_under_faults(scenario: Scenario, x: FloatArray, states) -> FloatArray:
    """Fixed-cache oracle under per-slot effective bandwidths.

    The solvers assume one bandwidth vector per problem, so the horizon is
    split into maximal runs of slots with identical effective state (a
    handful for window-shaped fault schedules) and each run is solved on a
    correspondingly degraded network. A down SBS has effective bandwidth 0,
    which forces ``y = 0`` for its classes — the re-route to the BS.
    """
    net = scenario.network
    rates = scenario.demand.rates
    y = np.zeros((scenario.horizon, net.num_classes, net.num_items))
    for lo, hi in states.segments():
        seg_net = net.with_bandwidths([float(b) for b in states.bandwidths[lo]])
        seg_problem = JointProblem(
            network=seg_net,
            demand=rates[lo:hi],
            x_initial=None,
            bs_cost=scenario.bs_cost,
            sbs_cost=scenario.sbs_cost,
        )
        y[lo:hi] = solve_y_given_x(seg_problem, x[lo:hi]).y
    return y


def _repair_decided_y(
    scenario: Scenario,
    x: FloatArray,
    y_decided: FloatArray,
    *,
    bandwidths: FloatArray | None = None,
) -> FloatArray:
    """Make predicted-demand ``y`` feasible under the true demand.

    Masks by installed caches, clips to the unit box, then scales each
    (slot, SBS) block down proportionally if its realized bandwidth usage
    exceeds ``B_n``. Proportional scaling is the minimal projection along
    the ray and never increases the objective relative to any feasible
    scaling, so it does not flatter the online policies.

    ``bandwidths`` overrides the nominal budgets with per-slot effective
    values, shape ``(T, N)`` — the degradation path: a slot whose SBS is
    down has budget 0 there, so its whole block scales to zero.
    """
    net = scenario.network
    budgets = (
        np.broadcast_to(net.bandwidths[None, :], (scenario.horizon, net.num_sbs))
        if bandwidths is None
        else bandwidths
    )
    y = np.clip(y_decided, 0.0, 1.0) * x[:, net.class_sbs, :]
    load = (scenario.demand.rates * y).sum(axis=2)  # (T, M)
    per_sbs = np.zeros((scenario.horizon, net.num_sbs))
    np.add.at(per_sbs, (slice(None), net.class_sbs), load)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(per_sbs > budgets, budgets / per_sbs, 1.0)
    return y * scale[:, net.class_sbs, None]
