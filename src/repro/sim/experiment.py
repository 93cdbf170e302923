"""The paper's evaluation scenarios and parameter sweeps (Section V).

:func:`paper_scenario` builds the Section V-B setting: one SBS, ``K = 30``
contents, cache size 5, bandwidth 30, 30 MU classes with ``omega ~ U[0,1]``
and ``omega-hat = 0``, Zipf-Mandelbrot demand (``alpha = 0.8``, ``q = 30``)
with per-class density ``U[0, 100]``, ``T = 100`` slots, ``beta = 100``,
prediction window ``w = 10``, noise ``eta = 0.1``.

The sweep functions regenerate the paper's figures:

=========================  =========================================
Figure                     Function
=========================  =========================================
Fig. 2 (a-d), beta sweep   :func:`beta_sweep`
Fig. 3 (a-b), window       :func:`window_sweep`
Fig. 4 (a-b), bandwidth    :func:`bandwidth_sweep`
Fig. 5, prediction noise   :func:`noise_sweep`
Sec. V-C(1) headline       :func:`headline_comparison`
=========================  =========================================

Each returns a :class:`SweepResult` holding, per sweep value and policy,
the aggregated metrics (mean over the requested seeds).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.baselines.lrfu import LRFU
from repro.config import RuntimeConfig
from repro.core.offline import OfflineOptimal
from repro.core.online.base import OnlineSolveSettings
from repro.core.online.chc import AFHC, CHC
from repro.core.online.rhc import RHC
from repro.exceptions import ConfigurationError
from repro.network.topology import single_cell_network
from repro.obs.recorder import current_recorder
from repro.perf.executor import Executor, map_recorded, resolve_executor
from repro.scenario import CachingPolicy, Scenario
from repro.sim.engine import EvaluationMode, RunResult
from repro.sim.runner import _run_policy_task, _stable_names, shared_cold_windows
from repro.workload.demand import paper_demand
from repro.workload.predictor import PerturbedPredictor

logger = logging.getLogger("repro.sim.experiment")

#: Metrics recorded per (sweep value, policy); keys of the metric dicts.
METRICS = (
    "total",
    "bs_cost",
    "sbs_cost",
    "replacement",
    "replacements",
    "solves",
    "wall_time",
)


def paper_scenario(
    *,
    seed: int = 1,
    horizon: int = 100,
    num_items: int = 30,
    num_classes: int = 30,
    cache_size: int = 5,
    bandwidth: float = 30.0,
    beta: float = 100.0,
    eta: float = 0.1,
    zipf_alpha: float = 0.8,
    zipf_shift: float = 30.0,
    density_range: tuple[float, float] = (0.0, 4.0),
    per_class_preference: bool = True,
    density_mode: str = "random_walk",
    density_jitter: float = 0.3,
    density_step: float = 0.08,
    noise_mode: str = "frozen",
) -> Scenario:
    """The Section V-B evaluation scenario (single SBS).

    All parameters default to the paper's values except the per-class
    request density, which is calibrated to ``U[0, 4]`` instead of the
    stated ``U[0, 100]``: with ``U[0, 100]`` the offered load is ~50x the
    SBS bandwidth, making the replacement cost a ~1e-4 fraction of the
    operating cost — a regime in which none of the paper's Figure 2-5
    dynamics can materialize. ``U[0, 4]`` puts the mean offered load at
    ~2x the bandwidth, the moderately overloaded regime the figures imply
    (see DESIGN.md, "Substitutions"). Pass ``density_range=(0, 100)`` to
    run the literal setting.
    """
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 1.0, size=num_classes)
    network = single_cell_network(
        num_items=num_items,
        cache_size=cache_size,
        bandwidth=bandwidth,
        replacement_cost=beta,
        omega_bs=omega,
        omega_sbs=0.0,
    )
    demand = paper_demand(
        horizon,
        num_classes,
        num_items,
        rng=rng,
        alpha=zipf_alpha,
        shift=zipf_shift,
        density_range=density_range,
        per_class_preference=per_class_preference,
        density_mode=density_mode,
        density_jitter=density_jitter,
        density_step=density_step,
    )
    predictor = PerturbedPredictor(
        demand, eta=eta, seed=seed + 10_000, mode=noise_mode  # type: ignore[arg-type]
    )
    return Scenario(network=network, demand=demand, predictor=predictor)


def default_policies(
    *,
    window: int = 10,
    commitment: int | None = None,
    include_offline: bool = True,
    include_lrfu: bool = True,
    offline_max_iter: int = 200,
    settings: OnlineSolveSettings | None = None,
) -> list[CachingPolicy]:
    """The paper's comparison set: Offline, RHC, CHC, AFHC, LRFU.

    ``commitment`` defaults to ``w/2`` (rounded up) for CHC.
    """
    settings = settings or OnlineSolveSettings()
    r = commitment if commitment is not None else max(1, window // 2)
    policies: list[CachingPolicy] = []
    if include_offline:
        policies.append(OfflineOptimal(max_iter=offline_max_iter))
    policies.append(RHC(window=window, settings=settings))
    policies.append(CHC(window=window, commitment=r, settings=settings))
    policies.append(AFHC(window=window, settings=settings))
    if include_lrfu:
        policies.append(LRFU())
    return policies


# --------------------------------------------------------------------- sweep

@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics at one sweep value.

    ``metrics[policy_name][metric]`` is the mean over seeds; metric keys
    are listed in :data:`METRICS`.
    """

    value: float
    metrics: Mapping[str, Mapping[str, float]]


@dataclass(frozen=True)
class SweepResult:
    """A full parameter sweep: one :class:`SweepPoint` per value."""

    parameter: str
    points: tuple[SweepPoint, ...]

    @property
    def values(self) -> list[float]:
        return [p.value for p in self.points]

    @property
    def policies(self) -> list[str]:
        return list(self.points[0].metrics.keys()) if self.points else []

    def series(self, metric: str, policy: str) -> list[float]:
        """The metric's curve over the sweep for one policy."""
        if metric not in METRICS:
            raise ConfigurationError(f"unknown metric {metric!r}; pick from {METRICS}")
        return [float(p.metrics[policy][metric]) for p in self.points]

    def table(self, metric: str) -> dict[str, list[float]]:
        """All policies' curves for one metric."""
        return {policy: self.series(metric, policy) for policy in self.policies}


def _metrics_of(result: RunResult) -> dict[str, float]:
    return {
        "total": result.cost.total,
        "bs_cost": result.cost.bs_cost,
        "sbs_cost": result.cost.sbs_cost,
        "replacement": result.cost.replacement,
        "replacements": float(result.cost.replacements),
        "solves": float(result.solves),
        "wall_time": result.wall_time,
    }


def _aggregate(per_seed: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    policies = per_seed[0].keys()
    return {
        name: {
            metric: float(np.mean([seed_run[name][metric] for seed_run in per_seed]))
            for metric in METRICS
        }
        for name in policies
    }


def _run_sweep(
    parameter: str,
    values: Sequence[float],
    scenario_for: Callable[[float, int], Scenario],
    policies_for: Callable[[float], Iterable[CachingPolicy]],
    *,
    seeds: Sequence[int],
    mode: EvaluationMode,
    verbose: bool,
    invariant: frozenset[str] = frozenset(),
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
) -> SweepResult:
    """Shared sweep loop.

    ``invariant`` names policies whose outcome does not depend on the swept
    parameter (e.g. Offline and LRFU ignore the prediction window and the
    noise level); they are evaluated once per seed and reused.

    The ``(value, seed, policy)`` grid is flattened into independent tasks
    and run through the executor layer, with scenarios built up-front in
    the parent process (with the cold windows each point's policies share)
    so process pools only ship picklable data. The reduction follows grid
    order, so the aggregated metrics are identical to a serial run
    regardless of the executor (``wall_time`` excepted — it is a
    measurement, not a model output).
    """
    # Per value, per seed: the point's (policy name, task index) layout.
    layouts: list[list[list[tuple[str, int]]]] = []
    tasks: list[tuple] = []
    labels: list[str] = []
    invariant_task: dict[tuple[int, str], int] = {}
    for value in values:
        seed_layout: list[list[tuple[str, int]]] = []
        for seed in seeds:
            scenario = scenario_for(value, seed)
            entry: list[tuple[str, int]] = []
            fresh: list[CachingPolicy] = []
            for policy in policies_for(value):
                key = (seed, policy.name)
                idx = invariant_task.get(key) if policy.name in invariant else None
                if idx is None:
                    idx = len(tasks) + len(fresh)
                    fresh.append(policy)
                    labels.append(f"{parameter}={value:g} seed={seed}")
                    if policy.name in invariant:
                        invariant_task[key] = idx
                entry.append((policy.name, idx))
            colds = shared_cold_windows(scenario, fresh)
            tasks += [(scenario, p, mode, c) for p, c in zip(fresh, colds)]
            seed_layout.append(entry)
        layouts.append(seed_layout)

    ex = resolve_executor(executor, config=config)
    recorder = current_recorder()
    if recorder is not None:
        # Recorded sweeps use the recorded fan-out on every backend so the
        # trace is executor-invariant (see repro.perf.executor.map_recorded).
        outcomes = map_recorded(ex, _run_policy_task, tasks, recorder)
    elif ex.workers > 1 and len(tasks) > 1:
        outcomes = ex.map(_run_policy_task, tasks)
    else:
        outcomes = [_run_policy_task(task) for task in tasks]
    if verbose:
        for label, result in zip(labels, outcomes):
            logger.info(
                "[%s] %-16s total=%12.1f  (%.2fs)",
                label,
                result.policy,
                result.cost.total,
                result.wall_time,
            )

    points = []
    for value, seed_layout in zip(values, layouts):
        per_seed = [
            {name: _metrics_of(outcomes[idx]) for name, idx in entry}
            for entry in seed_layout
        ]
        points.append(SweepPoint(value=float(value), metrics=_aggregate(per_seed)))
    return SweepResult(parameter=parameter, points=tuple(points))


# ----------------------------------------------------------- paper's figures

def beta_sweep(
    betas: Sequence[float] = (0.0, 25.0, 50.0, 75.0, 100.0, 150.0, 200.0),
    *,
    seeds: Sequence[int] = (1,),
    window: int = 10,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    **scenario_kwargs: object,
) -> SweepResult:
    """Fig. 2: impact of the cache replacement cost ``beta``.

    Panels (a)-(d) are the ``total`` / ``replacement`` / ``replacements`` /
    ``bs_cost`` metrics of the returned sweep.
    """
    def scenario_for(beta: float, seed: int) -> Scenario:
        return paper_scenario(seed=seed, beta=beta, **scenario_kwargs)  # type: ignore[arg-type]

    return _run_sweep(
        "beta",
        betas,
        scenario_for,
        lambda _v: default_policies(window=window),
        seeds=seeds,
        mode=mode,
        verbose=verbose,
        executor=executor,
        config=config,
    )


def window_sweep(
    windows: Sequence[int] = (2, 4, 6, 8, 10, 12),
    *,
    seeds: Sequence[int] = (1,),
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    **scenario_kwargs: object,
) -> SweepResult:
    """Fig. 3: impact of the prediction window ``w`` on the online algorithms."""
    def scenario_for(_w: float, seed: int) -> Scenario:
        return paper_scenario(seed=seed, **scenario_kwargs)  # type: ignore[arg-type]

    return _run_sweep(
        "window",
        [float(w) for w in windows],
        scenario_for,
        lambda w: _stable_names(default_policies(window=int(w))),
        seeds=seeds,
        mode=mode,
        verbose=verbose,
        invariant=frozenset({"Offline", "LRFU"}),
        executor=executor,
        config=config,
    )


def bandwidth_sweep(
    bandwidths: Sequence[float] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    *,
    seeds: Sequence[int] = (1,),
    window: int = 10,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    **scenario_kwargs: object,
) -> SweepResult:
    """Fig. 4: impact of the SBS bandwidth capacity ``B``."""
    def scenario_for(bandwidth: float, seed: int) -> Scenario:
        return paper_scenario(seed=seed, bandwidth=bandwidth, **scenario_kwargs)  # type: ignore[arg-type]

    return _run_sweep(
        "bandwidth",
        bandwidths,
        scenario_for,
        lambda _v: default_policies(window=window),
        seeds=seeds,
        mode=mode,
        verbose=verbose,
        executor=executor,
        config=config,
    )


def noise_sweep(
    etas: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    *,
    seeds: Sequence[int] = (1,),
    window: int = 10,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    **scenario_kwargs: object,
) -> SweepResult:
    """Fig. 5: impact of the prediction perturbation ``eta``.

    LRFU and the offline optimum see noise-free information (Section V-B),
    so only the online algorithms' curves move.
    """
    def scenario_for(eta: float, seed: int) -> Scenario:
        return paper_scenario(seed=seed, eta=eta, **scenario_kwargs)  # type: ignore[arg-type]

    return _run_sweep(
        "eta",
        etas,
        scenario_for,
        lambda _v: default_policies(window=window),
        seeds=seeds,
        mode=mode,
        verbose=verbose,
        invariant=frozenset({"Offline", "LRFU"}),
        executor=executor,
        config=config,
    )


def headline_comparison(
    *,
    beta: float = 50.0,
    seeds: Sequence[int] = (1,),
    window: int = 10,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    **scenario_kwargs: object,
) -> SweepResult:
    """Section V-C(1): the single-point comparison at ``beta = 50``.

    The paper reports RHC/CHC/AFHC saving 27%/20%/17% versus LRFU and cost
    ratios to offline of 1.02/1.08/1.11/1.30.
    """
    return beta_sweep(
        (beta,),
        seeds=seeds,
        window=window,
        mode=mode,
        verbose=verbose,
        executor=executor,
        config=config,
        **scenario_kwargs,
    )
