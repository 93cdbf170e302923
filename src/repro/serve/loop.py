"""The live serving runtime: asyncio request path + background re-solves.

Three tasks cooperate on one event loop:

- a **producer** feeds the request stream through admission control
  (optionally paced to real time at the stream's virtual arrival rate);
- a **consumer** answers each admitted request with a cache-hit/miss and
  a routing decision from the *committed* plan, via a pluggable
  :class:`~repro.serve.routing.RoutingStrategy`;
- a :class:`PlanManager` runs the paper's RHC re-solve chain
  (:func:`~repro.core.online.base.solve_window`) in a background worker
  thread and commits one ``(x_t, y_t)`` plan per slot.

**Plan-swap contract.** Plans change only at slot boundaries, atomically:
every decision inside one slot is made from one committed plan. Under
``queue`` admission the consumer *waits* at the boundary until the slot's
own plan is committed — decisions are then a pure function of the request
stream (``decision.plan_slot == decision.slot`` always, and two same-seed
runs produce byte-identical decision logs). Under ``shed`` admission the
boundary never blocks: the newest committed plan is installed, a stale
plan (solver behind) counts as a *dropped swap*, and overflowing requests
are shed by admission control — bounded latency, at the price of
determinism.

**Determinism discipline.** Everything that affects a decision — plans,
connection counts, releases, strategy state — advances on request
*virtual* arrival times, never the wall clock. Wall-clock time appears
only in latency metrics (decision / swap-wait histograms and the
:class:`ServeReport` percentiles), mirroring the events-vs-metrics split
of :mod:`repro.obs`.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.config import (
    RuntimeConfig,
    resolved_obs_slo,
    resolved_serve_admission,
    resolved_serve_metrics_port,
    resolved_serve_queue_depth,
    resolved_serve_rps,
    resolved_serve_slot_seconds,
)
from repro.core.online.base import (
    OnlineSolveSettings,
    record_cache_stats,
    shift_mu,
    solve_window,
)
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_slot, scenario_states
from repro.network.costs import CostBreakdown
from repro.obs.live import (
    MetricsServer,
    ServeTelemetry,
    SloTracker,
    parse_slo_specs,
)
from repro.obs.recorder import (
    Recorder,
    current_recorder,
    emit,
    inc,
    observe,
    observe_quantile,
    record_into,
    set_gauge,
)
from repro.obs.sketch import WindowedCounter
from repro.perf.solvecache import SolveCache
from repro.scenario import Scenario
from repro.serve.admission import AdmissionQueue
from repro.serve.replay import (
    Decision,
    Request,
    decision_digest,
    open_loop_requests,
)
from repro.serve.routing import (
    RouteContext,
    RoutingStrategy,
    ServerView,
    observe_server_gauges,
    strategy_by_name,
)
from repro.types import FloatArray

#: Solve function override for tests: ``(slot, x_prev) -> (x_slot, y_slot)``.
SolveFn = Callable[[int, FloatArray], tuple[FloatArray, FloatArray]]


@dataclass(frozen=True)
class CommittedPlan:
    """One slot's committed decisions: integral caches and fractional split."""

    slot: int
    x: FloatArray  # (N, K)
    y: FloatArray  # (M, K)


class PlanManager:
    """Background RHC chain: solve window ``[tau, tau+w)``, commit slot ``tau``.

    Mirrors :class:`repro.core.online.rhc.RHC` exactly — same warm-started
    multipliers, same cross-window candidate seeding, same
    :func:`~repro.faults.degrade.realize_slot` cache tracking under a
    fault schedule (the committed ``x`` is the cache *actually installed*,
    which is what the request path must serve from). Solves run in a
    worker thread via the event loop's default executor; commits happen on
    the loop thread, so waiters never race the solver.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        window: int = 10,
        settings: OnlineSolveSettings | None = None,
        solve_fn: SolveFn | None = None,
    ) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.scenario = scenario
        self.window = int(window)
        self.settings = settings if settings is not None else OnlineSolveSettings()
        self.solve_fn = solve_fn
        self.plans: dict[int, CommittedPlan] = {}
        self.timings: dict[int, dict[str, float]] = {}
        self.latest = -1
        self.solves = 0
        self._waiters: dict[int, asyncio.Event] = {}
        self._failure: BaseException | None = None

    def ready(self, slot: int) -> bool:
        """Whether slot ``slot``'s own plan is already committed."""
        return slot in self.plans

    def latest_at(self, slot: int) -> CommittedPlan | None:
        """Newest committed plan usable at ``slot`` (never from the future)."""
        if self.latest < 0:
            return None
        return self.plans[min(slot, self.latest)]

    async def wait_for(self, slot: int) -> CommittedPlan:
        """Block until slot ``slot``'s plan is committed, then return it."""
        if slot not in self.plans:
            if self._failure is not None:
                raise self._failure
            event = self._waiters.setdefault(slot, asyncio.Event())
            await event.wait()
            if slot not in self.plans:
                assert self._failure is not None
                raise self._failure
        return self.plans[slot]

    def _commit(self, slot: int, x: FloatArray, y: FloatArray) -> None:
        plan = CommittedPlan(
            slot=slot,
            x=np.array(x, dtype=np.float64, copy=True),
            y=np.array(y, dtype=np.float64, copy=True),
        )
        self.plans[slot] = plan
        self.latest = slot
        self.solves += 1
        event = self._waiters.pop(slot, None)
        if event is not None:
            event.set()

    def _fail(self, exc: BaseException) -> None:
        self._failure = exc
        for event in self._waiters.values():
            event.set()

    async def run(self, horizon: int) -> None:
        """Solve and commit slots ``0..horizon-1``, then stop."""
        try:
            await self._run(horizon)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            self._fail(exc)
            raise

    @staticmethod
    def _solve_recorded(fn: Callable[[], Any]) -> tuple[Any, Recorder]:
        # The worker thread gets its own recorder; the loop thread merges
        # it after the await — the obs merge discipline (one writer per
        # recorder), same as repro.perf.executor.map_recorded.
        recorder = Recorder()
        with record_into(recorder):
            return fn(), recorder

    async def _run(self, horizon: int) -> None:
        loop = asyncio.get_running_loop()
        scenario = self.scenario
        net = scenario.network
        x_prev = scenario.x_initial
        mu_warm: FloatArray | None = None
        x_warm: FloatArray | None = None
        faulted = scenario.faults is not None and not scenario.faults.is_empty
        states = scenario_states(scenario) if faulted else None
        cache = SolveCache()
        ambient = current_recorder()
        for tau in range(horizon):
            if self.solve_fn is not None:
                x_slot, y_slot = await loop.run_in_executor(
                    None, self.solve_fn, tau, x_prev
                )
                x_prev = np.where(
                    np.asarray(x_slot, dtype=np.float64) > 0.5, 1.0, 0.0
                )
                self._commit(tau, x_prev, np.asarray(y_slot, dtype=np.float64))
                continue
            result, recorder = await loop.run_in_executor(
                None,
                partial(
                    self._solve_recorded,
                    partial(
                        solve_window,
                        scenario,
                        decided_at=tau,
                        window_start=tau,
                        window=self.window,
                        x_prev=x_prev,
                        settings=self.settings,
                        mu_warm=mu_warm,
                        x_warm=x_warm,
                        solve_cache=cache,
                    ),
                ),
            )
            if ambient is not None:
                ambient.merge(recorder)
            # Stage timers of the solve that produced this plan; attached
            # to the plan_swap event when the consumer installs it.
            self.timings[tau] = {
                str(k): float(v) for k, v in result.timings.items()
            }
            x_slot = result.x[0]
            y_slot = result.y[0]
            if faulted:
                assert states is not None
                x_prev = realize_slot(
                    x_slot, x_prev, states.slot(tau), scenario.demand.rates[tau], net
                )
                # Serve from the caches actually installed, not the plan.
                x_slot = x_prev
            else:
                x_prev = x_slot
            x_warm = shift_mu(result.x, 1)
            mu_warm = shift_mu(result.mu, 1)
            self._commit(tau, x_slot, y_slot)
        record_cache_stats(cache, "serve")


@dataclass(frozen=True)
class ServeReport:
    """Outcome of one serve run (see :func:`serve_requests`).

    Latency fields are wall-clock percentiles (seconds); everything else
    is a deterministic function of the request stream under ``queue``
    admission. ``decisions`` carries the full ordered decision log and
    ``digest`` its sha256 fingerprint (:func:`~repro.serve.replay.decision_digest`).
    """

    strategy: str
    admission: str
    queue_depth: int
    slot_seconds: float
    paced: bool
    requests_total: int
    decided: int
    shed: int
    hits: int
    sbs_served: int
    bs_served: int
    spills: int
    slots_served: int
    plan_swaps: int
    plan_swaps_late: int
    plan_swaps_dropped: int
    solves: int
    offered_rps: float
    sustained_rps: float
    wall_seconds: float
    decision_mean_seconds: float
    decision_p50_seconds: float
    decision_p95_seconds: float
    decision_p99_seconds: float
    swap_wait_p99_seconds: float
    swap_wait_max_seconds: float
    slo_alerts: int
    sbs_utilization: tuple[float, ...]
    cost: CostBreakdown
    digest: str
    decisions: tuple[Decision, ...]

    @property
    def hit_rate(self) -> float:
        return self.hits / max(self.decided, 1)

    @property
    def offload_ratio(self) -> float:
        return self.sbs_served / max(self.decided, 1)

    @property
    def shed_ratio(self) -> float:
        """Fraction of offered requests dropped by admission control."""
        return self.shed / max(self.requests_total, 1)

    @property
    def swap_drop_ratio(self) -> float:
        """Fraction of plan swaps served from a stale (dropped) plan."""
        return self.plan_swaps_dropped / max(self.plan_swaps, 1)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary (without the per-request decision log)."""
        return {
            "strategy": self.strategy,
            "admission": self.admission,
            "queue_depth": self.queue_depth,
            "slot_seconds": self.slot_seconds,
            "paced": self.paced,
            "requests_total": self.requests_total,
            "decided": self.decided,
            "shed": self.shed,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
            "sbs_served": self.sbs_served,
            "bs_served": self.bs_served,
            "spills": self.spills,
            "offload_ratio": self.offload_ratio,
            "slots_served": self.slots_served,
            "plan_swaps": self.plan_swaps,
            "plan_swaps_late": self.plan_swaps_late,
            "plan_swaps_dropped": self.plan_swaps_dropped,
            "solves": self.solves,
            "offered_rps": self.offered_rps,
            "sustained_rps": self.sustained_rps,
            "wall_seconds": self.wall_seconds,
            "decision_mean_seconds": self.decision_mean_seconds,
            "decision_p50_seconds": self.decision_p50_seconds,
            "decision_p95_seconds": self.decision_p95_seconds,
            "decision_p99_seconds": self.decision_p99_seconds,
            "swap_wait_p99_seconds": self.swap_wait_p99_seconds,
            "swap_wait_max_seconds": self.swap_wait_max_seconds,
            "slo": {
                "decision_p50_us": self.decision_p50_seconds * 1e6,
                "decision_p95_us": self.decision_p95_seconds * 1e6,
                "decision_p99_us": self.decision_p99_seconds * 1e6,
                "shed_ratio": self.shed_ratio,
                "swap_drop_ratio": self.swap_drop_ratio,
                "alerts": self.slo_alerts,
                "sbs_utilization": list(self.sbs_utilization),
            },
            "cost": {
                "bs_cost": self.cost.bs_cost,
                "sbs_cost": self.cost.sbs_cost,
                "replacement": self.cost.replacement,
                "replacements": self.cost.replacements,
                "total": self.cost.total,
            },
            "decision_digest": self.digest,
        }


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[idx])


async def serve_requests(
    scenario: Scenario,
    requests: Iterable[Request],
    *,
    strategy: RoutingStrategy | str = "optimal-y",
    window: int = 10,
    settings: OnlineSolveSettings | None = None,
    admission: str | None = None,
    queue_depth: int | None = None,
    slot_seconds: float | None = None,
    pace: bool = False,
    config: RuntimeConfig | None = None,
    solve_fn: SolveFn | None = None,
    metrics_port: int | None = None,
    slo: str | None = None,
) -> ServeReport:
    """Serve a request stream against the scenario's live re-solve chain.

    ``pace=True`` replays the stream in real time (each request is
    released at its virtual arrival); the default replays as fast as the
    loop can drain, which is how the determinism tests run. ``solve_fn``
    substitutes the background solver (tests inject slow or trivial
    solvers to probe the plan-swap and admission machinery).

    ``metrics_port`` enables the live HTTP exporter (``0`` = ephemeral
    port) and ``slo`` declares burn-rate objectives
    (:func:`repro.obs.live.parse_slo_specs`); both default off and fall
    back to ``RuntimeConfig`` / environment. Live telemetry never touches
    decision state: the decision log of a seeded run is byte-identical
    with it on or off.
    """
    stream = tuple(requests)
    strat = strategy_by_name(strategy) if isinstance(strategy, str) else strategy
    strat.reset()
    admission_mode = resolved_serve_admission(config, admission)
    depth = resolved_serve_queue_depth(config, queue_depth)
    slot_s = resolved_serve_slot_seconds(config, slot_seconds)
    port = resolved_serve_metrics_port(config, metrics_port)
    slo_specs = parse_slo_specs(resolved_obs_slo(config, slo))

    net = scenario.network
    horizon = scenario.horizon
    if stream and max(r.slot for r in stream) >= horizon:
        raise ConfigurationError(
            "request stream references slots past the scenario horizon"
        )
    plan_horizon = (max(r.slot for r in stream) + 1) if stream else 0

    planner = PlanManager(
        scenario, window=window, settings=settings, solve_fn=solve_fn
    )
    queue = AdmissionQueue(admission_mode, depth)

    faulted = scenario.faults is not None and not scenario.faults.is_empty
    states = scenario_states(scenario)
    fault_mask = (
        scenario.faults.active_mask(horizon)
        if faulted
        else np.zeros(horizon, dtype=bool)
    )

    # Stylized service model (virtual time): an SBS with effective
    # bandwidth B serves at most cap = max(1, floor(B)) concurrent
    # requests, each holding a connection for cap * slot_seconds / B —
    # so it saturates exactly at B requests per slot, the paper's
    # bandwidth constraint. The BS is uncapacitated (hold = one slot).
    caps = np.maximum(1, states.bandwidths.astype(np.int64))
    caps = np.where(states.sbs_up, caps, 0)
    holds = caps * slot_s / np.maximum(states.bandwidths, 1.0)

    sbs_views = [ServerView(sid=f"sbs:{n}") for n in range(net.num_sbs)]
    bs_view = ServerView(sid="bs")
    sbs_release: list[list[float]] = [[] for _ in range(net.num_sbs)]
    bs_release: list[float] = []

    decisions: list[Decision] = []
    decision_seconds: list[float] = []
    swap_waits: list[float] = []
    bs_count = np.zeros((horizon, net.num_classes), dtype=np.int64)
    sbs_count = np.zeros((horizon, net.num_classes), dtype=np.int64)

    counters = {
        "decided": 0,
        "hits": 0,
        "sbs": 0,
        "bs": 0,
        "spills": 0,
        "swaps": 0,
        "late": 0,
        "dropped": 0,
    }
    slot_stats = {"requests": 0, "hits": 0}

    # --- live telemetry (explicitly outside the determinism contract:
    # wall-clock values, on-demand HTTP reads — but never decision state;
    # same-seed decision logs are byte-identical with it on or off).
    ambient = current_recorder()
    private_recorder: Recorder | None = None
    telemetry: ServeTelemetry | None = None
    if port is not None or slo_specs:
        if ambient is None:
            # No caller recorder: give the live surfaces their own, so
            # /metrics and SLO tracking work in untraced deployments.
            private_recorder = Recorder()
        tracker = (
            SloTracker(
                slo_specs,
                short_window=4 * slot_s,
                long_window=40 * slot_s,
            )
            if slo_specs
            else None
        )
        # Explicit None check: an empty Recorder is falsy (__len__ == 0).
        telemetry = ServeTelemetry(
            ambient if ambient is not None else private_recorder, tracker
        )
    live = telemetry is not None or ambient is not None
    # Sliding-window offered/shed rates keyed on *virtual* arrival time
    # (deterministic window contents for a seeded run).
    req_window = WindowedCounter(4 * slot_s) if live else None
    shed_window = WindowedCounter(4 * slot_s) if live else None

    start_wall = time.perf_counter()

    async def produce() -> None:
        for req in stream:
            if pace:
                delay = start_wall + req.arrival - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            admitted = await queue.offer(req)
            if not admitted:
                decisions.append(
                    Decision(
                        seq=req.seq,
                        slot=req.slot,
                        mu_class=req.mu_class,
                        item=req.item,
                        route="shed",
                        hit=False,
                        spill=False,
                        plan_slot=-1,
                    )
                )
                emit("request_shed", slot=req.slot, request_seq=req.seq)
                inc("serve_shed")
                if req_window is not None and shed_window is not None:
                    req_window.add(req.arrival)
                    shed_window.add(req.arrival)
                if telemetry is not None:
                    telemetry.request(req.arrival, shed=True)
        await queue.close()

    def flush_slot(slot: int) -> None:
        if slot_stats["requests"]:
            emit(
                "slot_end",
                slot=slot,
                requests=slot_stats["requests"],
                hits=slot_stats["hits"],
            )
        slot_stats["requests"] = 0
        slot_stats["hits"] = 0

    def decide(req: Request, plan: CommittedPlan) -> None:
        t, m, k = req.slot, req.mu_class, req.item
        n = int(net.class_sbs[m])
        view = sbs_views[n]
        heap = sbs_release[n]
        while heap and heap[0] <= req.arrival:
            heapq.heappop(heap)
            view.connections -= 1
        while bs_release and bs_release[0] <= req.arrival:
            heapq.heappop(bs_release)
            bs_view.connections -= 1
        cap = int(caps[t, n])
        view.capacity = float(cap) if cap else 0.0
        up = bool(states.sbs_up[t, n])
        cached = bool(plan.x[n, k] > 0.5)
        saturated = view.connections >= cap
        eligible = up and cached and not saturated
        servers = [view, bs_view] if eligible else [bs_view]
        ctx = RouteContext(
            slot=t,
            mu_class=m,
            item=k,
            cached=cached,
            sbs_up=up,
            y_fraction=float(plan.y[m, k]),
        )
        choice = strat.select_server(servers, ctx)
        spill = False
        if choice is view and eligible:
            route = "sbs"
            heapq.heappush(heap, req.arrival + float(holds[t, n]))
            view.connections += 1
            sbs_count[t, m] += 1
            counters["sbs"] += 1
        else:
            route = "bs"
            heapq.heappush(bs_release, req.arrival + slot_s)
            bs_view.connections += 1
            bs_count[t, m] += 1
            counters["bs"] += 1
            if cached and up and saturated:
                spill = True
                view.failures += 1
                counters["spills"] += 1
                inc("serve_spills")
        counters["decided"] += 1
        counters["hits"] += int(cached)
        slot_stats["requests"] += 1
        slot_stats["hits"] += int(cached)
        decisions.append(
            Decision(
                seq=req.seq,
                slot=t,
                mu_class=m,
                item=k,
                route=route,
                hit=cached,
                spill=spill,
                plan_slot=plan.slot,
            )
        )

    async def consume() -> None:
        current: CommittedPlan | None = None
        slot_cursor = -1
        fault_active = False
        while True:
            req = await queue.get()
            if req is None:
                break
            if req.slot > slot_cursor:
                flush_slot(slot_cursor)
                target = req.slot
                for s in range(slot_cursor + 1, target + 1):
                    active = bool(fault_mask[s])
                    if active and not fault_active:
                        emit("fault_injected", slot=s)
                    elif fault_active and not active:
                        emit("fault_cleared", slot=s)
                    fault_active = active
                if admission_mode == "queue" or current is None:
                    ready = planner.ready(target)
                    wait0 = time.perf_counter()
                    plan = await planner.wait_for(
                        target if admission_mode == "queue" else 0
                    )
                    waited = time.perf_counter() - wait0
                    swap_waits.append(waited)
                    observe("serve_swap_wait_seconds", waited)
                    observe_quantile("serve_swap_wait_seconds", waited)
                    if not ready:
                        counters["late"] += 1
                        inc("serve_plan_swaps_late")
                    if admission_mode != "queue":
                        plan = planner.latest_at(target)
                        assert plan is not None
                else:
                    plan = planner.latest_at(target)
                    assert plan is not None
                    swap_waits.append(0.0)
                if plan.slot < target:
                    counters["dropped"] += 1
                    inc("serve_plan_swaps_dropped")
                if plan is not current:
                    counters["swaps"] += 1
                    inc("serve_plan_swaps")
                    swap_fields: dict[str, Any] = {
                        "plan_slot": plan.slot,
                        "strategy": strat.name,
                        "lag": target - plan.slot,
                    }
                    # Stage timers of the solve that produced this plan
                    # (absent under an injected solve_fn).
                    for stage, seconds in sorted(
                        planner.timings.get(plan.slot, {}).items()
                    ):
                        swap_fields[f"solve_{stage}_seconds"] = seconds
                    emit("plan_swap", slot=target, **swap_fields)
                current = plan
                slot_cursor = target
                if live:
                    now_v = target * slot_s
                    set_gauge("serve_queue_depth", queue.qsize())
                    set_gauge("serve_plan_lag", target - plan.slot)
                    observe_server_gauges(sbs_views, bs_view)
                    if req_window is not None and shed_window is not None:
                        set_gauge(
                            "serve_offered_rate_window",
                            req_window.rate(now_v),
                        )
                        set_gauge(
                            "serve_shed_rate_window", shed_window.rate(now_v)
                        )
                    if telemetry is not None:
                        telemetry.swap(now_v, dropped=plan.slot < target)
                        for alert in telemetry.evaluate(now_v):
                            emit(
                                "slo_alert",
                                slot=target,
                                slo=alert["name"],
                                threshold=alert["threshold"],
                                burn_short=alert["burn_short"],
                                burn_long=alert["burn_long"],
                                fault_active=fault_active,
                            )
                        telemetry.publish(
                            slot=target,
                            now=now_v,
                            queue_depth=queue.qsize(),
                            plan_lag=target - plan.slot,
                            sbs_utilization={
                                n: view.utilization
                                for n, view in enumerate(sbs_views)
                            },
                        )
            assert current is not None
            t0 = time.perf_counter()
            decide(req, current)
            elapsed = time.perf_counter() - t0
            decision_seconds.append(elapsed)
            observe("serve_decision_seconds", elapsed)
            observe_quantile("serve_decision_seconds", elapsed)
            inc("serve_requests")
            if req_window is not None:
                req_window.add(req.arrival)
            if telemetry is not None:
                telemetry.decision(req.arrival, elapsed)
                telemetry.request(req.arrival, shed=False)
        flush_slot(slot_cursor)

    if stream:
        server: MetricsServer | None = None
        scope = (
            record_into(private_recorder)
            if private_recorder is not None
            else nullcontext()
        )
        with scope:
            if telemetry is not None:
                telemetry.publish(slot=None, now=0.0)
                if port is not None:
                    server = MetricsServer(telemetry.snapshot, port=port)
                    server.start()
            try:
                plan_task = asyncio.ensure_future(planner.run(plan_horizon))
                prod_task = asyncio.ensure_future(produce())
                cons_task = asyncio.ensure_future(consume())
                try:
                    await asyncio.gather(prod_task, cons_task)
                except BaseException:
                    for task in (prod_task, cons_task, plan_task):
                        task.cancel()
                    await asyncio.gather(
                        prod_task, cons_task, plan_task, return_exceptions=True
                    )
                    raise
                wall = time.perf_counter() - start_wall
                await plan_task
                if telemetry is not None:
                    # Final snapshot so late scrapes see the whole run.
                    telemetry.publish(
                        slot=plan_horizon - 1,
                        now=stream[-1].arrival + slot_s,
                        queue_depth=queue.qsize(),
                        plan_lag=0,
                        sbs_utilization={
                            n: view.utilization
                            for n, view in enumerate(sbs_views)
                        },
                    )
            finally:
                if server is not None:
                    server.stop()
    else:
        wall = 0.0

    # Realized cost on the integer served counts (mirrors
    # repro.sim.discrete.replay_trace's accounting), so heuristic
    # strategies are comparable against optimal-y on one stream.
    totals = CostBreakdown.zero()
    prev = np.where(np.asarray(scenario.x_initial) > 0.5, 1.0, 0.0)
    for t in range(plan_horizon):
        plan = planner.plans[t]
        bs_load = np.zeros(net.num_sbs)
        sbs_load = np.zeros(net.num_sbs)
        np.add.at(bs_load, net.class_sbs, net.omega_bs * bs_count[t])
        np.add.at(sbs_load, net.class_sbs, net.omega_sbs * sbs_count[t])
        inserted = np.clip(plan.x - prev, 0.0, None).sum(axis=1)
        totals = totals + CostBreakdown(
            scenario.bs_cost.evaluate(bs_load),
            scenario.sbs_cost.evaluate(sbs_load),
            float(np.dot(net.replacement_costs, inserted)),
            int(np.count_nonzero((plan.x - prev) > 1e-6)),
        )
        prev = plan.x

    if len(stream) > 1:
        span = stream[-1].arrival - stream[0].arrival
        offered = (len(stream) - 1) / span if span > 0 else 0.0
    else:
        offered = 0.0

    # Per-SBS bandwidth utilization over the served horizon: requests
    # actually answered by SBS n vs its aggregate capacity sum_t B_{n,t}
    # over up-slots (the service model saturates at B requests/slot).
    served_by_sbs = np.zeros(net.num_sbs)
    if plan_horizon:
        np.add.at(
            served_by_sbs,
            net.class_sbs,
            sbs_count[:plan_horizon].sum(axis=0).astype(np.float64),
        )
        bw_capacity = (
            states.bandwidths[:plan_horizon] * states.sbs_up[:plan_horizon]
        ).sum(axis=0)
    else:
        bw_capacity = np.zeros(net.num_sbs)
    sbs_utilization = tuple(
        float(served_by_sbs[n] / bw_capacity[n]) if bw_capacity[n] > 0 else 0.0
        for n in range(net.num_sbs)
    )

    return ServeReport(
        strategy=strat.name,
        admission=admission_mode,
        queue_depth=depth,
        slot_seconds=slot_s,
        paced=pace,
        requests_total=len(stream),
        decided=counters["decided"],
        shed=queue.stats.shed,
        hits=counters["hits"],
        sbs_served=counters["sbs"],
        bs_served=counters["bs"],
        spills=counters["spills"],
        slots_served=len({d.slot for d in decisions if d.route != "shed"}),
        plan_swaps=counters["swaps"],
        plan_swaps_late=counters["late"],
        plan_swaps_dropped=counters["dropped"],
        solves=planner.solves,
        offered_rps=offered,
        sustained_rps=counters["decided"] / wall if wall > 0 else 0.0,
        wall_seconds=wall,
        decision_mean_seconds=(
            sum(decision_seconds) / len(decision_seconds)
            if decision_seconds
            else 0.0
        ),
        decision_p50_seconds=_percentile(decision_seconds, 0.50),
        decision_p95_seconds=_percentile(decision_seconds, 0.95),
        decision_p99_seconds=_percentile(decision_seconds, 0.99),
        swap_wait_p99_seconds=_percentile(swap_waits, 0.99),
        swap_wait_max_seconds=max(swap_waits, default=0.0),
        slo_alerts=telemetry.alerts_total if telemetry is not None else 0,
        sbs_utilization=sbs_utilization,
        cost=totals,
        digest=decision_digest(decisions),
        decisions=tuple(sorted(decisions, key=lambda d: d.seq)),
    )


def run_serve(
    scenario: Scenario,
    *,
    strategy: RoutingStrategy | str = "optimal-y",
    rps: float | None = None,
    slot_seconds: float | None = None,
    admission: str | None = None,
    queue_depth: int | None = None,
    window: int = 10,
    settings: OnlineSolveSettings | None = None,
    seed: int = 0,
    max_requests: int | None = None,
    pace: bool = False,
    config: RuntimeConfig | None = None,
    requests: Iterable[Request] | None = None,
    solve_fn: SolveFn | None = None,
    metrics_port: int | None = None,
    slo: str | None = None,
) -> ServeReport:
    """Synchronous facade: build the stream (unless given) and serve it.

    The open-loop stream is deterministic in ``(scenario, rps,
    slot_seconds, seed)``; see :func:`serve_requests` for the runtime
    semantics and :class:`ServeReport` for what comes back.
    """
    slot_s = resolved_serve_slot_seconds(config, slot_seconds)
    if requests is None:
        rate = resolved_serve_rps(config, rps)
        requests = open_loop_requests(
            scenario,
            rps=rate,
            slot_seconds=slot_s,
            seed=seed,
            max_requests=max_requests,
        )
    return asyncio.run(
        serve_requests(
            scenario,
            requests,
            strategy=strategy,
            window=window,
            settings=settings,
            admission=admission,
            queue_depth=queue_depth,
            slot_seconds=slot_s,
            pace=pace,
            config=config,
            solve_fn=solve_fn,
            metrics_port=metrics_port,
            slo=slo,
        )
    )


def render_serve_report(report: ServeReport) -> str:
    """Human-readable summary of one serve run."""
    lines = [
        f"serve: strategy={report.strategy} admission={report.admission} "
        f"slot={report.slot_seconds:g}s queue={report.queue_depth}"
        f"{' paced' if report.paced else ''}",
        f"  requests   {report.requests_total} total, {report.decided} decided, "
        f"{report.shed} shed",
        f"  throughput {report.sustained_rps:.1f} rps sustained "
        f"({report.offered_rps:.1f} offered) over {report.wall_seconds:.2f}s",
        f"  cache      {report.hit_rate:.1%} hit rate, "
        f"{report.offload_ratio:.1%} offloaded to SBS, {report.spills} spills",
        f"  plans      {report.plan_swaps} swaps "
        f"({report.plan_swaps_late} late, {report.plan_swaps_dropped} dropped), "
        f"{report.solves} solves over {report.slots_served} slots",
        f"  latency    decision p50 {report.decision_p50_seconds * 1e6:.0f}us "
        f"p95 {report.decision_p95_seconds * 1e6:.0f}us "
        f"p99 {report.decision_p99_seconds * 1e6:.0f}us; "
        f"swap wait p99 {report.swap_wait_p99_seconds * 1e3:.1f}ms "
        f"max {report.swap_wait_max_seconds * 1e3:.1f}ms",
        f"  slo        shed {report.shed_ratio:.2%}, "
        f"swap drops {report.swap_drop_ratio:.2%}, "
        f"{report.slo_alerts} alerts; sbs util "
        + "/".join(f"{u:.0%}" for u in report.sbs_utilization),
        f"  cost       total {report.cost.total:.2f} "
        f"(bs {report.cost.bs_cost:.2f}, sbs {report.cost.sbs_cost:.2f}, "
        f"repl {report.cost.replacement:.2f})",
        f"  digest     {report.digest[:16]}",
    ]
    return "\n".join(lines)
