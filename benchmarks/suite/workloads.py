"""The benchmark's four workloads: inputs, one timed operation, checks.

Every workload builds a pool of instances from the seed alone and calls
only the public API (``repro.api``). One *operation* runs one instance; a
run goes through the pool twice, so its numbers cover several instances
instead of resting on one:

- ``headline``: the paper's Sec. V-C(1) comparison (Offline, RHC, CHC,
  AFHC, LRFU) on one paper scenario;
- ``multicell``: a fixed-work Algorithm 1 solve on a 100-SBS network with
  three weight groups per SBS (the stacked P2 regime);
- ``faults``: Offline and RHC on a paper scenario with an SBS outage and a
  bandwidth drop injected;
- ``serve``: one paced open-loop replay through the request path while the
  background planner re-solves each slot.

An operation returns an :class:`Outcome`: its wall time, the request
latencies under ``serve``, and the correctness checks that feed
``failed``.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro import api
from repro.exceptions import ConfigurationError
from repro.serve import loop as serve_loop

from spans import Tracer

#: Workload sizes. ``full`` is what the benchmark measures; ``smoke`` is
#: the self-test size (and the warm-up before timing). A full-size pool
#: holds more instances than the first half of a 20 s run gets through.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "headline": {"horizon": 10, "pool": 16, "window": 5},
        "faults": {"horizon": 10, "pool": 24, "window": 5},
        "multicell": {"num_sbs": 100, "num_items": 300, "horizon": 4, "pool": 20},
        "serve": {"horizon": 20, "window": 10, "warmup_slots": 2},
    },
    "smoke": {
        "headline": {"horizon": 8, "pool": 1, "window": 4},
        "faults": {"horizon": 8, "pool": 1, "window": 4},
        "multicell": {"num_sbs": 4, "num_items": 50, "horizon": 4, "pool": 1},
        "serve": {"horizon": 3, "window": 4, "warmup_slots": 1},
    },
}

BETA = 50.0
#: Slack of the policy ordering Offline <= online <= LRFU. Algorithm 1 is
#: a heuristic upper bound, so an online policy may beat Offline by up to
#: 2%, and LRFU may beat the best online policy by up to 2%.
#: ``benchmarks/bench_headline.py`` allows 1% and compares LRFU with the
#: worst online policy; at horizon 10 that fails on legitimate inputs
#: (over 300 ``headline`` instances an online policy beat Offline by up to
#: 0.86%, and LRFU beat the worst online policy by up to 2.16% but the
#: best by at most 0.12%; over 300 ``faults`` instances RHC beat Offline
#: by up to 0.34%).
OFFLINE_SLACK = 0.02
LRFU_SLACK = 0.02
#: Relative tolerance of the seed-1 reference comparison.
REFERENCE_RTOL = 1e-9

MULTICELL_CLASSES_PER_SBS = 3
MULTICELL_ITERATIONS = 4
SERVE_RPS = 1000.0
SLOT_SECONDS = 0.25
#: The deployment the serve workload runs against is fixed; ``--seed``
#: draws its request stream. A per-seed scenario would change the
#: planner's load, and with it the sojourn tail, more than any change to
#: the request path would.
SERVE_SCENARIO_SEED = 1


@dataclass
class Outcome:
    """One operation's measurements and check results."""

    wall: float
    #: Each request's sojourn for ``serve``; empty for the solver
    #: workloads, whose answer is the operation itself.
    latencies: list[float]
    attempted: int
    failed: int
    failures: list[str]
    fingerprint: Any
    quality: dict[str, float] = field(default_factory=dict)
    stamps: dict[str, float] = field(default_factory=dict)


def instance_seeds(seed: int, size: dict[str, Any]) -> list[int]:
    """Disjoint per-seed instance seeds ``seed*pool .. seed*pool+pool-1``."""
    pool = size["pool"]
    return [seed * pool + i for i in range(pool)]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=0.0)


def _infeasible(check: Callable[[], None]) -> str | None:
    """The message of the ``ConfigurationError`` ``check`` raises, if any."""
    try:
        check()
    except ConfigurationError as exc:
        return f"infeasible: {exc}"
    return None


# ---------------------------------------------------------------- headline


def build_headline(seed: int, size: dict[str, Any], faults: bool = False) -> list:
    scenarios = []
    for s in instance_seeds(seed, size):
        scenario = api.build_scenario(seed=s, horizon=size["horizon"], beta=BETA)
        if faults:
            schedule = api.default_fault_schedule(size["horizon"])
            scenario = api.inject_faults(scenario, schedule)
        scenarios.append(scenario)
    return scenarios


def _policies(name: str, window: int) -> list[Any]:
    if name == "faults":
        return [api.OfflineOptimal(), api.RHC(window=window)]
    return api.default_policies(window=window)


def _out_of_order(totals: dict[str, float]) -> set[str]:
    """Policies breaking Offline <= online <= LRFU beyond the slack."""
    offline = totals["Offline"]
    bad = {k for k, v in totals.items() if v < offline - OFFLINE_SLACK * offline}
    online = [v for k, v in totals.items() if k not in ("Offline", "LRFU")]
    lrfu = totals.get("LRFU")
    if lrfu is not None and lrfu < min(online) - LRFU_SLACK * lrfu:
        bad.add("LRFU")
    return bad


def run_comparison(
    name: str,
    scenario: Any,
    size: dict[str, Any],
    tracer: Tracer | None,
    reference: dict[str, float] | None,
) -> Outcome:
    """``headline`` and ``faults``: compare the policies on one scenario."""
    started = time.perf_counter()
    result = api.compare_policies(scenario, _policies(name, size["window"]))
    wall = time.perf_counter() - started

    totals = {k: r.cost.total for k, r in result.items()}
    out_of_order = _out_of_order(totals)
    failures: list[str] = []
    joint = scenario.problem()
    for policy, r in result.items():
        if name == "faults":
            problem = _infeasible(
                partial(api.assert_feasible_under_faults, scenario, r.x, r.y)
            )
        else:
            problem = _infeasible(partial(joint.check_feasible, r.x, r.y))
        if problem is None and policy in out_of_order:
            problem = "policy ordering violated"
        if problem is None and reference is not None:
            if not _close(totals[policy], reference[policy]):
                problem = "total differs from the reference"
        if problem is not None:
            failures.append(f"{policy}: {problem}")
    rhc = next(v for k, v in totals.items() if k.startswith("RHC"))
    return Outcome(
        wall=wall,
        latencies=[],
        attempted=len(result),
        failed=len(failures),
        failures=failures,
        fingerprint=totals,
        quality={"cost_ratio": rhc / totals["Offline"]},
    )


# --------------------------------------------------------------- multicell


def build_multicell(seed: int, size: dict[str, Any]) -> list:
    return [_multicell_problem(s, size) for s in instance_seeds(seed, size)]


def _multicell_problem(seed: int, size: dict[str, Any]) -> Any:
    """Heterogeneous multi-cell network (cf. bench_large): Zipf(0.8, shift
    30) popularity permuted per class, class density ~ U[0, 4]."""
    rng = np.random.default_rng(seed)
    N, K, T = size["num_sbs"], size["num_items"], size["horizon"]
    M = N * MULTICELL_CLASSES_PER_SBS
    network = api.Network(
        api.ContentCatalog(K),
        tuple(api.SmallBaseStation(n, 12, 2.0, 4.0) for n in range(N)),
        tuple(
            api.MUClass(m, m // MULTICELL_CLASSES_PER_SBS, float(rng.uniform(0.5, 1.5)))
            for m in range(M)
        ),
    )
    zipf = (np.arange(1, K + 1) + 30.0) ** -0.8
    zipf /= zipf.sum()
    pref = np.stack([rng.permutation(zipf) for _ in range(M)])
    density = rng.uniform(0.0, 4.0, size=(T, M))
    return api.JointProblem(network=network, demand=density[:, :, None] * pref[None])


def run_multicell(
    problem: Any,
    size: dict[str, Any],
    tracer: Tracer | None,
    reference: dict | None,
) -> Outcome:
    started = time.perf_counter()
    result = api.solve_primal_dual(
        problem,
        max_iter=MULTICELL_ITERATIONS,
        gap_tol=0.0,
        caching_backend="flow",
        solve_cache=api.SolveCache(),
    )
    wall = time.perf_counter() - started
    ub, lb = result.cost.total, result.lower_bound
    failures = []
    if not lb <= ub * (1 + REFERENCE_RTOL):
        failures.append("lower bound above upper bound")
    infeasible = _infeasible(partial(problem.check_feasible, result.x, result.y))
    if infeasible is not None:
        failures.append(infeasible)
    if reference is not None and not (
        _close(ub, reference["upper_bound"]) and _close(lb, reference["lower_bound"])
    ):
        failures.append("bounds differ from the reference")
    return Outcome(
        wall=wall,
        latencies=[],
        attempted=1,
        failed=int(bool(failures)),
        failures=failures,
        fingerprint={"upper_bound": ub, "lower_bound": lb},
        quality={"gap": result.gap},
    )


# ------------------------------------------------------------------- serve


@dataclass
class ServeInputs:
    scenario: Any
    stream: tuple[Any, ...]


def build_serve(seed: int, size: dict[str, Any]) -> list[ServeInputs]:
    scenario = api.build_scenario(
        seed=SERVE_SCENARIO_SEED, horizon=size["horizon"], beta=BETA
    )
    stream = api.open_loop_requests(
        scenario, rps=SERVE_RPS, slot_seconds=SLOT_SECONDS, seed=seed
    )
    # Traffic starts after the warm-up slots, so the planner's cold first
    # solve is start-up (serve.first_plan_ms), not a backlog that every
    # later request inherits.
    live = [r for r in stream if r.slot >= size["warmup_slots"]]
    stream = tuple(
        api.Request(i, r.slot, r.mu_class, r.item, r.arrival) for i, r in enumerate(live)
    )
    return [ServeInputs(scenario, stream)]


class _Stamps:
    def __init__(self, n: int) -> None:
        self.offer = [math.nan] * n
        self.get = [math.nan] * n
        self.route: list[float] = []


def _stamped_queue(stamps: _Stamps) -> type:
    class StampedQueue(serve_loop.AdmissionQueue):
        """Admission queue stamping when a request is offered and taken."""

        async def offer(self, request: Any) -> bool:
            stamps.offer[request.seq] = time.perf_counter()
            return await super().offer(request)

        async def get(self) -> Any:
            request = await super().get()
            if request is not None:
                stamps.get[request.seq] = time.perf_counter()
            return request

    return StampedQueue


class StampedStrategy(api.RoutingStrategy):
    """Delegating strategy that stamps each routing call and checks that
    the k-th call routes the k-th request of the stream."""

    def __init__(
        self,
        inner: Any,
        stream: Sequence[Any],
        stamps: _Stamps,
        tracer: Tracer | None,
    ) -> None:
        self.inner = inner
        self.name = inner.name
        self.stream = stream
        self.stamps = stamps
        self.tracer = tracer
        self.mismatches = 0

    def reset(self) -> None:
        self.inner.reset()

    def select_server(self, servers: Sequence[Any], ctx: Any) -> Any:
        self.stamps.route.append(time.perf_counter())
        k = len(self.stamps.route) - 1
        req = self.stream[k] if k < len(self.stream) else None
        if req is None or (ctx.slot, ctx.mu_class, ctx.item) != (
            req.slot,
            req.mu_class,
            req.item,
        ):
            self.mismatches += 1
        if self.tracer is None:
            return self.inner.select_server(servers, ctx)
        with self.tracer.span("serve.route", run_id=req.seq if req else -1):
            return self.inner.select_server(servers, ctx)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the serve report's definition)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


def run_serve(
    inputs: ServeInputs,
    size: dict[str, Any],
    tracer: Tracer | None,
    reference: dict | None,
) -> Outcome:
    stream = inputs.stream
    stamps = _Stamps(len(stream))
    strategy = StampedStrategy(api.OptimalYStrategy(), stream, stamps, tracer)
    original = serve_loop.AdmissionQueue
    serve_loop.AdmissionQueue = _stamped_queue(stamps)
    try:
        report = asyncio.run(
            api.serve_requests(
                inputs.scenario,
                stream,
                strategy=strategy,
                window=size["window"],
                admission="queue",
                slot_seconds=SLOT_SECONDS,
                pace=True,
            )
        )
    finally:
        serve_loop.AdmissionQueue = original

    failures = []
    bad = sum(1 for d in report.decisions if d.route == "shed" or d.plan_slot != d.slot)
    bad += len(stream) - report.decided + strategy.mismatches
    if bad:
        failures.append(f"{bad} requests shed, undecided, misrouted or off-plan")
        return Outcome(report.wall_seconds, [], len(stream), bad, failures, None)
    if reference is not None and report.digest != reference["digest"]:
        failures.append("decision digest differs from the reference")
        bad = len(stream)

    # The pacer releases request i at start + arrival_i; its start is
    # estimated from the producer side, which never offers early.
    start = min(o - r.arrival for o, r in zip(stamps.offer, stream))
    due = [start + r.arrival for r in stream]
    spans = tracer.spans if tracer is not None else []
    first_plan = [s.end for s in spans if s.name == "serve.plan_solve"]

    def p99_ms(values: list[float]) -> float:
        return 1e3 * percentile(values, 0.99)

    sojourns = [r - d for r, d in zip(stamps.route, due)]
    return Outcome(
        wall=report.wall_seconds,
        latencies=sojourns,
        attempted=len(stream),
        failed=bad,
        failures=failures,
        fingerprint={"digest": report.digest},
        quality={"cost_total": report.cost.total},
        stamps={
            "sojourn_p99_ms": p99_ms(sojourns),
            "gen_late_p99_ms": p99_ms([o - d for o, d in zip(stamps.offer, due)]),
            "queue_wait_p99_ms": p99_ms(
                [g - o for g, o in zip(stamps.get, stamps.offer)]
            ),
            "plan_wait_p99_ms": p99_ms(
                [r - g for r, g in zip(stamps.route, stamps.get)]
            ),
            # Serve start to the first committed plan (traced runs only).
            "first_plan_ms": 1e3 * (min(first_plan) - start) if first_plan else 0.0,
            "decide_p99_us": 1e6 * report.decision_p99_seconds,
            "swaps_late": float(report.plan_swaps_late),
        },
    )


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """How to build a workload's instance pool and run one operation."""

    build: Callable[[int, dict[str, Any]], list]
    #: ``run(instance, size, tracer or None, reference or None)``.
    run: Callable[..., Outcome]
    #: Whether an instance's repetitions re-measure the same work, so the
    #: run keeps the fastest; ``serve`` replays pool every request instead.
    best_of_repeats: bool


WORKLOADS: dict[str, Workload] = {
    "headline": Workload(
        partial(build_headline, faults=False), partial(run_comparison, "headline"), True
    ),
    "multicell": Workload(build_multicell, run_multicell, True),
    "faults": Workload(
        partial(build_headline, faults=True), partial(run_comparison, "faults"), True
    ),
    "serve": Workload(build_serve, run_serve, False),
}
