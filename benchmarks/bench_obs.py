"""Telemetry guard bench: recording overhead and cross-executor determinism.

Two contracts of `repro.obs`, asserted at benchmark scale:

1. **Overhead.** Recording a full trace of the headline comparison costs
   at most 5% wall time over the unrecorded run, measured as the median
   of paired ratios: each pair times one unrecorded and one recorded run
   back to back, alternating which goes first, so host-load drift between
   pairs cancels instead of landing on one side. Disabled, the
   instrumentation is a ContextVar read per hook — unmeasurable here, but
   the unrecorded run below *is* the instrumented-but-disabled path, so
   the baseline itself certifies it.
2. **Determinism.** The same seeded run records byte-identical JSONL
   traces (equal sha256 digests) on the serial, thread, and process
   executors.

Results land in ``BENCH_obs.json`` for regression tracking.
"""

from __future__ import annotations

import statistics
import time

from repro.api import LRFU, RHC, Recorder, build_scenario, record_into, run_policies
from repro.obs import trace_digest, validate_trace

#: Allowed enabled-telemetry overhead: the median paired ratio, minus one.
MAX_OVERHEAD_REL = 0.05
#: Paired (unrecorded, recorded) runs behind the median.
PAIRS = 11

EXECUTORS = ("serial", "thread:2", "process:2")


def _policies():
    return [RHC(window=5), LRFU()]


def _run(scenario, recorder=None, executor=None):
    started = time.perf_counter()
    with record_into(recorder) if recorder is not None else _null():
        results = run_policies(scenario, _policies(), executor=executor)
    return results, time.perf_counter() - started


def _null():
    from contextlib import nullcontext

    return nullcontext()


def test_obs_overhead_and_determinism(bench_scale, save_json):
    scenario = build_scenario(seed=bench_scale.seeds[0], horizon=bench_scale.horizon)

    # Warm-up: populate solver caches / imports outside the timed region.
    _run(build_scenario(seed=bench_scale.seeds[0], horizon=4))

    # Paired sampling: host load drifts more between reps than telemetry
    # costs, so each pair runs both sides back to back, alternating the
    # order, and the bound applies to the median of the per-pair ratios.
    pairs: list[dict] = []
    baseline_results = recorded_results = None
    recorder = Recorder()
    for i in range(PAIRS):
        recorded_first = i % 2 == 1
        if recorded_first:
            recorder = Recorder()
            recorded_results, recorded = _run(scenario, recorder=recorder)
            baseline_results, baseline = _run(scenario)
        else:
            baseline_results, baseline = _run(scenario)
            recorder = Recorder()
            recorded_results, recorded = _run(scenario, recorder=recorder)
        pairs.append(
            {
                "baseline_seconds": baseline,
                "recorded_seconds": recorded,
                "recorded_first": recorded_first,
            }
        )
    ratios = [p["recorded_seconds"] / p["baseline_seconds"] for p in pairs]
    overhead = statistics.median(ratios) - 1.0
    events = recorder.events
    assert validate_trace(events) > 0

    # The solver stack now streams quantile sketches (solve gap/iterations)
    # through the same recorder; they must be populated, and the overhead
    # budget below covers the sketch path since these reps recorded them.
    gap_sketch = recorder.metrics.sketch("solve_gap")
    assert gap_sketch is not None and gap_sketch.count > 0
    sketch_names = {key[0] for key in recorder.metrics.items()["sketches"]}
    assert {"solve_gap", "solve_iterations"} <= sketch_names

    # Recording must not perturb the results.
    assert set(recorded_results) == set(baseline_results)
    for name in baseline_results:
        assert (
            recorded_results[name].cost.total == baseline_results[name].cost.total
        )

    assert overhead <= MAX_OVERHEAD_REL, (
        f"telemetry overhead too high: median paired ratio {overhead:+.1%} "
        f"> {MAX_OVERHEAD_REL:.0%} (ratios {', '.join(f'{r:.3f}' for r in ratios)})"
    )

    # Cross-executor byte-identity of the recorded trace.
    digests = {}
    for executor in EXECUTORS:
        ex_recorder = Recorder()
        with record_into(ex_recorder):
            run_policies(scenario, _policies(), executor=executor)
        digests[executor] = trace_digest(ex_recorder.events)
    assert len(set(digests.values())) == 1, digests

    save_json(
        "obs",
        {
            "horizon": bench_scale.horizon,
            "seed": bench_scale.seeds[0],
            "baseline_seconds": statistics.median(
                p["baseline_seconds"] for p in pairs
            ),
            "recorded_seconds": statistics.median(
                p["recorded_seconds"] for p in pairs
            ),
            "overhead_fraction": overhead,
            "max_overhead_rel": MAX_OVERHEAD_REL,
            "pairs": pairs,
            "events": len(events),
            "sketches": sorted(sketch_names),
            "trace_digest": digests["serial"],
            "executors_checked": list(EXECUTORS),
        },
    )
