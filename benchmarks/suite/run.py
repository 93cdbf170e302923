"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload::

    python3 benchmarks/suite/run.py --workload headline --seed 1 --seconds 20 --trace 0

or every workload, untraced and traced, each in a fresh process::

    python3 benchmarks/suite/run.py --seed 1

The package under test is imported from the ``src/`` directory of the
checkout this file lives in, never from an installed copy. An untraced run
(``--trace 0``) repeats the workload's operation for about ``--seconds``
and reports the end-to-end metrics; a traced run (``--trace 1``) runs the
operation on the first instance once untraced and once with every layer
wrapped, and reports the per-layer metrics. The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Records and span files go to ``--out`` (default ``.bench_out/suite``).
See README.md next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
NAMES = ("headline", "multicell", "faults", "serve")
SETUP_RUNS = 5
REFERENCE_SEED = 1
PROBE_TIMEOUT_S = 120
WORKLOAD_TIMEOUT_S = 600

#: Counters of the traced run's recorder behind the per-layer ratios.
COUNTERS = (
    "p1_memo_hits",
    "p1_memo_misses",
    "p1_batched_solves",
    "p1_batched_capped",
    "p1_batched_fallbacks",
    "flow_warm_resumes",
    "p2_bw_bound_rows",
    "p2_bw_closed_form",
)
SERVE_STAMPS = {
    "sojourn_p99_ms": "ms",
    "gen_late_p99_ms": "ms",
    "queue_wait_p99_ms": "ms",
    "plan_wait_p99_ms": "ms",
    "first_plan_ms": "ms",
    "decide_p99_us": "us",
    "swaps_late": "count",
}


def load_repro() -> None:
    """Import the package from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import repro from {SRC}: {exc}")
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"repro was imported from {repro.__file__}, not from {SRC}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def setup_probe(args: argparse.Namespace) -> None:
    """Time ``import repro.api`` plus building the workload's inputs."""
    started = time.perf_counter()
    load_repro()
    from workloads import SIZES, WORKLOADS

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    WORKLOADS[args.workload].build(args.seed, size)
    print(time.perf_counter() - started)


def measure_setup(args: argparse.Namespace) -> float:
    """Median set-up time over fresh interpreters."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def per_layer_metrics(tracer: Any, recorder: Any, traced: Any) -> dict[str, Any]:
    """Span, counter and serve-stamp metrics of the traced operation."""
    metrics = {}
    for layer, row in tracer.layer_stats().items():
        metrics[f"{layer}.calls"] = _metric(row["calls"], "count")
        metrics[f"{layer}.total_s"] = _metric(row["total_s"], "s")
        metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
    metrics["alg1.iterations"] = _metric(tracer.alg1_iterations, "count")
    c = {k: recorder.metrics.counter(k) for k in COUNTERS}
    lookups = c["p1_memo_hits"] + c["p1_memo_misses"]
    ratios = {
        "p1.memo_hit_ratio": _ratio(c["p1_memo_hits"], lookups),
        "p1.batched_accept_ratio": _ratio(c["p1_batched_solves"], c["p1_memo_misses"]),
        "p1.capped_share": _ratio(c["p1_batched_capped"], c["p1_batched_solves"]),
    }
    metrics.update({k: _metric(v, "ratio") for k, v in ratios.items()})
    metrics["p1.fallbacks"] = _metric(c["p1_batched_fallbacks"], "count")
    metrics["flow.warm_resumes"] = _metric(c["flow_warm_resumes"], "count")
    metrics["p2.bw_bound_rows"] = _metric(c["p2_bw_bound_rows"], "count")
    metrics["p2.closed_form_ratio"] = _metric(
        _ratio(c["p2_bw_closed_form"], c["p2_bw_bound_rows"]), "ratio"
    )
    for stamp, unit in SERVE_STAMPS.items():
        metrics[f"serve.{stamp}"] = _metric(traced.stamps.get(stamp, 0.0), unit)
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    load_repro()
    from repro import api
    from spans import Tracer
    from workloads import SIZES, WORKLOADS

    name = args.workload
    workload = WORKLOADS[name]
    size_name = "smoke" if args.smoke else "full"
    size = SIZES[size_name][name]
    reference_path = Path(args.reference)
    reference = None
    if args.seed == REFERENCE_SEED and not args.update_reference:
        reference = json.loads(reference_path.read_text())[size_name][name]

    setup_s = measure_setup(args) if not args.trace else None
    pool = workload.build(args.seed, size)

    def expected(index: int) -> Any:
        return reference[str(index)] if reference is not None else None

    if not args.smoke:
        # Warm-up on the smoke size: lazy imports and first-call set-up
        # are paid before timing (setup_s measures them separately).
        smoke = SIZES["smoke"][name]
        workload.run(workload.build(args.seed, smoke)[0], smoke, None, None)

    # (pool index, outcome) per operation. The first half of the budget
    # runs new instances, the second half repeats them in the same order,
    # so each instance runs about twice, some ten seconds apart. A traced
    # run makes one untraced operation on instance 0, the one it then
    # traces: the output the traced one must reproduce and the baseline of
    # trace.overhead.
    once = args.update_reference or args.trace
    if args.trace:
        pool = pool[:1]
    ops: list[tuple[int, Any]] = []
    fresh = 0
    elapsed = 0.0
    started = time.perf_counter()
    while True:
        if fresh < len(pool) and (once or elapsed < args.seconds / 2):
            index, fresh = fresh, fresh + 1
        elif once:
            break
        else:
            index = (len(ops) - fresh) % fresh
        ops.append((index, workload.run(pool[index], size, None, expected(index))))
        elapsed = time.perf_counter() - started
        if not once and elapsed + 0.5 * elapsed / len(ops) >= args.seconds:
            break

    tracer = recorder = None
    if args.trace:
        tracer = Tracer()
        tracer.run_id = len(ops)
        recorder = api.Recorder()
        with tracer.patched(), api.record_into(recorder):
            ops.append((0, workload.run(pool[0], size, tracer, expected(0))))

    attempted = sum(o.attempted for _, o in ops)
    failed = sum(o.failed for _, o in ops)
    failures = [msg for _, o in ops for msg in o.failures]
    by_instance: dict[int, list[Any]] = {}
    for index, o in ops:
        by_instance.setdefault(index, []).append(o)
    for index, outs in by_instance.items():
        for o in outs[1:]:
            if o.fingerprint != outs[0].fingerprint:
                failed += o.attempted
                failures.append(f"instance {index} differs between repetitions")
    if args.update_reference:
        data = json.loads(reference_path.read_text())
        data.setdefault(size_name, {})[name] = {
            str(index): outs[0].fingerprint for index, outs in by_instance.items()
        }
        reference_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    samples = 0
    if not args.trace:
        if workload.best_of_repeats:
            # The answer is the operation itself. Other processes on a
            # shared machine slow a run by up to 1.7x for seconds at a time;
            # an instance's fastest repetition is the one they left alone.
            latencies = [min(o.wall for o in outs) for outs in by_instance.values()]
        else:
            latencies = [v for _, o in ops for v in o.latencies]
        samples = len(latencies)
        # A serve replay that failed its checks returns no latencies.
        p50 = statistics.median(latencies) if latencies else 0.0
        mean = statistics.fmean(latencies) if latencies else 0.0
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "latency_p50_ms": _metric(1e3 * p50, "ms"),
            "latency_mean_ms": _metric(1e3 * mean, "ms"),
        }
    else:
        traced = ops[-1][1]
        metrics = per_layer_metrics(tracer, recorder, traced)
        roots = sum(s.end - s.start for s in tracer.spans if s.parent_id is None)
        coverage = _ratio(roots, traced.wall)
        metrics["trace.coverage"] = _metric(coverage, "ratio")
        metrics["trace.overhead"] = _metric(traced.wall / ops[0][1].wall - 1.0, "ratio")
        if name != "serve" and not args.smoke:
            attempted += 1
            if coverage < 0.95:
                failed += 1
                failures.append(f"trace coverage {coverage:.3f} < 0.95")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    quality = {str(index): outs[0].quality for index, outs in sorted(by_instance.items())}
    record = {
        "workload": name,
        "seed": args.seed,
        "size": size_name,
        "trace": args.trace,
        "instances": [index for index, _ in ops],
        "walls_s": [o.wall for _, o in ops],
        "latency_samples": samples,
        "quality": quality,
        "failures": failures,
        **result,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{name}.seed{args.seed}"
    (out / f"{stem}.trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_jsonl(str(out / f"{stem}.spans.jsonl"))

    print(
        f"{name} seed={args.seed} size={size_name} trace={args.trace} "
        f"operations={len(ops)} latency_samples={samples}"
    )
    for index, values in quality.items():
        for key, value in values.items():
            print(f"  quality instance {index} {key} = {value:.9g}")
    for msg in failures:
        print(f"  FAILED {msg}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0}
    metrics: dict[str, Any] = {}
    for name in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                name,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(trace),
                "--reference",
                args.reference,
                "--out",
                args.out,
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(proc.stderr, file=sys.stderr)
                return 1
            combined["correct"] &= result["correct"] and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, m in result["metrics"].items():
                metrics[f"{name}.{key}"] = m
    combined["metrics"] = metrics
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="self-test sizes (seconds per run)"
    )
    parser.add_argument(
        "--reference",
        default=str(HERE / "reference.json"),
        help="expected outputs at seed 1, compared at 1e-9 relative",
    )
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="rewrite this workload's --reference entry from this run",
    )
    parser.add_argument("--out", default=".bench_out/suite")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.update_reference and (args.seed != REFERENCE_SEED or args.trace):
        parser.error(f"--update-reference needs --seed {REFERENCE_SEED} --trace 0")
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
