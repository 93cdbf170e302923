"""Command-line interface, built on the :mod:`repro.api` facade.

Examples
--------
::

    repro run --beta 50 --horizon 60          # headline comparison point
    repro sweep --axis beta --values 0 50 100 # Fig. 2
    repro sweep --axis window                 # Fig. 3
    repro sweep --axis bandwidth              # Fig. 4
    repro sweep --axis noise --values 0 0.25  # Fig. 5
    repro bench --scale quick                 # benchmark suite (BENCH_*.json)
    repro resilience --horizon 40             # policies under a fault schedule
    repro serve --rps 200 --trace out.jsonl   # live serving runtime (repro.serve)
    repro serve --metrics-port 9109 --slo 'p99_decision_us<200'  # live SLOs
    repro run --trace out.jsonl               # record a telemetry trace + manifest
    repro obs report out.jsonl                # ASCII dashboard of a recorded trace
    repro obs analyze out.jsonl               # post-mortem trace diagnosis
    repro obs top --url http://127.0.0.1:9109 # live dashboard over /slo

The pre-redesign commands (``fig2`` ... ``fig5``, ``headline``, ``demo``)
still work as hidden aliases of ``sweep`` / ``run`` so existing scripts
keep running; they are simply no longer advertised in ``--help``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from repro import api
from repro.config import ADMISSION_POLICIES
from repro.obs import manifest_path_for, validate_manifest, validate_trace
from repro.serve import STRATEGIES

#: Metrics printed per sweep axis (mirrors the panels of Figs. 2-5).
_AXIS_METRICS = {
    "beta": ("total", "replacement", "replacements", "bs_cost"),
    "window": ("total", "replacements"),
    "bandwidth": ("total", "replacements"),
    "noise": ("total",),
}

#: Legacy figure commands and the axis they alias.
_LEGACY_AXES = {"fig2": "beta", "fig3": "window", "fig4": "bandwidth", "fig5": "noise"}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--horizon", type=int, default=100, help="timeslots T")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="random seeds")
    parser.add_argument(
        "--window", type=int, default=10, help="prediction window w (ignored by the window axis)"
    )
    parser.add_argument(
        "--mode",
        choices=("reoptimize", "as_decided"),
        default="reoptimize",
        help="how realized load balancing is computed (see sim.engine)",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render each metric as an ASCII chart",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for the (point, seed, policy) grid (default: serial)",
    )
    parser.add_argument(
        "--executor",
        type=str,
        default=None,
        help="executor spec, e.g. 'process:4', 'thread:8' or 'serial' "
        "(overrides --workers)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the machine-readable result as JSON to PATH",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="record a telemetry trace to PATH (JSONL) plus a run manifest "
        "next to it (see 'repro obs report')",
    )
    parser.add_argument("--verbose", action="store_true")


def _runtime_config(args: argparse.Namespace) -> api.RuntimeConfig | None:
    """Translate --executor/--workers into a :class:`repro.api.RuntimeConfig`."""
    if args.executor is None and args.workers is None:
        return None
    return api.RuntimeConfig(executor=args.executor, workers=args.workers)


def _print_sweep(
    sweep: "api.SweepResult", metrics: Sequence[str], *, chart: bool = False
) -> None:
    for metric in metrics:
        print()
        print(api.render_sweep_table(sweep, metric))
        if chart and len(sweep.points) > 1:
            from repro.sim.ascii_chart import render_ascii_chart

            print()
            print(render_ascii_chart(sweep, metric))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> dict | None:
    sweep = api.headline_comparison(
        beta=args.beta,
        window=args.window,
        seeds=tuple(args.seeds),
        mode=args.mode,
        verbose=args.verbose,
        horizon=args.horizon,
        config=_runtime_config(args),
    )
    print()
    print(api.render_headline_table(sweep))
    return api.sweep_to_dict(sweep)


def _cmd_sweep(args: argparse.Namespace) -> dict | None:
    sweep = api.sweep(
        args.axis,
        args.values,
        seeds=tuple(args.seeds),
        mode=args.mode,
        verbose=args.verbose,
        horizon=args.horizon,
        config=_runtime_config(args),
        **({} if args.axis == "window" else {"window": args.window}),
    )
    _print_sweep(sweep, _AXIS_METRICS[args.axis], chart=args.chart)
    return api.sweep_to_dict(sweep)


def _cmd_resilience(args: argparse.Namespace) -> dict | None:
    report = api.run_resilience(
        horizon=args.horizon,
        seed=args.seeds[0],
        window=args.window,
        mode=args.mode,
        recover_tol=args.recover_tol,
        config=_runtime_config(args),
        verbose=args.verbose,
    )
    print()
    print(api.render_resilience_table(report))
    return report.to_dict()


def _cmd_serve(args: argparse.Namespace) -> dict | None:
    scenario = api.build_scenario(seed=args.seeds[0], horizon=args.horizon)
    report = api.run_serve(
        scenario,
        strategy=args.strategy,
        rps=args.rps,
        slot_seconds=args.slot_seconds,
        admission=args.admission,
        queue_depth=args.queue_depth,
        window=args.window,
        seed=args.seeds[0],
        max_requests=args.max_requests,
        pace=args.pace,
        metrics_port=args.metrics_port,
        slo=args.slo,
        config=_runtime_config(args),
    )
    print()
    print(api.render_serve_report(report))
    if args.decision_log:
        api.write_decision_log(args.decision_log, report.decisions)
        print(
            f"wrote {args.decision_log} ({len(report.decisions)} decisions)",
            file=sys.stderr,
        )
    return report.to_dict()


def _cmd_bench(args: argparse.Namespace) -> dict | None:
    if getattr(args, "bench_command", None) == "diff":
        return _cmd_bench_diff(args)
    if getattr(args, "bench_command", None) == "matrix":
        return _cmd_bench_matrix(args)
    if getattr(args, "bench_command", None) == "profile":
        return _cmd_bench_profile(args)
    bench_dir = Path(args.path) if args.path else _default_bench_dir()
    if bench_dir is None or not bench_dir.is_dir():
        print(
            "benchmark suite not found; pass --path <repo>/benchmarks",
            file=sys.stderr,
        )
        raise SystemExit(2)
    import os

    import pytest

    os.environ["REPRO_BENCH_SCALE"] = args.scale
    argv = [str(bench_dir), "-q", "-p", "no:cacheprovider"]
    if args.filter:
        argv += ["-k", args.filter]
    code = pytest.main(argv)
    if code != 0:
        raise SystemExit(int(code))
    return None


def _cmd_bench_matrix(args: argparse.Namespace) -> dict | None:
    """``repro bench matrix`` — the headline comparison in every executor cell.

    Each cell's wall-time lands as a top-level ``<cell>_seconds`` field of
    ``BENCH_matrix.json``, so two matrix records diff with the standard
    ``repro bench diff`` wall-time gate; the serial baseline's sweep
    payload makes ``--gate-costs`` work too. Exits non-zero when any cell
    drifts from the baseline's cost metrics (``costs_identical`` false).
    """
    import json

    from repro.obs import run_manifest, write_manifest
    from repro.perf.benchmatrix import run_bench_matrix

    workers = [int(w) for w in args.workers.split(",") if w.strip()]
    record = run_bench_matrix(
        beta=args.beta,
        horizon=args.horizon,
        workers=workers,
        verbose=True,
    )
    out_dir = Path(args.out) if args.out else _default_bench_dir()
    if out_dir is None:
        print("benchmarks directory not found; pass --out", file=sys.stderr)
        raise SystemExit(2)
    results = out_dir / "results" if args.out is None else out_dir
    results.mkdir(parents=True, exist_ok=True)
    path = results / "BENCH_matrix.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=False)
        fh.write("\n")
    manifest = run_manifest(
        seed=record["seeds"][0],
        config={
            "bench": "matrix",
            "beta": record["beta"],
            "horizon": record["horizon"],
            "cells": record["cells"],
        },
    )
    write_manifest(results / "BENCH_matrix.manifest.json", manifest)
    print(f"[saved to {path}]")
    if not record["costs_identical"]:
        print("FAIL: a matrix cell drifted from the baseline cost metrics")
        raise SystemExit(1)
    return record


def _cmd_bench_profile(args: argparse.Namespace) -> dict | None:
    """``repro bench profile <leg>`` — run one leg under cProfile.

    Emits ``PROFILE_<leg>.txt`` (deterministic top-N self-time table,
    repo-relative paths) next to the leg's ``BENCH_*.json`` so hot-spot
    questions are answerable from CI artifacts.
    """
    from repro.perf.profiler import profile_bench

    bench_dir = Path(args.path) if args.path else _default_bench_dir()
    if bench_dir is None or not bench_dir.is_dir():
        print(
            "benchmark suite not found; pass --path <repo>/benchmarks",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        out = profile_bench(
            args.leg,
            bench_dir,
            scale=args.scale,
            top=args.top,
            out_dir=Path(args.out) if args.out else None,
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        raise SystemExit(2) from exc
    print(f"[saved to {out}]")
    return None


def _cmd_bench_diff(args: argparse.Namespace) -> dict | None:
    """``repro bench diff <old> <new>`` — compare two BENCH_*.json records.

    Exits non-zero when the two records have identical configuration
    digests and any shared wall-time field regressed by more than
    ``--threshold`` (default 10%). With differing digests the runs are not
    comparable, so timings are reported but never gated. ``--gate-costs``
    additionally fails the diff on any cost drift, regardless of digests —
    the gate for strategy A/Bs (executor changes, refactors) that
    must reproduce bit-identical costs.
    """
    from repro.perf.benchdiff import diff_bench, load_bench, render_bench_diff

    comparison = diff_bench(
        load_bench(args.old), load_bench(args.new), threshold=args.threshold
    )
    print(render_bench_diff(comparison))
    if comparison.gate_failed:
        raise SystemExit(1)
    if getattr(args, "gate_costs", False) and comparison.cost_drift:
        print(
            f"FAIL: --gate-costs with {len(comparison.cost_drift)} drifted "
            "cost entries"
        )
        raise SystemExit(1)
    return None


def _default_bench_dir() -> Path | None:
    """Locate ``benchmarks/`` next to the source tree (src layout checkout)."""
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "benchmarks"
        if (candidate / "conftest.py").is_file():
            return candidate
    return None


def _cmd_obs(args: argparse.Namespace) -> dict | None:
    """``repro obs {report,analyze,top}`` — inspect recorded or live telemetry."""
    if args.obs_command == "top":
        return _cmd_obs_top(args)
    if args.trace_file is None:
        print(f"repro obs {args.obs_command} needs a trace file", file=sys.stderr)
        raise SystemExit(2)
    if args.obs_command == "analyze":
        return _cmd_obs_analyze(args)
    events = api.read_trace(args.trace_file)
    print(api.render_trace_dashboard(events))
    manifest_path = manifest_path_for(args.trace_file)
    if manifest_path.is_file():
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        validate_manifest(manifest)
        print()
        print(
            f"manifest: seed={manifest['seed']} "
            f"config_hash={manifest['config_hash'][:12]} "
            f"trace_digest={manifest['trace']['digest'][:12]}"
        )
    return None


def _cmd_obs_analyze(args: argparse.Namespace) -> dict | None:
    """``repro obs analyze <trace>`` — deterministic post-mortem diagnosis.

    ``--json`` emits the canonical machine-readable report instead of the
    table; ``--strict`` exits non-zero unless the verdict is ``clean`` (the
    CI gate).
    """
    diagnosis = api.analyze_trace(api.read_trace(args.trace_file))
    if args.as_json:
        print(diagnosis.to_json())
    else:
        print(api.render_diagnosis(diagnosis))
    if args.strict and diagnosis.verdict != "clean":
        raise SystemExit(1)
    return None


def _cmd_obs_top(args: argparse.Namespace) -> dict | None:
    """``repro obs top`` — live dashboard polling a serve ``/slo`` endpoint."""
    import urllib.error
    import urllib.request

    endpoint = args.url.rstrip("/") + "/slo"
    history: list[dict] = []
    frame = 0
    try:
        while args.frames <= 0 or frame < args.frames:
            if frame:
                time.sleep(args.interval)
            try:
                with urllib.request.urlopen(endpoint, timeout=5.0) as response:
                    payload = json.loads(response.read().decode("utf-8"))
            except (OSError, urllib.error.URLError, ValueError) as exc:
                print(f"obs top: cannot poll {endpoint}: {exc}", file=sys.stderr)
                raise SystemExit(1) from exc
            history.append(payload)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(api.render_top_frame(history))
            frame += 1
    except KeyboardInterrupt:
        pass
    return None


def _trace_config(args: argparse.Namespace, command: str) -> dict:
    """The run-defining configuration recorded in the trace manifest.

    Deliberately excludes the executor/worker spec and output paths: the
    manifest (like the trace itself) must be byte-identical no matter how
    the run was parallelized or where its artifacts were written.
    """
    config: dict = {"command": command}
    for key in (
        "horizon",
        "window",
        "mode",
        "beta",
        "axis",
        "recover_tol",
        "strategy",
        "rps",
        "slot_seconds",
        "admission",
        "queue_depth",
        "max_requests",
        "pace",
    ):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    values = getattr(args, "values", None)
    if values is not None:
        config["values"] = [float(v) for v in values]
    seeds = getattr(args, "seeds", None)
    if seeds is not None:
        config["seeds"] = [int(s) for s in seeds]
    return config


def _write_trace_artifacts(args: argparse.Namespace, command: str, recorder) -> None:
    api.write_trace(args.trace, recorder)
    fault_schedule = None
    if command == "resilience":
        fault_schedule = api.default_fault_schedule(args.horizon).to_dict()
    manifest = api.run_manifest(
        seed=int(args.seeds[0]) if getattr(args, "seeds", None) else 0,
        config=_trace_config(args, command),
        events=recorder.events,
        fault_schedule=fault_schedule,
    )
    manifest_path = manifest_path_for(args.trace)
    api.write_manifest(manifest_path, manifest)
    print(
        f"wrote {args.trace} ({validate_trace(recorder.events)} events) "
        f"and {manifest_path}",
        file=sys.stderr,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Joint Online Edge Caching and Load Balancing "
        "for Mobile Data Offloading in 5G Networks' (ICDCS'19): headline "
        "comparison, figure sweeps, benchmarks, and fault resilience.",
    )
    # metavar hides the legacy aliases from --help while keeping them parseable.
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{run,sweep,bench,resilience,serve,obs}",
    )

    pr = sub.add_parser("run", help="headline policy comparison (Section V-C)")
    pr.add_argument("--beta", type=float, default=50.0)
    _add_common(pr)

    ps = sub.add_parser("sweep", help="parameter sweep (Figs. 2-5)")
    ps.add_argument(
        "--axis", choices=api.SWEEP_AXES, required=True, help="which parameter to sweep"
    )
    ps.add_argument(
        "--values",
        type=float,
        nargs="+",
        default=None,
        help="sweep grid (default: the figure's grid)",
    )
    _add_common(ps)

    pb = sub.add_parser(
        "bench", help="run the benchmark suite (BENCH_*.json) or diff its records"
    )
    pb.add_argument(
        "--scale",
        choices=("quick", "full", "paper"),
        default="quick",
        help="benchmark problem scale",
    )
    pb.add_argument("--filter", type=str, default=None, help="pytest -k expression")
    pb.add_argument("--path", type=str, default=None, help="benchmarks directory")
    pb_sub = pb.add_subparsers(
        dest="bench_command", metavar="{run,diff,matrix,profile}"
    )
    pb_run = pb_sub.add_parser("run", help="run the suite (the default)")
    # SUPPRESS keeps values parsed before the sub-verb ('bench --scale full
    # run') from being clobbered by the subparser's defaults.
    pb_run.add_argument(
        "--scale", choices=("quick", "full", "paper"), default=argparse.SUPPRESS
    )
    pb_run.add_argument("--filter", type=str, default=argparse.SUPPRESS)
    pb_run.add_argument("--path", type=str, default=argparse.SUPPRESS)
    pb_matrix = pb_sub.add_parser(
        "matrix",
        help="headline comparison per executor cell -> BENCH_matrix.json",
    )
    pb_matrix.add_argument("--beta", type=float, default=50.0)
    pb_matrix.add_argument(
        "--horizon", type=int, default=20, help="scenario horizon per cell"
    )
    pb_matrix.add_argument(
        "--workers",
        type=str,
        default="2,4",
        help="comma-separated pool widths in [2, 8] (default 2,4)",
    )
    pb_matrix.add_argument(
        "--out", type=str, default=None, help="output directory for the record"
    )
    pb_profile = pb_sub.add_parser(
        "profile",
        help="run one bench leg under cProfile -> PROFILE_<leg>.txt",
    )
    pb_profile.add_argument(
        "leg", help="bench leg name (e.g. 'headline' for bench_headline.py)"
    )
    pb_profile.add_argument(
        "--scale", choices=("quick", "full", "paper"), default=argparse.SUPPRESS
    )
    pb_profile.add_argument("--path", type=str, default=argparse.SUPPRESS)
    pb_profile.add_argument(
        "--top", type=int, default=30, help="rows in the self-time table"
    )
    pb_profile.add_argument(
        "--out", type=str, default=None, help="output directory for the table"
    )
    pb_diff = pb_sub.add_parser(
        "diff", help="compare two BENCH_*.json records, gate on wall-time"
    )
    pb_diff.add_argument("old", help="baseline BENCH_*.json")
    pb_diff.add_argument("new", help="candidate BENCH_*.json")
    pb_diff.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="gated wall-time regression fraction (default 0.10); the gate "
        "only fires when the records' configuration digests match",
    )
    pb_diff.add_argument(
        "--gate-costs",
        action="store_true",
        help="also fail on any cost drift between the records (works across "
        "differing config digests — the strategy A/B gate: e.g. serial and "
        "parallel runs must reproduce identical costs)",
    )

    pz = sub.add_parser(
        "resilience", help="policies under a seeded fault schedule (outage + degradation)"
    )
    pz.add_argument(
        "--recover-tol",
        type=float,
        default=0.05,
        help="relative tolerance for the recovery test",
    )
    _add_common(pz)

    pv = sub.add_parser(
        "serve", help="live request-path serving runtime (plan swaps at slot edges)"
    )
    pv.add_argument(
        "--rps",
        type=float,
        default=None,
        help="open-loop arrival rate (default: REPRO_SERVE_RPS or 200)",
    )
    pv.add_argument(
        "--slot-seconds",
        type=float,
        default=None,
        help="wall-clock length of one timeslot "
        "(default: REPRO_SERVE_SLOT_SECONDS or 0.25)",
    )
    pv.add_argument(
        "--admission",
        choices=ADMISSION_POLICIES,
        default=None,
        help="what to do when the solver falls behind: backpressure ('queue') "
        "or drop ('shed') (default: REPRO_SERVE_ADMISSION or 'queue')",
    )
    pv.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        help="admission queue depth (default: REPRO_SERVE_QUEUE_DEPTH or 256)",
    )
    pv.add_argument(
        "--strategy",
        choices=sorted(STRATEGIES),
        default="optimal-y",
        help="routing strategy for cache-hit requests",
    )
    pv.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="truncate the open-loop stream after this many requests",
    )
    pv.add_argument(
        "--pace",
        action="store_true",
        help="replay in real time (each request released at its virtual "
        "arrival) instead of as fast as the loop drains",
    )
    pv.add_argument(
        "--decision-log",
        type=str,
        default=None,
        metavar="PATH",
        help="write the canonical decision log (JSONL, sorted by seq) to PATH",
    )
    pv.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live /metrics, /healthz and /slo over HTTP on 127.0.0.1 "
        "at this port for the duration of the run (0 = ephemeral; default: "
        "REPRO_SERVE_METRICS_PORT or disabled)",
    )
    pv.add_argument(
        "--slo",
        type=str,
        default=None,
        metavar="SPEC",
        help="comma-separated SLO objectives evaluated with multi-window "
        "burn-rate alerting, e.g. 'p99_decision_us<200,shed_ratio<0.01' "
        "(default: REPRO_OBS_SLO or none)",
    )
    _add_common(pv)

    po = sub.add_parser(
        "obs", help="inspect recorded telemetry (see --trace) or a live run"
    )
    po.add_argument(
        "obs_command",
        choices=("report", "analyze", "top"),
        help="report: dashboard of a trace; analyze: post-mortem diagnosis; "
        "top: live dashboard polling a serve /slo endpoint",
    )
    # dest deliberately differs from the --trace *recording* option so the
    # dispatch loop never mistakes the input path for a recording request.
    po.add_argument(
        "trace_file",
        metavar="trace",
        type=str,
        nargs="?",
        default=None,
        help="trace file written by --trace (report/analyze only)",
    )
    po.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="analyze: emit the canonical JSON report instead of the table",
    )
    po.add_argument(
        "--strict",
        action="store_true",
        help="analyze: exit non-zero unless the verdict is 'clean'",
    )
    po.add_argument(
        "--url",
        type=str,
        default="http://127.0.0.1:9109",
        help="top: base URL of a running 'repro serve --metrics-port' endpoint",
    )
    po.add_argument(
        "--frames",
        type=int,
        default=0,
        help="top: number of refreshes before exiting (0 = until interrupted)",
    )
    po.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="top: seconds between refreshes",
    )
    po.add_argument(
        "--no-clear",
        action="store_true",
        help="top: append frames instead of clearing the screen",
    )

    # Hidden legacy aliases (fig2..fig5, headline, demo).
    p2 = sub.add_parser("fig2")
    p2.add_argument("--betas", type=float, nargs="+", default=None)
    _add_common(p2)
    p3 = sub.add_parser("fig3")
    p3.add_argument("--windows", type=int, nargs="+", default=None)
    _add_common(p3)
    p4 = sub.add_parser("fig4")
    p4.add_argument("--bandwidths", type=float, nargs="+", default=None)
    _add_common(p4)
    p5 = sub.add_parser("fig5")
    p5.add_argument("--etas", type=float, nargs="+", default=None)
    _add_common(p5)
    ph = sub.add_parser("headline")
    ph.add_argument("--beta", type=float, default=50.0)
    _add_common(ph)
    pd = sub.add_parser("demo")
    _add_common(pd)

    args = parser.parse_args(argv)
    started = time.perf_counter()

    command = args.command
    if command in _LEGACY_AXES:
        args.axis = _LEGACY_AXES[command]
        args.values = {
            "fig2": args.__dict__.get("betas"),
            "fig3": args.__dict__.get("windows"),
            "fig4": args.__dict__.get("bandwidths"),
            "fig5": args.__dict__.get("etas"),
        }[command]
        command = "sweep"
    elif command == "headline":
        command = "run"
    elif command == "demo":
        args.horizon = min(args.horizon, 30)
        args.window = min(args.window, 5)
        args.beta = 50.0
        command = "run"

    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "bench": _cmd_bench,
        "resilience": _cmd_resilience,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }

    # --verbose: route repro.* log records to stdout for this invocation.
    # The handler is created per call (not at import) so test harnesses that
    # replace sys.stdout see the output, and removed afterwards so repeated
    # main() calls never stack handlers.
    console: logging.Handler | None = None
    repro_logger = logging.getLogger("repro")
    if getattr(args, "verbose", False):
        console = logging.StreamHandler(sys.stdout)
        console.setFormatter(logging.Formatter("%(message)s"))
        console.setLevel(logging.INFO)
        repro_logger.addHandler(console)
        if repro_logger.level > logging.INFO or repro_logger.level == logging.NOTSET:
            repro_logger.setLevel(logging.INFO)

    trace_path = getattr(args, "trace", None)
    recorder = api.Recorder() if trace_path else None
    try:
        with api.record_into(recorder) if recorder is not None else nullcontext():
            payload = handlers[command](args)
    finally:
        if console is not None:
            repro_logger.removeHandler(console)

    if recorder is not None:
        _write_trace_artifacts(args, command, recorder)

    if getattr(args, "json", None) and payload is not None:
        _write_json(args.json, payload)

    elapsed = time.perf_counter() - started
    print(f"\ndone in {elapsed:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
