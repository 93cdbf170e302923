"""Section V-C(1) — the headline comparison at ``beta = 50``.

The paper reports RHC/CHC/AFHC reducing total cost by 27%/20%/17% versus
LRFU, with cost ratios to offline of 1.02/1.08/1.11 (LRFU: 1.30). The
asserted reproduction target is the *ordering and sidedness* (see
EXPERIMENTS.md for the measured factors): offline <= RHC <= CHC/AFHC <=
LRFU, online savings strictly positive.

This bench also doubles as the parallel-runtime regression check: it runs
the comparison serially — recording the incremental re-solve counters into
``solve_counters`` — and again through a worker pool, asserting the cost
metrics are bit-identical. Worker count is clamped to the host's cores; on
a single-core host the process pool would only measure IPC overhead, so
the identity check runs on a 2-thread pool instead and the record carries
a ``parallel_skipped`` explanation. Timings, counters, and the speedup
land in ``BENCH_headline.json`` — diffable via ``repro bench diff``. The
>= 2x speedup assertion only fires on hosts with at least 4 cores.
"""

from __future__ import annotations

import os
import time

from repro.api import (
    Recorder,
    headline_comparison,
    record_into,
    render_headline_table,
    sweep_to_dict,
)
from repro.config import (
    resolved_batched,
    resolved_batched_ties,
    resolved_bw_closed_form,
    resolved_incremental,
)

PARALLEL_WORKERS = 4

#: Counters snapshotted into the bench record (unlabeled totals).
_SOLVE_COUNTERS = (
    "p1_memo_hits",
    "p1_memo_misses",
    "p1_batched_solves",
    "p1_batched_capped",
    "p1_batched_fallbacks",
    "p1_quant_memo_hits",
    "flow_warm_resumes",
    "flow_warm_bailouts",
    "flow_warm_disabled_keys",
    "p2_bw_bound_rows",
    "p2_bw_closed_form",
    "p2_bisection_fallbacks",
    "p2_bisection_fills",
)


def _cost_metrics(sweep):
    """All recorded metrics except the timing measurement."""
    return {
        name: {m: v for m, v in vals.items() if m != "wall_time"}
        for name, vals in sweep.points[0].metrics.items()
    }


def _solve_counters(recorder: Recorder) -> dict[str, float]:
    counters = {
        name: recorder.metrics.counter(name) for name in _SOLVE_COUNTERS
    }
    lookups = counters["p1_memo_hits"] + counters["p1_memo_misses"]
    counters["p1_memo_hit_rate"] = (
        counters["p1_memo_hits"] / lookups if lookups else 0.0
    )
    return counters


def test_headline_beta50(benchmark, bench_scale, save_report, save_json):
    kwargs = dict(
        beta=50.0, seeds=bench_scale.seeds, horizon=bench_scale.horizon
    )
    cpu_count = os.cpu_count() or 1
    # A pool wider than the host only adds oversubscription noise; on a
    # single-core host even a 2-process pool measures nothing but IPC, so
    # the determinism check falls back to threads.
    workers = max(2, min(PARALLEL_WORKERS, cpu_count))
    executor = f"process:{workers}" if cpu_count > 1 else "thread:2"

    recorder = Recorder()

    def serial_leg():
        with record_into(recorder):
            return headline_comparison(**kwargs)

    serial_started = time.perf_counter()
    sweep = benchmark.pedantic(serial_leg, rounds=1, iterations=1)
    serial_seconds = time.perf_counter() - serial_started

    parallel_started = time.perf_counter()
    parallel = headline_comparison(executor=executor, **kwargs)
    parallel_seconds = time.perf_counter() - parallel_started

    # Determinism contract: the executor must not change a single number.
    assert _cost_metrics(parallel) == _cost_metrics(sweep)

    speedup = serial_seconds / max(parallel_seconds, 1e-9)
    save_report(
        f"headline_beta50_{bench_scale.name}", render_headline_table(sweep)
    )
    payload = {
        "beta": 50.0,
        # ``batched`` lives at the top level on purpose: it enters the
        # config digest, so ``repro bench diff`` tells a batched-strategy
        # change apart from a workload change instead of gating wall-times
        # across them.
        "batched": resolved_batched(None),
        # ``bw_closed_form`` is a runtime *strategy* like ``incremental``:
        # it is excluded from the diff config digest, so a closed-form
        # off/on pair diffs as the same workload and ``--gate-costs``
        # checks the solutions really are bit-identical across kernels.
        "bw_closed_form": resolved_bw_closed_form(None),
        # ``batched_ties`` follows the same strategy-field pattern: the
        # ties off/on pair shares a digest, so CI's A/B gates both the
        # costs (bit-identical by the canonical tie discipline) and the
        # wall time.
        "batched_ties": resolved_batched_ties(None),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "workers": workers,
        "executor": executor,
        "cpu_count": cpu_count,
        "incremental": resolved_incremental(None),
        "solve_counters": _solve_counters(recorder),
        "costs_identical": True,
        "sweep": sweep_to_dict(sweep),
    }
    if cpu_count == 1:
        payload["parallel_skipped"] = (
            "single-core host: a process pool would only measure IPC "
            "overhead, so the identity leg ran on thread:2 and its timing "
            "is not a parallelism measurement"
        )
    save_json("headline", payload)
    print(
        f"\nserial {serial_seconds:.1f}s, {executor} "
        f"{parallel_seconds:.1f}s -> {speedup:.2f}x on {cpu_count} cores"
    )
    if cpu_count >= PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"expected >= 2x with {workers} workers on "
            f"{cpu_count} cores, got {speedup:.2f}x"
        )

    metrics = sweep.points[0].metrics
    totals = {name: vals["total"] for name, vals in metrics.items()}
    offline = totals["Offline"]
    lrfu = totals["LRFU"]
    rhc = next(v for k, v in totals.items() if k.startswith("RHC"))
    chc = next(v for k, v in totals.items() if k.startswith("CHC"))
    afhc = next(v for k, v in totals.items() if k.startswith("AFHC"))

    # Offline is the lower bound; LRFU the worst of the comparison set
    # (up to a small seed-noise slack for the online/LRFU comparison).
    for v in (rhc, chc, afhc, lrfu):
        assert v >= offline - 0.01 * offline
    assert lrfu >= max(rhc, chc, afhc) - 0.02 * lrfu

    # The best online algorithm saves versus LRFU.
    assert min(rhc, chc, afhc) < lrfu

    # RHC is (near-)closest to offline among the online algorithms.
    assert rhc <= min(chc, afhc) * 1.05

    # With the incremental layer on, the memo must actually be exercised
    # (the best-dual recovery and stall re-anchor guarantee hits on the
    # online legs).
    if payload["incremental"]:
        assert payload["solve_counters"]["p1_memo_hits"] > 0

    # With the batched core on, every memo miss must be accounted for by
    # the relaxation pass: either answered there or counted as a fallback
    # to the per-SBS backends. (Misses are only counted when the memo is
    # active, so the identity needs the incremental layer too.)
    if payload["batched"] and payload["incremental"]:
        counters = payload["solve_counters"]
        assert (
            counters["p1_batched_solves"] + counters["p1_batched_fallbacks"]
            == counters["p1_memo_misses"]
        )
        # Tie-aware acceptance closes the fallback storm: the paper's
        # uniform-cost scenarios are tie-degenerate by construction, and
        # with the canonical discipline those rows are accepted, not
        # punted to the per-SBS loop. Gate the rate on the quick scale
        # (the scale CI runs and the one the threshold was measured on).
        if payload["batched_ties"] and bench_scale.name == "quick":
            misses = counters["p1_memo_misses"]
            rate = counters["p1_batched_fallbacks"] / misses if misses else 0.0
            assert rate <= 0.05, (
                f"batched P1 fallback rate {rate:.3f} > 0.05 "
                f"({counters['p1_batched_fallbacks']:.0f} of {misses:.0f} "
                "misses fell back to the per-SBS backends)"
            )

    # Every bandwidth-bound P2 row is accounted for: answered by the
    # closed-form parametric solve or counted as a bisection fallback.
    counters = payload["solve_counters"]
    assert (
        counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
        == counters["p2_bw_bound_rows"]
    )
