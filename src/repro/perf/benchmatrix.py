"""Strategy-matrix benchmark — the ``repro bench matrix`` backend.

Runs the Section V-C(1) headline comparison through every executor cell —
serial, thread pools and process pools at the requested worker counts —
and emits one ``repro bench diff``-compatible record:

- every cell's wall-time lands as a top-level ``<cell>_seconds`` field, so
  two matrix records diff cell-by-cell with the ordinary wall-time gate;
- the cost metrics of the serial baseline are embedded as the ``sweep``
  payload, so ``--gate-costs`` works across matrix records;
- ``costs_identical`` asserts the determinism contract *within* the run:
  every cell must reproduce the baseline's cost metrics bit for bit
  (executors select strategy, not semantics).

Worker counts are clamped to ``[2, 8]`` per the CI matrix contract and to
the host's core count (a pool wider than the host only measures
oversubscription noise).
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.obs import Recorder, record_into

#: Counters snapshotted from the serial baseline cell.
_SOLVE_COUNTERS = (
    "p1_memo_hits",
    "p1_memo_misses",
    "p1_batched_solves",
    "p1_batched_fallbacks",
    "p2_bw_bound_rows",
    "p2_bw_closed_form",
    "p2_bisection_fallbacks",
    "p2_bisection_fills",
    "p2_bisection_replayed",
    "p2_bisection_fixed_depth",
)


def _cost_metrics(sweep) -> dict:
    """All recorded metrics except the timing measurement."""
    return {
        name: {m: v for m, v in vals.items() if m != "wall_time"}
        for name, vals in sweep.points[0].metrics.items()
    }


def matrix_cells(
    workers: Sequence[int], cpu_count: int | None = None
) -> list[tuple[str, str]]:
    """The ``(label, executor spec)`` grid, one entry per strategy cell.

    Labels are stable identifiers (``serial``, ``thread4``, ``process2``)
    used to build the record's ``<label>_seconds`` keys.
    """
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    ws: list[int] = []
    for w in workers:
        w = int(w)
        if not 2 <= w <= 8:
            raise ConfigurationError(
                f"matrix worker counts must be in [2, 8], got {w}"
            )
        w = min(w, max(2, cpus))
        if w not in ws:
            ws.append(w)
    cells = [("serial", "serial")]
    for kind in ("thread", "process"):
        for w in sorted(ws):
            cells.append((f"{kind}{w}", f"{kind}:{w}"))
    return cells


def run_bench_matrix(
    *,
    beta: float = 50.0,
    seeds: Sequence[int] = (1,),
    horizon: int = 20,
    workers: Sequence[int] = (2, 4),
    verbose: bool = False,
) -> dict:
    """Run the full strategy matrix; returns the benchmark record."""
    from repro.api import headline_comparison, sweep_to_dict

    cpu_count = os.cpu_count() or 1
    cells = matrix_cells(workers, cpu_count)
    record: dict = {
        "bench": "matrix",
        "beta": beta,
        "horizon": horizon,
        "seeds": list(int(s) for s in seeds),
        "cpu_count": cpu_count,
        "cells": [],
    }
    baseline_metrics = None
    costs_identical = True
    for label, spec in cells:
        recorder = Recorder()
        started = time.perf_counter()
        with record_into(recorder):
            sweep = headline_comparison(
                beta=beta,
                seeds=seeds,
                horizon=horizon,
                executor=None if spec == "serial" else spec,
            )
        elapsed = time.perf_counter() - started
        record[f"{label}_seconds"] = elapsed
        record["cells"].append(label)
        metrics = _cost_metrics(sweep)
        if baseline_metrics is None:
            # Serial is the first cell visited: it is the baseline whose
            # sweep payload the record carries.
            baseline_metrics = metrics
            record["sweep"] = sweep_to_dict(sweep)
            record["solve_counters"] = {
                name: recorder.metrics.counter(name) for name in _SOLVE_COUNTERS
            }
        elif metrics != baseline_metrics:
            costs_identical = False
        if verbose:
            print(f"  {label:<24} {elapsed:8.2f}s")
    record["costs_identical"] = costs_identical
    counters = record["solve_counters"]
    # The bound-row accounting identities must hold on the baseline cell:
    # every bound row is closed-form or bisected, and every bisected row is
    # answered by the threshold search or the fixed-depth bisection.
    if (
        counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
        != counters["p2_bw_bound_rows"]
        or counters["p2_bisection_replayed"] + counters["p2_bisection_fixed_depth"]
        != counters["p2_bisection_fallbacks"]
    ):
        raise AssertionError(
            "P2 bound-row accounting broken: "
            f"{counters['p2_bw_closed_form']} closed + "
            f"{counters['p2_bisection_fallbacks']} fallbacks "
            f"({counters['p2_bisection_replayed']} replayed, "
            f"{counters['p2_bisection_fixed_depth']} fixed-depth) vs "
            f"{counters['p2_bw_bound_rows']} bound"
        )
    return record
