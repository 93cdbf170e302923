"""Compare two ``BENCH_*.json`` records — the ``repro bench diff`` backend.

Benchmarks persist machine-readable records (see ``benchmarks/conftest.py``)
so perf regressions are diffable without parsing tables. This module loads
two such records, separates *configuration* (what was measured) from
*results* (timings, costs, counters), and reports:

- **wall-times** — every top-level ``*_seconds`` field present in both
  records, with the new/old ratio. When the records' configuration digests
  match, a ratio above ``1 + threshold`` is a gated regression
  (:attr:`BenchComparison.regressions`); with differing digests the runs
  measured different things, so timings are reported but never gated.
- **costs** — per-policy metric values from the embedded sweep payload
  (everything except ``wall_time``), listing the entries that drifted.
- **counters** — the ``solve_counters`` snapshot (memo hit/miss and
  batched-pass counts recorded by the headline bench), side by side.
- **slo** — the serve bench's live-SLO block (decision-latency
  quantiles, shed/swap-drop ratios, alert counts), side by side.
  Informational only: latency quantiles are wall-clock measurements, so
  they are never gated.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


#: Top-level fields that are measurement outcomes or runtime *strategy*
#: (executor choice; the ``batched``, ``incremental`` and ``bw_closed_form``
#: stamps that older records carry), not problem configuration. Strategy
#: fields are excluded from the config digest on purpose: A/B runs of the
#: same problem under different strategies are exactly the comparisons the
#: wall-time gate exists for.
_RESULT_FIELDS = frozenset(
    {
        "speedup",
        "cpu_count",
        "workers",
        "executor",
        "batched",
        "incremental",
        "bw_closed_form",
        "costs_identical",
        "executors_identical",
        "parallel_skipped",
        "solve_counters",
        "sweep",
        "schedule",
        "policies",
        "events",
        "trace_digest",
        "overhead_fraction",
        "executors_checked",
        # serve-runtime measurement payloads (bench_serve)
        "paced",
        "replay",
        "deterministic",
        "strategies",
        "slo",
    }
)


def load_bench(path: str | Path) -> dict:
    """Load one ``BENCH_*.json`` record."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or "bench" not in record:
        raise ValueError(f"{path} is not a BENCH_*.json record (no 'bench' key)")
    return record


def config_digest(record: dict) -> str:
    """Digest of the record's configuration (never of its measurements).

    Two records with equal digests benchmarked the same thing — same bench,
    scale, and run parameters — so their wall-times are comparable and a
    slowdown is a genuine regression, not a config change.
    """
    config = {
        k: v
        for k, v in record.items()
        if k not in _RESULT_FIELDS and not k.endswith("_seconds")
    }
    sweep = record.get("sweep")
    if isinstance(sweep, dict):
        config["sweep"] = {
            k: sweep.get(k) for k in ("parameter", "values", "policies")
        }
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of diffing two benchmark records.

    ``wall_times`` maps each shared ``*_seconds`` field to
    ``(old, new, ratio)``; ``regressions`` lists the subset gated as
    regressions. ``cost_drift`` maps ``policy/metric`` to ``(old, new)``
    for drifted values only; ``counters`` merges both records'
    ``solve_counters`` (absent values are ``None``).
    """

    old_digest: str
    new_digest: str
    threshold: float
    wall_times: dict[str, tuple[float, float, float]] = field(default_factory=dict)
    regressions: tuple[str, ...] = ()
    cost_drift: dict[str, tuple[float, float]] = field(default_factory=dict)
    counters: dict[str, tuple[float | None, float | None]] = field(
        default_factory=dict
    )
    slo: dict[str, tuple[float | None, float | None]] = field(default_factory=dict)

    @property
    def comparable(self) -> bool:
        """Whether the two records share a configuration digest."""
        return self.old_digest == self.new_digest

    @property
    def gate_failed(self) -> bool:
        """True when a comparable pair shows a gated wall-time regression."""
        return self.comparable and bool(self.regressions)


def _sweep_metrics(record: dict) -> dict[str, float]:
    """Flatten the sweep payload to ``value/policy/metric -> number``."""
    out: dict[str, float] = {}
    sweep = record.get("sweep")
    if not isinstance(sweep, dict):
        return out
    for point in sweep.get("points", ()):
        for policy, metrics in point.get("metrics", {}).items():
            for metric, value in metrics.items():
                if metric == "wall_time" or not isinstance(value, (int, float)):
                    continue
                out[f"{point.get('value')}/{policy}/{metric}"] = float(value)
    return out


def _slo_metrics(record: dict) -> dict[str, float]:
    """Flatten a record's serve-SLO block to ``field -> number``.

    Handles the shape :meth:`repro.serve.ServeReport.to_dict` emits:
    scalar quantiles/ratios/alert counts at the top, a per-SBS
    utilization list underneath.
    """
    out: dict[str, float] = {}
    slo = record.get("slo")
    if not isinstance(slo, dict):
        return out
    for key, value in slo.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
        elif key == "sbs_utilization" and isinstance(value, (list, tuple)):
            for n, item in enumerate(value):
                if isinstance(item, (int, float)) and not isinstance(item, bool):
                    out[f"sbs_utilization/{n}"] = float(item)
    return out


def diff_bench(old: dict, new: dict, *, threshold: float = 0.10) -> BenchComparison:
    """Compare two benchmark records (see module docstring)."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    wall_times: dict[str, tuple[float, float, float]] = {}
    regressions: list[str] = []
    for key in old:
        if not key.endswith("_seconds") or key not in new:
            continue
        o, n = float(old[key]), float(new[key])
        ratio = n / o if o > 0 else float("inf")
        wall_times[key] = (o, n, ratio)
        if ratio > 1.0 + threshold:
            regressions.append(key)

    old_metrics = _sweep_metrics(old)
    new_metrics = _sweep_metrics(new)
    cost_drift = {
        key: (old_metrics[key], new_metrics[key])
        for key in old_metrics
        if key in new_metrics and old_metrics[key] != new_metrics[key]
    }

    counters: dict[str, tuple[float | None, float | None]] = {}
    old_counters = old.get("solve_counters") or {}
    new_counters = new.get("solve_counters") or {}
    for key in {**old_counters, **new_counters}:
        counters[key] = (old_counters.get(key), new_counters.get(key))

    slo: dict[str, tuple[float | None, float | None]] = {}
    old_slo = _slo_metrics(old)
    new_slo = _slo_metrics(new)
    for key in {**old_slo, **new_slo}:
        slo[key] = (old_slo.get(key), new_slo.get(key))

    return BenchComparison(
        old_digest=config_digest(old),
        new_digest=config_digest(new),
        threshold=threshold,
        wall_times=wall_times,
        regressions=tuple(sorted(regressions)),
        cost_drift=cost_drift,
        counters=counters,
        slo=slo,
    )


def render_bench_diff(cmp: BenchComparison) -> str:
    """Human-readable report of a :class:`BenchComparison`."""
    lines: list[str] = []
    if cmp.comparable:
        lines.append(f"config: identical (digest {cmp.old_digest[:12]})")
    else:
        lines.append(
            f"config: DIFFERS (old {cmp.old_digest[:12]}, new "
            f"{cmp.new_digest[:12]}) — wall-time gate disabled"
        )
    if cmp.wall_times:
        lines.append("wall-times:")
        for key, (o, n, ratio) in sorted(cmp.wall_times.items()):
            flag = "  << REGRESSION" if key in cmp.regressions else ""
            lines.append(f"  {key:<20} {o:>9.2f}s -> {n:>9.2f}s  x{ratio:.3f}{flag}")
    if cmp.cost_drift:
        lines.append(f"cost drift ({len(cmp.cost_drift)} entries):")
        for key, (o, n) in sorted(cmp.cost_drift.items()):
            rel = (n - o) / abs(o) if o else float("inf")
            lines.append(f"  {key:<40} {o:.4f} -> {n:.4f} ({rel:+.2%})")
    else:
        lines.append("cost drift: none")
    if cmp.counters:
        lines.append("solve counters:")
        for key, (o, n) in sorted(cmp.counters.items()):
            fmt = lambda v: "-" if v is None else f"{v:g}"  # noqa: E731
            lines.append(f"  {key:<24} {fmt(o):>10} -> {fmt(n):>10}")
    if cmp.slo:
        lines.append("serve SLO (informational, never gated):")
        for key, (o, n) in sorted(cmp.slo.items()):
            fmt = lambda v: "-" if v is None else f"{v:g}"  # noqa: E731
            lines.append(f"  {key:<24} {fmt(o):>10} -> {fmt(n):>10}")
    if cmp.gate_failed:
        lines.append(
            f"FAIL: wall-time regression beyond {cmp.threshold:.0%} on "
            f"{', '.join(cmp.regressions)}"
        )
    elif cmp.comparable:
        lines.append(f"OK: no wall-time regression beyond {cmp.threshold:.0%}")
    return "\n".join(lines)
