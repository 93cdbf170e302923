"""Performance infrastructure: executors (parallel fan-out) and timers.

See ``DESIGN.md`` ("Performance architecture") for how the pieces fit:
:mod:`repro.perf.executor` is the shared serial/thread/process execution
layer used by the distributed and sweep fan-outs, and
:mod:`repro.perf.timers` provides the stage timers surfaced in solver
results and ``BENCH_*.json`` reports.
"""

from repro.perf.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    default_workers,
    get_executor,
    in_worker,
    parse_spec,
    resolve_executor,
)
from repro.perf.timers import StageTimers

__all__ = [
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "StageTimers",
    "default_workers",
    "get_executor",
    "in_worker",
    "parse_spec",
    "resolve_executor",
]
