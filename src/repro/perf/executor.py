"""Shared parallel-execution layer for the sweep-point and per-SBS fan-outs.

The figure sweeps are separable per ``(value, seed, policy)`` point, and
the distributed solver per SBS (Eqs. 5, 6, 8 all sum per SBS). Both
fan-out sites funnel through the :class:`Executor` abstraction defined here
so that the execution strategy is a deployment choice, not an algorithmic
one:

- ``serial`` — plain in-process loop (the default; zero overhead);
- ``thread`` — a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (useful when the work releases the GIL or is I/O-bound);
- ``process`` — a shared :class:`~concurrent.futures.ProcessPoolExecutor`
  (the right choice for the CPU-bound pure-Python solver loops).

Selection is by explicit argument or by :class:`repro.config.RuntimeConfig`
(``executor="<kind>[:<n>]"``, e.g. ``thread``, ``process:4``; ``workers=n``
with no explicit kind selects the ``process`` backend). Precedence:
explicit argument > ``RuntimeConfig`` field > default (serial).

Determinism contract: :meth:`Executor.map` always returns results in the
order of its inputs, every task function used with it is pure, and callers
reduce in fixed SBS/point order — so results are bit-identical across the
three backends (asserted by ``tests/test_parallel_determinism.py``).

Nested fan-outs are collapsed automatically: code running inside a worker
(thread or process) resolves to the ``serial`` executor, so a parallel
sweep does not spawn a process pool per window solve.
"""

from __future__ import annotations

import atexit
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.config import RuntimeConfig
from repro.exceptions import ConfigurationError

_NESTED_ENV = "REPRO_NESTED_WORKER"

_KINDS = ("serial", "thread", "process")

_tls = threading.local()


def _mark_process_worker() -> None:
    """Process-pool initializer: flag the child so it never nests pools."""
    os.environ[_NESTED_ENV] = "1"


def in_worker() -> bool:
    """True when running inside an executor worker (thread or process)."""
    return bool(getattr(_tls, "in_worker", False)) or (
        os.environ.get(_NESTED_ENV) == "1"
    )


class Executor(ABC):
    """Ordered-map execution strategy; see module docstring."""

    kind: str
    workers: int

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every item; results in input order.

        ``fn`` must be pure. With the ``process`` backend it must also be a
        module-level (picklable) callable. Exceptions propagate.
        """

    def close(self) -> None:  # noqa: B027 — optional hook
        """Release pooled resources (no-op for poolless executors)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """In-process loop; the deterministic reference implementation."""

    kind = "serial"
    workers = 1

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        return [fn(item) for item in items]


def _run_marked(fn_item: tuple[Callable[[Any], Any], Any]) -> Any:
    """Thread-pool trampoline: run one task with the nested-worker flag set."""
    fn, item = fn_item
    _tls.in_worker = True
    try:
        return fn(item)
    finally:
        _tls.in_worker = False


class ThreadExecutor(Executor):
    """Shared thread pool; workers flag themselves to suppress nesting."""

    kind = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-exec"
                )
            return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        pool = self._ensure_pool()
        return list(pool.map(_run_marked, [(fn, item) for item in items]))

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


class ProcessExecutor(Executor):
    """Shared process pool for the CPU-bound solver loops.

    Children inherit the parent's modules (fork on Linux) and are flagged
    via :data:`_NESTED_ENV` so that any executor they resolve is serial.
    """

    kind = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_mark_process_worker
                )
            return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        pool = self._ensure_pool()
        return list(pool.map(fn, items))

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# ------------------------------------------------------------------ selection

def parse_spec(spec: str) -> tuple[str, int | None]:
    """Parse ``"kind"`` or ``"kind:workers"`` into its components."""
    kind, _, count = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown executor kind {kind!r}; pick from {_KINDS}"
        )
    if not count:
        return kind, None
    try:
        workers = int(count)
    except ValueError as exc:
        raise ConfigurationError(f"bad worker count in spec {spec!r}") from exc
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return kind, workers


_shared: dict[tuple[str, int], Executor] = {}
_shared_lock = threading.Lock()
_SERIAL = SerialExecutor()


def _shared_executor(kind: str, workers: int) -> Executor:
    """Process/thread pools are expensive; share them per (kind, workers)."""
    key = (kind, workers)
    with _shared_lock:
        ex = _shared.get(key)
        if ex is None:
            ex = (ThreadExecutor if kind == "thread" else ProcessExecutor)(workers)
            _shared[key] = ex
        return ex


@atexit.register
def _close_shared() -> None:  # pragma: no cover - interpreter shutdown
    with _shared_lock:
        for ex in _shared.values():
            ex.close()
        _shared.clear()


def default_workers() -> int:
    """The usable CPU count (the worker count of a kind-only spec)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def get_executor(
    spec: "Executor | str | None" = None,
    *,
    workers: int | None = None,
    config: RuntimeConfig | None = None,
) -> Executor:
    """Resolve an executor from an explicit spec or config.

    Precedence: an :class:`Executor` instance is passed through; a string
    spec (``"process:4"``) wins over ``config``; the default is serial.
    Inside a worker the result is always serial (no nested pools).
    """
    if isinstance(spec, Executor):
        return spec
    if in_worker():
        return _SERIAL

    if config is not None:
        if spec is None:
            spec = config.executor
        if workers is None:
            workers = config.workers

    kind: str | None = None
    spec_workers: int | None = None
    if spec is not None:
        kind, spec_workers = parse_spec(spec)

    if workers is None:
        workers = spec_workers
    if workers is None:
        workers = default_workers() if kind else 1

    if kind is None:
        kind = "process" if workers > 1 else "serial"
    if kind == "serial" or workers <= 1:
        return _SERIAL
    return _shared_executor(kind, workers)


def resolve_executor(
    executor: "Executor | str | None", *, config: RuntimeConfig | None = None
) -> Executor:
    """Normalize the ``executor`` argument accepted across the library."""
    return get_executor(executor, config=config)


# ----------------------------------------------------------- recorded fan-out

def _recorded_call(fn_item: tuple[Callable[[Any], Any], Any]) -> tuple[Any, Any]:
    """Run one task inside a fresh recorder; module-level for pickling.

    ContextVars do not propagate into pool workers, so the parent's ambient
    recorder cannot simply be inherited — instead every task gets its own
    recorder whose events/metrics travel back with the result.
    """
    from repro.obs.recorder import Recorder, record_into

    recorder = Recorder()
    with record_into(recorder):
        return fn_item[0](fn_item[1]), recorder


def map_recorded(
    executor: Executor,
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    recorder: "Any",
) -> list[Any]:
    """Ordered map that merges per-task telemetry into ``recorder``.

    Each task runs with a *fresh* ambient recorder (even on the serial
    backend, so serial and pooled runs produce identical traces); the
    per-task recorders are merged into ``recorder`` in task-input order —
    the same ordered-reduce discipline as
    :meth:`repro.perf.timers.StageTimers.merge` — making the combined
    event stream independent of worker scheduling. Returns the mapped
    results in input order.
    """
    pairs = executor.map(_recorded_call, [(fn, item) for item in items])
    results = []
    for result, task_recorder in pairs:
        recorder.merge(task_recorder)
        results.append(result)
    return results
