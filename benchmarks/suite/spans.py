"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions at their call sites — the name a
caller module looked up at import time — and restores the originals on
exit, so no library file changes. Spans stay in memory and are written
as JSONL once the run ends. Each thread keeps its own span stack, because
the serve planner solves windows in a worker thread while the event loop
routes requests on the main one.

A layer's self time is its spans' duration minus the duration of their
direct children (children nest strictly inside their parent on the same
thread).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: ``(span name, module, attribute)``: every call-site binding the traced
#: run wraps. A layer imported by several modules is wrapped at each.
SITES: tuple[tuple[str, str, str], ...] = (
    ("sim.evaluate_plan", "repro.sim.runner", "evaluate_plan"),
    ("online.solve_window", "repro.core.online.rhc", "solve_window"),
    ("online.solve_window", "repro.core.online.fhc", "solve_window"),
    ("online.round_caching", "repro.core.online.chc", "round_caching"),
    ("alg1", "repro.core.online.base", "solve_primal_dual"),
    ("alg1", "repro.core.offline", "solve_primal_dual"),
    ("alg1", "repro.api", "solve_primal_dual"),
    ("p1", "repro.core.primal_dual", "solve_caching"),
    ("capped", "repro.core.caching_lp", "capped_cancel_stack"),
    ("p2", "repro.core.primal_dual", "solve_p2"),
    ("repair", "repro.core.primal_dual", "solve_y_given_x"),
    ("oracle", "repro.sim.engine", "solve_y_given_x"),
    ("waterfill", "repro.core.load_balancing", "waterfill_batch"),
    ("waterfill", "repro.core.polish", "waterfill_batch"),
    ("polish", "repro.core.offline", "polish_caching"),
    ("serve.plan_solve", "repro.serve.loop", "solve_window"),
)

#: Span names in report order; ``serve.route`` is stamped by the serve
#: client's routing wrapper rather than patched.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(s[0] for s in SITES)) + (
    "serve.route",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    run_id: int
    thread: str


class Tracer:
    """Collects nested spans; ``run_id`` tags spans with the current run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self.alg1_iterations = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, run_id: int | None = None) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(
                name,
                start,
                end,
                span_id,
                parent,
                self.run_id if run_id is None else run_id,
                threading.current_thread().name,
            )
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Under serve the planner's spans carry the slot they solve.
            run_id = kwargs.get("decided_at") if name == "serve.plan_solve" else None
            with self.span(name, run_id):
                result = fn(*args, **kwargs)
            if name == "alg1":
                self.alg1_iterations += result.iterations
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every :data:`SITES` binding and restore the originals on
        exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for name, module_name, attr in SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls``, ``total_s`` and ``self_s``."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = child_time.get(
                    span.parent_id, 0.0
                ) + (span.end - span.start)
        stats = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS
        }
        for span in self.spans:
            row = stats[span.name]
            duration = span.end - span.start
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(span.span_id, 0.0)
        return stats

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
