"""Spans around the benchmark's calls into shiftlab, kept in memory.

A :class:`Tracer` is called in place of a layer function: ``t(fn, *args)``.
Disabled, it only forwards the call.  Enabled, it records one span per call
(name, start, end, parent span, task id) and accumulates the counts the tasks
report.  Spans inside ``src/`` are not recorded; a layer's span covers the
whole public call the benchmark made.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "task": self.task,
        }


def layer_name(fn) -> str:
    """``shiftlab.generators.oracle_from_prefix`` -> ``generators.oracle_from_prefix``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._task = -1

    def __call__(self, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self._span(layer_name(fn)):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    @contextmanager
    def task(self, task_id: int, name: str):
        """Root span of one task; the layer spans inside it share its id."""
        self._task = task_id
        if not self.enabled:
            yield
            return
        with self._span(f"task.{name}"):
            yield

    @contextmanager
    def _span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self._task))


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    Self time is a span's duration minus the time its child spans cover;
    one thread runs the tasks, so children never overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        entry = out[s.name]
        entry[0] += 1
        entry[1] += (s.end - s.start) - child_time[s.sid]
    return {name: (calls, total) for name, (calls, total) in out.items()}
