"""Spans recorded around the benchmark's calls into sectornet.

A :class:`Tracer` keeps one record per call in memory: name, start, end,
parent span and op id.  Nothing is written until the run ends.  The
untraced runs use :class:`NullTracer`, whose ``call`` is a plain
function call, so the end-to-end metrics carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable


class NullTracer:
    """Tracing off: calls go straight through."""

    op = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """Tracing on: every call becomes a span ``[name, start, end, parent, op]``.

    ``op`` is the id of the op being run (-1 during set-up); the caller
    sets it before each op.  Spans nest by call order, since the run has
    one thread.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def busy(self) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name.

        A span's self time is its duration minus the durations of its
        direct children, which lie inside it.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, tuple[float, int]] = {}
        for sid, (name, start, end, _, _) in enumerate(spans):
            busy, calls = out.get(name, (0.0, 0))
            out[name] = (busy + (end - start) - child_time[sid], calls + 1)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
