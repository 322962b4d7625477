"""Span recording, self time, percentiles and metric names.

The benchmark records spans from its own code, around each call it makes
into a layer's public API; nothing inside the program is instrumented.
A span has a name, a start and an end (``perf_counter_ns``), the span
that was open when it began (its parent) and a trace id.  One trace id
covers a whole pipeline pass, or a single registry request.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import re
import time
from contextlib import contextmanager, nullcontext
from typing import Iterable, Optional, Sequence

__all__ = ["Span", "Recorder", "NULL_RECORDER", "self_times", "percentile",
           "MIN_TAIL", "valid_metric_name", "write_spans"]

#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """A metric name: a letter or digit, then at most 63 of
    ``[A-Za-z0-9_.-]``."""
    return _NAME.fullmatch(name) is not None


class Span:
    __slots__ = ("id", "name", "trace", "parent", "start", "end")

    def __init__(self, id: int, name: str, trace: int, parent: int,
                 start: int):
        self.id = id
        self.name = name
        self.trace = trace
        self.parent = parent           # -1 for a root span
        self.start = start
        self.end = start

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.trace, self.id, self.parent, self.name, self.start,
                self.end]


class Recorder:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._traces = 0

    def new_trace(self) -> int:
        self._traces += 1
        return self._traces

    @contextmanager
    def span(self, name: str, *, trace: Optional[int] = None):
        """Time the enclosed block.  Without *trace* the span joins its
        parent's trace (a root span starts a new one)."""
        parent = self._stack[-1] if self._stack else None
        if trace is None:
            trace = parent.trace if parent is not None else self.new_trace()
        span = Span(len(self.spans), name, trace,
                    parent.id if parent is not None else -1,
                    time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()


class _NullRecorder:
    """Stands in for a recorder in untraced passes: records nothing."""

    spans: Sequence[Span] = ()

    def new_trace(self) -> int:
        return 0

    def span(self, name: str, *, trace: Optional[int] = None):
        return nullcontext()


NULL_RECORDER = _NullRecorder()


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of its
    interval that its child spans cover (overlapping children count
    once; a child sticking out of its parent counts only inside it)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.id, ()),
                            key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def percentile(values: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank *q*-quantile of *values*, or None when fewer than
    :data:`MIN_TAIL` samples lie beyond it (the tail would be a guess)."""
    ordered = sorted(values)
    n = len(ordered)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1): {q}")
    rank = max(1, math.ceil(q * n))       # 1-based nearest rank
    if n - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


def write_spans(path, spans_by_pass: Sequence[tuple[int, Sequence[Span]]]
                ) -> None:
    """One JSON list per line: ``[pass, trace, id, parent, name,
    start_ns, end_ns]``."""
    with open(path, "w") as fh:
        for index, spans in spans_by_pass:
            for span in spans:
                fh.write(json.dumps([index, *span.as_list()]) + "\n")
