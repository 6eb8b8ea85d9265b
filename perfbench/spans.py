"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start_ns, end_ns, parent, value)``: ``parent`` is the
index of the enclosing span opened on the same thread (``-1`` for a root)
and ``value`` is an optional count the wrapper measured (epochs, rows,
bytes, gates).  Timestamps come from ``time.perf_counter_ns``, which is
``CLOCK_MONOTONIC`` on Linux and therefore comparable across the benchmark,
the server and every forked worker on one host.

Spans stay in memory while the run is measured.  A forked child resets the
copy it inherited and dumps its own spans to a JSON file when it exits
(:meth:`SpanRecorder.dump`); the benchmark process merges those files at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``(name, start_ns, end_ns, parent_index, value)``; ``end_ns`` is -1 while open.
Span = List

#: ``value(args, kwargs, result) -> float`` counts a wrapped call's work.
Measure = Callable[[tuple, dict, object], float]


class SpanRecorder:
    """Collects spans per process; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget every span, including those a forked child inherited."""
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span on this thread, nested under its open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter_ns(), -1, parent, 0.0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int, value: float = 0.0) -> None:
        """End the span ``index`` (the innermost open one on this thread)."""
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = float(value)
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int, value: float = 0.0) -> None:
        """Record a finished root span whose ends were taken elsewhere."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, -1, float(value)])

    def wrap(self, name: str, fn: Callable, measure: Optional[Measure] = None) -> Callable:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            value = 0.0
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, kwargs, result)
                return result
            finally:
                self.close(index, value)

        traced.__perfbench_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write this process's finished spans as one JSON document."""
        finished = [span for span in list(self.spans) if span[2] >= 0]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": finished}, handle)
        os.replace(tmp, path)


def load_span_files(paths: Iterable[str]) -> List[Tuple[int, List[Span]]]:
    """``(pid, spans)`` for every span file a child process dumped."""
    loaded = []
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        loaded.append((int(doc["pid"]), [list(span) for span in doc["spans"]]))
    return loaded


def union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    Children are the spans whose ``parent`` index points at the span; their
    intervals are clipped to the parent's and merged before subtracting, so
    overlapping children are not counted twice.
    """
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        parent = span[3]
        if parent >= 0 and span[2] >= 0:
            children.setdefault(parent, []).append((span[1], span[2]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        if end < 0:
            result.append(0)
            continue
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - union_ns(clipped))
    return result
