"""Span recording and self-time attribution for the traced benchmark runs.

A span is one timed call: name, start, end, the span that caused it, and the
process it ran in.  Times come from ``time.perf_counter``, which on Linux
reads CLOCK_MONOTONIC, so spans taken in the CLI process, its pool workers and
the benchmark process share one time axis.  Spans stay in memory and are
written out once, when the traced command ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time


class TimedSpan:
    """Picklable wrapper that returns ``(result, start, end, pid)``.

    ``parallel.run_chunked`` pickles its span function into pool workers, so
    the wrapper must be a module-level class, not a closure.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, lo, hi, *args):
        start = time.perf_counter()
        result = self.fn(lo, hi, *args)
        return result, start, time.perf_counter(), os.getpid()


def span_name(fn) -> str:
    return f"span:{fn.__module__}.{fn.__name__}"


class Recorder:
    """In-memory span list with a stack for parent links."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name, start, end, parent=None, pid=None) -> int:
        self.spans.append({
            "id": len(self.spans),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "pid": os.getpid() if pid is None else pid,
        })
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name):
        sid = self.add(name, time.perf_counter(), None,
                       self._stack[-1] if self._stack else None)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def wrap(self, module, attr, name):
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)

    def wrap_run_chunked(self, parallel):
        """Trace ``parallel.run_chunked`` and every span it cuts, in or out of
        process, by handing it a ``TimedSpan`` and unwrapping the results."""
        original = parallel.run_chunked

        @functools.wraps(original)
        def run_chunked(fn, lo, hi, workers, args=()):
            with self.span("parallel.run_chunked") as sid:
                parts = original(TimedSpan(fn), lo, hi, workers, args)
            for _, start, end, pid in parts:
                self.add(span_name(fn), start, end, sid, pid)
            return [part[0] for part in parts]

        parallel.run_chunked = run_chunked


def covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
