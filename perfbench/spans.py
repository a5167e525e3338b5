"""Span recording for the traced benchmark run.

The program is not changed: each public function a layer exposes is
replaced, at every module attribute that binds it, by a wrapper that
records a span (name, duration, parent) and optional counters, and the
originals are put back when the traced region ends. Spans stay in memory;
self time is a span's duration minus the time its direct child spans
cover, so summing self time over every span gives the time covered by the
outermost spans exactly once.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class SpanStat:
    calls: int = 0
    total: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """In-memory span aggregates keyed by span name and by (parent, child)."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.edges: dict[tuple, SpanStat] = defaultdict(SpanStat)
        self.counters: dict[str, float] = defaultdict(float)
        self.top_total = 0.0
        self._stack: list[list] = []

    def wrap(self, name: str, fn, count=None):
        """Wrap fn in a span; count(counters, args, kwargs, result) adds
        counters after the call returns."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - t0)
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def _close(self, frame, duration: float) -> None:
        self._stack.pop()
        name, child = frame
        stat = self.stats[name]
        stat.calls += 1
        stat.total += duration
        stat.child += child
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            edge = self.edges[(parent[0], name)]
            edge.calls += 1
            edge.total += duration
        else:
            self.top_total += duration

    def self_by_layer(self) -> dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        out: dict[str, float] = defaultdict(float)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_time
        return dict(out)


@contextlib.contextmanager
def patched(tracer: Tracer, functions, methods):
    """Route every binding of the given functions and methods through spans.

    functions: (defining module, attribute, span name, count or None);
    every module under the htdsm package that binds the same object (by
    identity) is patched, so `from x import f` copies are covered.
    methods: (class, method name, span name, count or None).
    """
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "htdsm" or name.startswith("htdsm."))
    ]
    saved = []
    try:
        for module, attr, span, count in functions:
            original = getattr(module, attr)
            wrapper = tracer.wrap(span, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr, span, count in methods:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(span, original, count))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)
