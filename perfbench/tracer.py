"""Spans recorded from outside the program, by rebinding module attributes.

Tracer.wrap replaces a function on the module object its callers look it
up on, so one wrapper covers every call made through that binding. A span
is (name, parent span, start, end); spans stay in memory until dump().
A span's self time is its duration minus the durations of its direct
children, so the self times of a subtree sum to its root's duration.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Time spent computing counters from a call's arguments and result. It is
# recorded as its own span so that it is not charged to the caller's self
# time, and it belongs to no program layer.
OBSERVE = "trace.observe"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Rebind owner.attr to a traced wrapper. observe(counts, args,
        kwargs, result) may add counters for successful calls."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                self.span(OBSERVE, observe, self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def self_times(self) -> list[float]:
        child_total = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_total[parent] += self.ends[sid] - self.starts[sid]
        return [self.ends[i] - self.starts[i] - child_total[i]
                for i in range(len(self.names))]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for sid, self_s in enumerate(self.self_times()):
            entry = out.setdefault(self.names[sid],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.ends[sid] - self.starts[sid]
            entry["self_s"] += self_s
        return out

    def subtree_self(self, root_name: str) -> tuple[float, float]:
        """(sum of self times inside every root_name span, sum of those
        spans' durations). Equal up to rounding when the spans nest."""
        inside = [False] * len(self.names)
        total = 0.0
        for sid, name in enumerate(self.names):
            parent = self.parents[sid]
            inside[sid] = name == root_name or (parent >= 0 and inside[parent])
            if name == root_name and not (parent >= 0 and inside[parent]):
                total += self.ends[sid] - self.starts[sid]
        self_sum = sum(s for s, flag in zip(self.self_times(), inside) if flag)
        return self_sum, total

    def dump(self, path) -> None:
        """Write every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "starts": self.starts, "ends": self.ends,
                       "counts": dict(self.counts)}, fh)
