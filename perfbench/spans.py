"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent); the parent is the index of the span
that was open when this one started, or -1.  Spans are stored in flat
arrays so a long traced run stays small, and are written out when the run
ends.  Spans come only from the benchmark's own wrappers: nothing inside
the library is instrumented.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

from measure import percentile

# Enough spans for stable medians; a traced round that would pass it is
# not started, so the array never holds more than one round beyond it.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.raised = array("B")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def full(self) -> bool:
        return len(self.start) >= SPAN_CAP

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around each call.

        ``count(args, result)``, if given, adds to ``counts[name]``: work done
        at this boundary, such as operators applied or orbit size.
        """
        name_id = self._name_id(name)
        stack, pc = self._stack, time.perf_counter
        name_of, start, end, parent, raised = (
            self.name_of, self.start, self.end, self.parent, self.raised,
        )
        counts = self.counts

        def traced(*args):
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            raised.append(1)
            stack.append(index)
            start.append(pc())
            try:
                result = fn(*args)
            finally:
                end[index] = pc()
                stack.pop()
            raised[index] = 0
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[index] - self.start[index]
        return own

    def by_name(self, scale: float = 1.0) -> dict[str, dict]:
        """Per span name: calls, raised, median duration and total self time.

        Durations are multiplied by ``scale`` (a calibration factor).
        """
        own = self.self_times()
        durations: dict[str, list] = defaultdict(list)
        self_total: dict[str, float] = defaultdict(float)
        raised: dict[str, int] = defaultdict(int)
        for index, name_id in enumerate(self.name_of):
            name = self.names[name_id]
            durations[name].append((self.end[index] - self.start[index]) * scale)
            self_total[name] += own[index] * scale
            raised[name] += self.raised[index]
        all_self = sum(self_total.values()) or 1.0
        return {
            name: {
                "calls": len(values),
                "raised": raised[name],
                "median_us": percentile(sorted(values), 50) * 1e6,
                "self_s": self_total[name],
                "self_share": self_total[name] / all_self,
                "count": self.counts.get(name, 0.0),
            }
            for name, values in durations.items()
        }

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent (seconds, index)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name_id in enumerate(self.name_of):
                handle.write(
                    json.dumps(
                        [self.names[name_id], self.start[index], self.end[index],
                         self.parent[index]]
                    )
                    + "\n"
                )
