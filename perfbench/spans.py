"""The benchmark's one timer: ``perf_counter`` spans kept in memory.

A span records its name, start, end, the index of the enclosing span (-1 at
top level) and the experiment id current when it opened.  Spans are written
out only when the run ends.  A name's self time is the sum of its spans'
durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import collections
import gzip
import json
import time


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, -1, tracer.experiment]

    def __enter__(self):
        tracer, record = self.tracer, self.record
        stack = tracer.stack
        record[3] = stack[-1] if stack else -1
        stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder plus named work counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.experiment: str | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def summary(self) -> tuple[collections.Counter, dict, collections.Counter]:
        """Per name: span count, self time in seconds, and how many of its
        spans have a direct child span of each name (``(parent, child)``)."""
        covered = [0.0] * len(self.spans)
        child_names: collections.Counter = collections.Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
                child_names[(self.spans[parent][0], name)] += 1
        calls: collections.Counter = collections.Counter()
        self_s: dict = collections.defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, covered):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        return calls, dict(self_s), child_names

    def write(self, path: str) -> None:
        """Gzipped JSON lines: ``[name, start, end, parent, experiment]``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
