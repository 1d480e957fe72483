"""Spans and counters recorded around the benchmark's calls into parahoric.

A span has a name, a start and end (``perf_counter_ns``), the index of its
parent span and the id of the op that caused it.  Span names are
``<layer>.<function>`` where the layer is a parahoric module (``rootdata``,
``affine``, ``charring``, ``jantzen``, ``levicert``, ``cli``) or ``bench``
for the benchmark's own work.  Spans stay in memory until the run ends.

``NullTracer`` is used for the untraced timings: its ``call`` is a plain
call, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass

    def begin(self, name, op_id=None):
        pass

    def end(self):
        pass

    def unwind(self):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.op = None

    def begin(self, name, op_id=None):
        if op_id is not None:
            self.op = op_id
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter_ns(), "end": None,
             "parent": parent, "op": self.op}
        )
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()]["end"] = time.perf_counter_ns()

    def call(self, name, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def count(self, name, value):
        self.counters[name] += value

    def unwind(self):
        """Close spans left open by an op that raised (timeout, error)."""
        while self.stack:
            self.end()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span["parent"] is not None:
                child_ns[span["parent"]] += span["end"] - span["start"]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, span in enumerate(self.spans):
            dur = span["end"] - span["start"]
            row = out[span["name"]]
            row[0] += 1
            row[1] += dur / 1e9
            row[2] += (dur - child_ns[i]) / 1e9
        return dict(out)
