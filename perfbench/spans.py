"""In-memory spans and counts for the benchmark's traced runs.

Spans are taken around the public calls into each layer, from the
benchmark's own code; nothing inside ``src/`` is instrumented.  Each
span records its name, start and end (``perf_counter_ns``), the index of
the enclosing span and the id of the operation it belongs to.  Counts
are values read off the layers' public counters at the same boundaries.
Everything stays in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, perf_counter_ns(), None, parent, tracer.op])
        tracer._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][2] = perf_counter_ns()
        self.tracer._stack.pop()


class Tracer:
    """Collects spans ``[name, start_ns, end_ns, parent, op]`` and counts."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[tuple] = []
        self.op: Optional[str] = None
        self._stack: List[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, self.op))

    def per_op(self) -> Dict[str, Dict[object, float]]:
        """``{name: {op: total}}``: span milliseconds and count values
        summed within each operation."""
        totals: Dict[str, Dict[object, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _parent, op in self.spans:
            totals[name][op] += (end - start) / 1e6
        for name, value, op in self.counts:
            totals[name][op] += value
        return totals

    def dump(self, path) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        payload = {
            "spans": [dict(zip(fields, s)) for s in self.spans],
            "counts": [dict(zip(("name", "value", "op"), c)) for c in self.counts],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class NoTracer:
    """Stands in for :class:`Tracer` in untraced operations."""

    enabled = False
    _span = nullcontext()

    def span(self, name: str) -> nullcontext:
        return self._span

    def count(self, name: str, value: float) -> None:
        pass


NO_TRACER = NoTracer()
