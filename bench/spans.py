"""In-memory span recorder owned by the benchmark.

A span is ``[layer, name, start, end, parent, op, elems, thread]``; it is
opened and closed around a call *into* a layer's public function, from the
benchmark's side of the boundary.  Nothing in ``src/`` knows about it.

Self time of a span is its duration minus the union of its children's
intervals, so the self times of all spans of one op sum to the op's root
span.  Kernel blocks that a real backend runs on worker threads overlap
in time; they share the union of their intervals in proportion to their
durations, which keeps that sum exact.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

LAYER, NAME, START, END, PARENT, OP, ELEMS, THREAD = range(8)


class Row(NamedTuple):
    """One analysed span."""

    layer: str
    name: str
    op: str | None
    dur: float
    self_s: float
    #: no ancestor belongs to the same layer (inclusive totals count these)
    outer: bool
    elems: int


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: str | None = None
        self._main = threading.get_ident()
        #: open spans of the main thread; a worker thread's span hangs
        #: under whatever the main thread has open while it dispatches
        self._stack: list[list] = []

    def clear(self) -> None:
        self.spans = []
        self._stack = []

    def begin(self, layer: str, name: str) -> list:
        tid = threading.get_ident()
        parent = self._stack[-1] if self._stack else None
        span = [layer, name, 0.0, 0.0, parent, self.op, 0, tid]
        self.spans.append(span)  # list.append is atomic under the GIL
        if tid == self._main:
            self._stack.append(span)
        span[START] = perf_counter()
        return span

    def end(self, span: list, elems: int = 0) -> None:
        span[END] = perf_counter()
        span[ELEMS] = elems
        if span[THREAD] == self._main:
            self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        s = self.begin(layer, name)
        try:
            yield
        finally:
            self.end(s)

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """*fn* with a span around every call."""

        def traced(*args, **kwargs):
            s = self.begin(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(s)

        return traced

    # ------------------------------------------------------------ analysis
    def rows(self) -> list[Row]:
        spans = self.spans
        kids: dict[int, list[list]] = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                kids[id(s[PARENT])].append(s)
        self_s = {id(s): s[END] - s[START] for s in spans}
        for s in spans:
            ch = kids.get(id(s))
            if not ch:
                continue
            self_s[id(s)] -= _union(ch, s[START], s[END])
            off = [c for c in ch if c[THREAD] != s[THREAD]]
            busy = sum(c[END] - c[START] for c in off)
            if off and busy > 0.0:
                share = _union(off, s[START], s[END]) / busy
                for c in off:
                    self_s[id(c)] *= share
        out = []
        for s in spans:
            outer, a = True, s[PARENT]
            while a is not None:
                if a[LAYER] == s[LAYER]:
                    outer = False
                    break
                a = a[PARENT]
            out.append(
                Row(s[LAYER], s[NAME], s[OP], s[END] - s[START],
                    self_s[id(s)], outer, s[ELEMS])
            )
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: ``id`` is the position in the list,
        ``parent`` an ``id`` or -1, times are seconds since the first span."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s[START] for s in self.spans), default=0.0)
        doc = {
            "schema": "bench-trace/1",
            "columns": ["id", "layer", "name", "start_s", "end_s", "parent",
                        "op", "elems", "thread"],
            "spans": [
                [i, s[LAYER], s[NAME], s[START] - t0, s[END] - t0,
                 ids[id(s[PARENT])] if s[PARENT] is not None else -1,
                 s[OP], s[ELEMS], 0 if s[THREAD] == self._main else s[THREAD]]
                for i, s in enumerate(self.spans)
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _union(spans: list[list], lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted((max(s[START], lo), min(s[END], hi)) for s in spans):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def sum_check(rows: list[Row]) -> float:
    """Largest relative gap, over all ops, between an op's root span and
    the sum of the self times recorded under it."""
    root: dict[str, float] = {}
    parts: dict[str, float] = defaultdict(float)
    for r in rows:
        if r.op is None:
            continue
        if r.layer == "bench":
            root[r.op] = r.dur
        parts[r.op] += r.self_s
    return max(
        (abs(parts[op] - d) / d for op, d in root.items() if d > 0.0),
        default=0.0,
    )
