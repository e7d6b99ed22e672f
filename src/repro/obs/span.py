"""Paired begin/end spans over the simulated clocks.

A span brackets one skeleton invocation (or one phase of a composite
skeleton, e.g. ``array_gen_mult``'s skew/multiply/rotate phases) and
attributes to it everything that accrued while it was open: simulated
compute/comm/idle seconds, message and byte counts, and the set of
ranks whose clocks moved.  Attribution works by snapshotting the shared
:class:`~repro.machine.trace.TraceStats` counters and the per-processor
clock vector at ``begin`` and diffing at ``end`` — no per-message
bookkeeping, so the tracer itself is cheap even on long runs.

Spans nest by stack discipline; a span's numbers are *inclusive* of its
children.  A skeleton span also carries its *exclusive* cost — the same
numbers minus every skeleton nested in it — worked out when it closes,
from the open stack, so it is known in both trace modes;
:class:`SkeletonAgg` folds those into the per-skeleton table.

Wall time rides on the same brackets: ``begin`` and ``end`` take one
``time.perf_counter()`` stamp each, kept on the span beside the
simulated clocks but outside its equality and its ``exclusive`` tuple,
and the exclusive wall is worked out the same way.  The execution
backend reports each kernel dispatch here too
(:meth:`SpanTracer.dispatch`).  Wall values fold into the tracer's own
:attr:`SpanTracer.wall` registry and :attr:`SpanTracer.skeleton_wall`,
never into the machine's metrics, so nothing a bitwise check compares
can see them.

:meth:`SpanTracer.wall_attribution` partitions the **skeleton wall**
(the summed wall of the outermost skeleton spans) into three parts:

* ``dispatch`` — per dispatch, first block start minus the post stamp
  (queue and wake-up latency);
* ``kernel``   — the union of the blocks' busy intervals, clipped to
  their dispatch window (dispatches are sequential, so windows are
  disjoint);
* ``idle``     — the residual: main-thread orchestration, charging,
  communication skeletons and wait-side gaps.

With no dispatch at all (``sim`` runs every kernel inline on the main
thread) the whole skeleton wall is ``kernel`` by definition.  ``idle``
is clamped at zero, so the parts can only sum *above* the measured wall
when stamps overlap — what :func:`attribution_ok` (±2 %) catches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import SkilError
from repro.obs.metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.network import Network
    from repro.machine.trace import TraceStats

__all__ = [
    "Span",
    "SpanTracer",
    "SpanError",
    "SkeletonAgg",
    "fold_skeleton",
    "attribution_ok",
    "DURATION_BUCKETS",
    "ATTRIBUTION_TOL",
]

#: span-duration buckets in simulated seconds: powers of two from ~1 ns
#: to ~17 min, fine enough for p50/p99 interpolation on any profile.
DURATION_BUCKETS = tuple(2.0 ** k for k in range(-30, 11))

#: power-of-two second buckets, ~1 µs .. ~128 s — wall durations
SECONDS_BUCKETS = tuple(2.0 ** k for k in range(-20, 8))

#: the wall attribution components may miss the measured skeleton wall
#: by at most this fraction (guards double counting)
ATTRIBUTION_TOL = 0.02


class SpanError(SkilError):
    """begin/end pairing was violated (end without begin, wrong order)."""


@dataclass
class Span:
    """One closed (or still-open) traced interval."""

    name: str
    category: str  # "skeleton" | "phase"
    index: int  # position in SpanTracer.spans
    parent: int | None  # index of the enclosing span, if any
    depth: int
    begin_time: float
    end_time: float | None = None
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    idle_seconds: float = 0.0
    messages: int = 0
    bytes_sent: int = 0
    ranks: tuple[int, ...] = ()
    #: a closed skeleton span's own (compute, comm, idle seconds,
    #: messages, bytes): the inclusive numbers above minus those of the
    #: skeleton spans nested in it, so summing over spans counts every
    #: simulated second once.  Phases count toward their skeleton and
    #: carry none.
    exclusive: tuple[float, float, float, int, int] | None = None
    #: ``perf_counter()`` stamps of begin and end, and a skeleton span's
    #: wall minus that of the skeleton spans nested in it.  Plain
    #: attributes, not fields: never compared, and free to construct
    wall_begin = 0.0
    wall_end = 0.0
    wall_exclusive = 0.0

    @property
    def closed(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Simulated makespan advance while the span was open."""
        return (self.end_time or self.begin_time) - self.begin_time

    @property
    def busy_total(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.idle_seconds


@dataclass
class _Snapshot:
    compute: float
    comm: float
    idle: float
    messages: int
    bytes_sent: int
    clocks: "object"  # np.ndarray copy
    #: inclusive numbers of the skeleton spans that closed directly
    #: under this (skeleton) span, in close order
    nested: list[tuple] = field(default_factory=list)
    #: summed wall of those nested skeleton spans (a plain attribute,
    #: set by the first one)
    nested_wall = 0.0


@dataclass
class Dispatch:
    """The wall stamps of one backend dispatch, kept in record mode for
    the Chrome export: post and done on the main thread, and one
    ``(worker, start, end)`` per block, stamped on the thread that ran
    it (worker 0 is the first thread seen)."""

    skeleton: str
    t_post: float
    t_done: float
    blocks: list[tuple[int, float, float]]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


class SpanTracer:
    """Records a tree of spans against a stats object and a clock vector.

    With *on_close* (stream mode passes
    :meth:`repro.obs.stream.StreamObserver.on_span`) every closed span
    is handed to the callback and nothing but the open stack is
    retained: :attr:`spans` and :attr:`dispatches` stay empty, and the
    query helpers that need the full tree are record-mode only.
    ``index`` and ``parent`` count begun spans either way, so a streamed
    span equals the recorded one field for field.
    """

    def __init__(self, stats: "TraceStats", network: "Network", on_close=None):
        self.stats = stats
        self.network = network
        self.spans: list[Span] = []
        #: record mode: the wall stamps of every backend dispatch
        self.dispatches: list[Dispatch] = []
        #: wall values (dispatch counters and histograms, per-worker
        #: busy seconds); its own registry, so no bitwise comparison of
        #: ``machine.metrics`` ever sees a wall reading
        self.wall = MetricsRegistry()
        #: summed wall of the outermost skeleton spans (a float, not a
        #: counter: it is added on the skeleton hot path)
        self.skeleton_wall = 0.0
        self._stack: list[tuple[Span, _Snapshot]] = []
        self._on_close = on_close
        self._begun = 0
        self._workers: dict[int, int] = {}

    # ------------------------------------------------------------------ core
    def begin(self, name: str, category: str = "skeleton") -> Span:
        parent = self._stack[-1][0].index if self._stack else None
        span = Span(
            name=name,
            category=category,
            index=self._begun,
            parent=parent,
            depth=len(self._stack),
            begin_time=self.network.time,
        )
        snap = _Snapshot(
            compute=self.stats.compute_seconds,
            comm=self.stats.comm_seconds,
            idle=float(self.stats.idle_seconds),
            messages=self.stats.messages,
            bytes_sent=self.stats.bytes_sent,
            clocks=self.network.clocks.copy(),
        )
        self._begun += 1
        if self._on_close is None:
            self.spans.append(span)
        self._stack.append((span, snap))
        span.wall_begin = time.perf_counter()
        return span

    def end(self, span: Span | None = None) -> Span:
        """Close the innermost span (or *span*, which must be innermost)."""
        wall_end = time.perf_counter()
        if not self._stack:
            raise SpanError("end() without a matching begin()")
        top, snap = self._stack[-1]
        if span is not None and span is not top:
            raise SpanError(
                f"out-of-order end(): innermost open span is {top.name!r}, "
                f"got {span.name!r}"
            )
        self._stack.pop()
        top.wall_end = wall_end
        top.end_time = self.network.time
        top.compute_seconds = self.stats.compute_seconds - snap.compute
        top.comm_seconds = self.stats.comm_seconds - snap.comm
        top.idle_seconds = float(self.stats.idle_seconds) - snap.idle
        top.messages = self.stats.messages - snap.messages
        top.bytes_sent = self.stats.bytes_sent - snap.bytes_sent
        moved = self.network.clocks != snap.clocks
        top.ranks = tuple(moved.nonzero()[0].tolist())
        if top.category == "skeleton":
            inclusive = (
                top.compute_seconds,
                top.comm_seconds,
                top.idle_seconds,
                top.messages,
                top.bytes_sent,
            )
            # one subtraction per nested skeleton, in close order: float
            # for float what a walk over the recorded tree would get
            own = list(inclusive)
            for child in snap.nested:
                for i, v in enumerate(child):
                    own[i] -= v
            top.exclusive = tuple(own)
            wall = wall_end - top.wall_begin
            own_wall = wall - snap.nested_wall
            top.wall_exclusive = own_wall if own_wall > 0.0 else 0.0
            for outer, outer_snap in reversed(self._stack):
                if outer.category == "skeleton":
                    outer_snap.nested.append(inclusive)
                    outer_snap.nested_wall += wall
                    break
            else:
                # outermost: nested skeletons are inside this wall already
                self.skeleton_wall += wall
        if self._on_close is not None:
            self._on_close(top)
        return top

    def end_through(self, span: Span) -> Span:
        """Close every open span down to and including *span*.

        Used by error paths: a failing skeleton body may leave nested
        phase spans open; this closes them innermost-first so no begin
        is left dangling.
        """
        if all(s is not span for s, _ in self._stack):
            raise SpanError(f"span {span.name!r} is not open")
        while self._stack[-1][0] is not span:
            self.end()
        return self.end(span)

    @contextmanager
    def span(self, name: str, category: str = "phase") -> Iterator[Span]:
        s = self.begin(name, category=category)
        try:
            yield s
        finally:
            self.end_through(s)

    # ------------------------------------------------------------------ wall
    def dispatch(
        self, t_post: float, t_done: float, blocks: list[tuple[int, float, float]]
    ) -> None:
        """Fold one backend dispatch into :attr:`wall`.

        *blocks* holds ``(thread ident, start, end)`` per block.  Kernel
        time is the union of the blocks clipped to the ``[t_post,
        t_done]`` window, so a stray stamp cannot over-attribute.
        """
        window = max(0.0, t_done - t_post)
        blocks = [
            (self._workers.setdefault(ident, len(self._workers)), t0, t1)
            for ident, t0, t1 in blocks
        ]
        m = self.wall
        m.inc("wall.dispatch.calls")
        m.inc("wall.dispatch.blocks", len(blocks))
        m.inc("wall.dispatch.window_s", window)
        if blocks:
            first = min(t0 for _, t0, _ in blocks)
            m.observe(
                "wall.dispatch.lag_s",
                min(max(0.0, first - t_post), window),
                buckets=SECONDS_BUCKETS,
            )
            m.observe(
                "wall.dispatch.kernel_s",
                _union_length(
                    [(max(t0, t_post), min(t1, t_done)) for _, t0, t1 in blocks]
                ),
                buckets=SECONDS_BUCKETS,
            )
            for worker, t0, t1 in blocks:
                m.inc(f"wall.worker.{worker}.busy_s", max(0.0, t1 - t0))
        if self._on_close is None:
            skeleton = self.innermost_skeleton() or "<none>"
            self.dispatches.append(Dispatch(skeleton, t_post, t_done, blocks))

    def wall_attribution(self) -> dict:
        """Dispatch / kernel / idle parts of the measured skeleton wall
        (module docstring), plus the dispatch counters and per-worker
        busy seconds they come from."""
        snap = self.wall.snapshot()
        counters, hists = snap["counters"], snap["histograms"]
        measured = self.skeleton_wall
        calls = int(counters.get("wall.dispatch.calls", 0))
        lag = hists.get("wall.dispatch.lag_s", {}).get("sum", 0.0)
        # sim: the main thread inlines every kernel
        kernel = (
            hists.get("wall.dispatch.kernel_s", {}).get("sum", 0.0)
            if calls else measured
        )
        return {
            "measured_wall_s": measured,
            "dispatch_s": lag,
            "kernel_s": kernel,
            "idle_s": max(0.0, measured - lag - kernel),
            "calls": calls,
            "blocks": int(counters.get("wall.dispatch.blocks", 0)),
            "window_s": counters.get("wall.dispatch.window_s", 0.0),
            "workers": {
                name.split(".")[2]: v
                for name, v in counters.items()
                if name.startswith("wall.worker.")
            },
        }

    # ------------------------------------------------------------------ query
    @property
    def open_depth(self) -> int:
        return len(self._stack)

    def innermost_skeleton(self) -> str | None:
        """Name of the innermost open skeleton span (what is charging
        now), ``None`` outside every skeleton."""
        for span, _ in reversed(self._stack):
            if span.category == "skeleton":
                return span.name
        return None

    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s.closed]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def path(self, span: Span) -> tuple[str, ...]:
        """Names from the root down to *span* (flamegraph path)."""
        names: list[str] = []
        cur: Span | None = span
        while cur is not None:
            names.append(cur.name)
            cur = self.spans[cur.parent] if cur.parent is not None else None
        return tuple(reversed(names))

    def clear(self) -> None:
        self.spans.clear()
        self.dispatches.clear()
        self.wall.clear()
        self.skeleton_wall = 0.0
        self._stack.clear()
        self._begun = 0
        self._workers.clear()


def attribution_ok(attr: dict) -> bool:
    """Whether the parts of :meth:`SpanTracer.wall_attribution` sum to
    the measured wall within :data:`ATTRIBUTION_TOL` (``idle`` is a
    clamped residual, so only over-attribution can break this)."""
    total = attr["dispatch_s"] + attr["kernel_s"] + attr["idle_s"]
    measured = attr["measured_wall_s"]
    return abs(total - measured) <= max(ATTRIBUTION_TOL * measured, 1e-9)


# ---------------------------------------------------------------------------
# per-skeleton aggregates
# ---------------------------------------------------------------------------
@dataclass
class SkeletonAgg:
    """Exclusive cost of all calls of one skeleton across a run.

    Folds :attr:`Span.exclusive`: a nested skeleton span counts under
    its own name, not its caller's (an ``array_permute_rows`` invoked
    inside a larger skeleton), phase spans count toward their enclosing
    skeleton, so summing rows never double-counts a simulated second.
    ``durations`` sees each call's simulated duration, nested calls
    included.  Stream mode fills these online, record mode folds its
    closed spans into the same class (:func:`fold_skeleton`).
    ``wall_seconds`` sums :attr:`Span.wall_exclusive` the same way; it
    is a wall reading, so no bitwise comparison looks at it.
    """

    name: str
    calls: int = 0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    idle_seconds: float = 0.0
    messages: int = 0
    bytes_sent: int = 0
    durations: Histogram = field(default=None)  # type: ignore[assignment]
    wall_seconds: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.durations is None:
            self.durations = Histogram(
                f"span.duration.{self.name}", buckets=DURATION_BUCKETS
            )

    def fold(self, span: Span) -> None:
        compute, comm, idle, messages, nbytes = span.exclusive
        self.calls += 1
        self.compute_seconds += compute
        self.comm_seconds += comm
        self.idle_seconds += idle
        self.messages += messages
        self.bytes_sent += nbytes
        self.durations.observe(span.duration)
        self.wall_seconds += span.wall_exclusive

    @property
    def busy_total(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.idle_seconds


def fold_skeleton(aggs: dict[str, SkeletonAgg], span: Span) -> None:
    """Fold one closed span into the per-skeleton aggregates *aggs*
    (by name); phase spans are skipped."""
    if span.category != "skeleton":
        return
    agg = aggs.get(span.name)
    if agg is None:
        agg = aggs[span.name] = SkeletonAgg(span.name)
    agg.fold(span)
