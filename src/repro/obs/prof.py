"""Wall-clock worker-plane profiler: ``Machine(p, profile=True)``.

Everything else in :mod:`repro.obs` measures *simulated* seconds — the
analytic cost model's clocks.  The real execution backends
(:mod:`repro.machine.backend`) additionally run kernels on actual cores,
and this module measures *that* plane: dispatch latency, in-worker
kernel wall time and per-worker utilization.

Two invariants shape the design:

* **Zero cost when off.**  Every instrumented hot path checks one
  ``profiler is None`` and does nothing else; an unprofiled run
  executes exactly the historical code.
* **Never touch the cost model.**  The profiler owns its *own*
  :class:`~repro.obs.metrics.MetricsRegistry` (same class, same
  Prometheus exposition, separate instance) and only ever reads
  ``time.monotonic()`` — simulated clocks, :class:`TraceStats`, records
  and the machine's metrics stay bitwise identical with profiling on or
  off, across every backend (the extended ``backend`` pillar asserts
  this).

Clock: ``time.monotonic()`` — one clock for the main thread and every
worker thread, so stamps compare directly; every derived duration is
still clamped at zero and the attribution sum is checked against
:data:`ATTRIBUTION_TOL`.

Attribution partitions the **skeleton wall** (the summed wall time of
depth-0 skeleton invocations) into three components:

* ``dispatch`` — per-dispatch start lag: first in-worker block start
  minus the post timestamp (queue + wakeup latency);
* ``kernel``   — the union of in-worker busy intervals, clipped to each
  dispatch window (dispatches are sequential, so windows are disjoint);
* ``idle``     — the residual: main-process orchestration, cost
  charging, communication skeletons (which move data in the main
  process) and wait-side gaps.

With no dispatches at all (the ``sim`` backend inlines every kernel on
the main thread) the whole skeleton wall is the ``kernel`` component by
definition.  ``idle`` is clamped at zero, so the components can only
sum *above* the measured wall when stamps overlap — exactly what
``attribution_ok`` (±2 %) catches.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "WallProfiler",
    "DispatchRecord",
    "BlockStamp",
    "SkeletonWall",
    "PROFILE_SCHEMA",
    "ATTRIBUTION_TOL",
    "PROFILE_OVERHEAD_LIMIT",
    "SECONDS_BUCKETS",
]

#: schema tag of :meth:`WallProfiler.snapshot` (and the ``eval profile``
#: JSON built on top of it)
PROFILE_SCHEMA = "repro-profile/2"

#: the attribution components may miss the measured skeleton wall by at
#: most this fraction (guards double counting)
ATTRIBUTION_TOL = 0.02

#: a profiled run may take at most this much longer than the same run
#: unprofiled (``eval profile`` exits nonzero beyond it).  The profiler
#: adds two ``monotonic()`` stamps per block plus O(1) bookkeeping per
#: dispatch, so 1.25x is generous; blowing it means a hot-path regression.
PROFILE_OVERHEAD_LIMIT = 1.25

#: power-of-two second buckets, ~1 µs .. ~128 s — wall durations
SECONDS_BUCKETS = tuple(2.0 ** k for k in range(-20, 8))


@dataclass
class BlockStamp:
    """One block (the piece a task names, e.g. a slab of the pool): enqueue
    (main side) and start/end (taken on the thread that ran the block)."""

    worker: int
    enqueue: float
    start: float
    end: float

    @property
    def kernel_s(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def latency_s(self) -> float:
        return max(0.0, self.start - self.enqueue)


@dataclass
class DispatchRecord:
    """One ``run_blocks`` call: a batch of tasks, one block each (the
    kernel on one slab of the pool per worker, then a ``store_slab``)."""

    backend: str
    kernel: str
    skeleton: str
    n_tasks: int
    t_begin: float
    t_post: float = 0.0
    t_done: float = 0.0
    blocks: list[BlockStamp] = field(default_factory=list)
    ok: bool = True

    @property
    def window_s(self) -> float:
        return max(0.0, self.t_done - self.t_post)


@dataclass
class SkeletonWall:
    """Wall interval of one skeleton invocation (depth 0 = outermost)."""

    name: str
    depth: int
    t0: float
    t1: float

    @property
    def wall_s(self) -> float:
        return max(0.0, self.t1 - self.t0)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    if not intervals:
        return 0.0
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


class WallProfiler:
    """Collects wall-clock stamps and counters from the worker plane.

    Thread-safety: skeleton begin/end and dispatch begin/end happen on
    the main thread only; :meth:`block` and :meth:`worker_slot` may be
    called from executor threads (``list.append`` is atomic under the
    GIL, the slot map takes a lock).
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        #: the profiler's own registry — never the machine's, so the
        #: machine's metrics exposition stays bitwise identical with
        #: profiling on or off
        self.metrics = MetricsRegistry()
        self.skeleton_walls: list[SkeletonWall] = []
        self.dispatches: list[DispatchRecord] = []
        self._stack: list[tuple[str, float]] = []
        self._lock = threading.Lock()
        self._worker_slots: dict[int, int] = {}
        self.t_origin = clock()

    # ------------------------------------------------------------- skeletons
    def skeleton_begin(self, name: str) -> None:
        self._stack.append((name, self.clock()))

    def skeleton_end(self) -> None:
        if not self._stack:
            return
        name, t0 = self._stack.pop()
        t1 = self.clock()
        sw = SkeletonWall(name, len(self._stack), t0, t1)
        self.skeleton_walls.append(sw)
        self.metrics.observe(
            f"wall.skeleton_s.{name}", sw.wall_s, buckets=SECONDS_BUCKETS
        )

    def current_skeleton(self) -> str:
        return self._stack[-1][0] if self._stack else "<none>"

    # ------------------------------------------------------------ dispatches
    def dispatch_begin(
        self, backend: str, kernel: str, n_tasks: int
    ) -> DispatchRecord:
        return DispatchRecord(
            backend=backend,
            kernel=kernel,
            skeleton=self.current_skeleton(),
            n_tasks=n_tasks,
            t_begin=self.clock(),
        )

    def note_post(self, d: DispatchRecord) -> None:
        """Stamp the moment the batch is handed to the workers."""
        d.t_post = self.clock()

    def block(
        self, d: DispatchRecord, worker: int,
        enqueue: float, start: float, end: float,
    ) -> None:
        """Record one block execution (callable from executor threads)."""
        d.blocks.append(BlockStamp(worker, enqueue, start, end))

    def dispatch_end(self, d: DispatchRecord, ok: bool = True) -> None:
        d.t_done = self.clock()
        d.ok = ok
        self.dispatches.append(d)
        m = self.metrics
        m.inc("wall.dispatch.calls")
        m.inc("wall.dispatch.blocks", len(d.blocks))
        skel = d.skeleton
        for b in d.blocks:
            m.observe(
                f"wall.dispatch_latency_s.{skel}", b.latency_s,
                buckets=SECONDS_BUCKETS,
            )
            m.observe(
                f"wall.kernel_s.{skel}", b.kernel_s, buckets=SECONDS_BUCKETS
            )

    def worker_slot(self, ident: int) -> int:
        """Stable small worker index for a thread ident (threads backend)."""
        with self._lock:
            slot = self._worker_slots.get(ident)
            if slot is None:
                slot = self._worker_slots[ident] = len(self._worker_slots)
            return slot

    # -------------------------------------------------------------- analysis
    def skeleton_wall_s(self) -> float:
        """Summed wall of depth-0 skeleton invocations (the measured
        wall that :meth:`attribution` decomposes)."""
        return sum(sw.wall_s for sw in self.skeleton_walls if sw.depth == 0)

    def per_skeleton_wall(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for sw in self.skeleton_walls:
            if sw.depth != 0:
                continue
            agg = out.setdefault(sw.name, {"calls": 0, "wall_s": 0.0})
            agg["calls"] += 1
            agg["wall_s"] += sw.wall_s
        return out

    def attribution(self) -> dict[str, float]:
        """Dispatch / kernel / idle decomposition of the skeleton wall
        (see the module docstring for exact component semantics)."""
        measured = self.skeleton_wall_s()
        lag = 0.0
        kernel = 0.0
        for d in self.dispatches:
            if not d.blocks:
                continue
            first = min(b.start for b in d.blocks)
            lag += min(max(0.0, first - d.t_post), d.window_s)
            clipped = [
                (max(b.start, d.t_post), min(b.end, d.t_done))
                for b in d.blocks
            ]
            kernel += _union_length(clipped)
        if not self.dispatches:
            # sim backend: the main thread inlines every kernel — the
            # whole skeleton wall is kernel work by definition
            kernel = measured
        idle = max(0.0, measured - lag - kernel)
        return {
            "measured_wall_s": measured,
            "dispatch_s": lag,
            "kernel_s": kernel,
            "idle_s": idle,
        }

    def attribution_ok(self, attr: dict[str, float] | None = None) -> bool:
        """Whether the components sum to the measured wall within
        :data:`ATTRIBUTION_TOL` (idle is a clamped residual, so only
        over-attribution — overlapping stamps — can break this)."""
        a = attr if attr is not None else self.attribution()
        total = a["dispatch_s"] + a["kernel_s"] + a["idle_s"]
        measured = a["measured_wall_s"]
        return abs(total - measured) <= max(ATTRIBUTION_TOL * measured, 1e-9)

    def worker_stats(self) -> dict:
        """Per-worker busy seconds, utilization over the summed dispatch
        windows, and the max/mean busy imbalance factor."""
        busy: dict[int, float] = {}
        for d in self.dispatches:
            for b in d.blocks:
                busy[b.worker] = busy.get(b.worker, 0.0) + b.kernel_s
        window = sum(d.window_s for d in self.dispatches)
        workers = [
            {
                "worker": w,
                "busy_s": busy[w],
                "utilization": min(1.0, busy[w] / window) if window > 0 else 0.0,
            }
            for w in sorted(busy)
        ]
        imbalance = None
        if busy:
            mean = sum(busy.values()) / len(busy)
            if mean > 0:
                imbalance = max(busy.values()) / mean
        return {"workers": workers, "window_s": window, "imbalance": imbalance}

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """The versioned ``repro-profile/2`` JSON document."""
        attr = self.attribution()
        stats = self.worker_stats()
        return {
            "schema": PROFILE_SCHEMA,
            "clock": "monotonic",
            "attribution": {
                "dispatch_s": attr["dispatch_s"],
                "kernel_s": attr["kernel_s"],
                "idle_s": attr["idle_s"],
            },
            "measured_wall_s": attr["measured_wall_s"],
            "attribution_sum_s": attr["dispatch_s"] + attr["kernel_s"]
            + attr["idle_s"],
            "attribution_ok": self.attribution_ok(attr),
            "skeletons": self.per_skeleton_wall(),
            "dispatch_calls": len(self.dispatches),
            "dispatch_blocks": sum(len(d.blocks) for d in self.dispatches),
            "workers": stats["workers"],
            "imbalance": stats["imbalance"],
            "metrics": self.metrics.snapshot(),
        }

    def render_text(self) -> str:
        """Prometheus exposition of the wall metrics (separate registry,
        so it never mixes into the machine's exposition)."""
        return self.metrics.render_text()

    def clear(self) -> None:
        """Drop every stamp and counter (``Machine.reset`` calls this)."""
        self.metrics.clear()
        self.skeleton_walls.clear()
        self.dispatches.clear()
        self._stack.clear()
        with self._lock:
            self._worker_slots.clear()
        self.t_origin = self.clock()
