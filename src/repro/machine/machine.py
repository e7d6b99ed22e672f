"""The simulated Parsytec-style machine: processors + network + memory.

:class:`Machine` is the object everything else hangs off: distributed
arrays are allocated on it, skeletons charge its network clocks, and the
evaluation harness reads the final makespan from it.  It substitutes the
paper's testbed (64 T800 transputers, 1 MB RAM each, 2-D mesh, Parix) as
documented in DESIGN.md §2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MachineError, MemoryLimitError, TopologyError
from repro.machine.costmodel import CostModel, T800_PARSYTEC
from repro.machine.network import Network
from repro.machine.topology import (
    TOPOLOGIES,
    BinomialTree,
    DefaultMapping,
    Mesh2D,
    Ring,
    Torus2D,
    VirtualTopology,
)
from repro.machine.trace import TraceStats

__all__ = [
    "Machine",
    "DISTR_DEFAULT",
    "DISTR_RING",
    "DISTR_TORUS2D",
    "STREAM_AUTO_P",
]

#: distribution constants mirroring the paper's Parix-based implementation
DISTR_DEFAULT = "DISTR_DEFAULT"
DISTR_RING = "DISTR_RING"
DISTR_TORUS2D = "DISTR_TORUS2D"

#: machines at least this large default to ``trace_mode="stream"`` when
#: fully traced — record mode's O(messages) lists are the one remaining
#: superlinear consumer, and at 10^4-10^5 ranks they dominate memory
STREAM_AUTO_P = 4096


@dataclass
class _NodeMemory:
    capacity: int
    used: int = 0

    def alloc(self, nbytes: int, strict: bool, rank: int) -> None:
        self.used += nbytes
        if strict and self.used > self.capacity:
            raise MemoryLimitError(
                f"node {rank}: {self.used} bytes exceed the {self.capacity}-byte "
                "node memory (the Parsytec MC had 1 MB per node; use a larger "
                "network or Machine(strict_memory=False))"
            )

    def free(self, nbytes: int) -> None:
        self.used = max(0, self.used - nbytes)


class Machine:
    """A ``p``-processor distributed-memory machine.

    Parameters
    ----------
    p:
        Number of processors; arranged as the most-square 2-D mesh.
    cost:
        Hardware cost model; defaults to the T800/Parix preset.
    strict_memory:
        Enforce the per-node memory limit (1 MB in the preset).  Off by
        default so modern-size test problems fit; the Table 1/2 harness
        switches it on to reproduce which problem sizes fit on which
        networks.
    keep_message_records:
        Retain individual message records in the trace (for debugging and
        the trace tests; costs memory on long runs).
    use_virtual_topologies:
        When ``False``, every virtual topology degenerates to the naive
        embedding (wrap-around edges cross the mesh) — models the old C
        code of Table 1.
    trace_level:
        Observability depth (zero-cost when 0, the default):

        * ``0`` — only the aggregate :class:`TraceStats` counters;
        * ``1`` — plus a :class:`~repro.obs.span.SpanTracer` (paired
          skeleton spans, each also stamped with the wall clock, and
          the backend's dispatch stamps) and a
          :class:`~repro.obs.metrics.MetricsRegistry`;
        * ``2`` — plus a per-rank :class:`~repro.obs.timeline.Timeline`,
          individual message records and the critical-path fold
          (:class:`~repro.obs.analysis.PathFold`).
    trace_mode:
        How observability data is retained (DESIGN: docs/OBSERVABILITY.md):

        The network emits every charged wave once, through one
        interface (``add`` / ``add_many`` / ``add_lanes`` on the
        timeline, ``record_message(s)`` on the stats); the mode picks
        who listens:

        * ``"record"`` — materialize everything: message records,
          timeline intervals and spans accumulate in lists,
          O(messages) memory; the critical path also keeps its steps.
        * ``"stream"`` — fold the same waves into
          :mod:`repro.obs.stream` sinks: exact O(p) aggregates (per-rank
          seconds, the per-skeleton table), optional
          JSONL spill (closed by :meth:`close`), and the critical-path
          totals without the steps.  No message, interval
          or closed span is retained, so memory stays O(p) at any run
          length; aggregate values are bit-identical to folding a full
          recording (the ``stream`` check pillar).
        * ``None`` (the default) — pick automatically: ``"stream"``
          for a fully traced (``trace_level >= 2``) machine with
          ``p >= STREAM_AUTO_P`` (where record mode's O(messages)
          retention would dominate memory), ``"record"`` otherwise.
    stream:
        Optional :class:`~repro.obs.stream.StreamConfig` for
        ``trace_mode="stream"`` (the spill path).
    backend:
        Where fused skeleton kernels physically execute: ``"sim"``
        (single process, the default), ``"threads"`` (thread pool over
        the shared pools; numpy releases the GIL), or a ready-made
        :class:`~repro.machine.backend.ExecBackend`.  ``None``
        consults :func:`~repro.machine.backend.backend_default`
        (``REPRO_BACKEND``).  Simulated seconds are bit-identical across
        backends — the network stays the only cost oracle.
    workers:
        Worker count for the ``threads`` backend (default:
        ``REPRO_WORKERS`` or ``min(p, cores)``).
    """

    def __init__(
        self,
        p: int,
        cost: CostModel = T800_PARSYTEC,
        strict_memory: bool = False,
        keep_message_records: bool = False,
        use_virtual_topologies: bool = True,
        link_contention: bool = False,
        trace_level: int = 0,
        trace_mode: str | None = None,
        stream=None,
        backend=None,
        workers: int | None = None,
    ):
        if p <= 0:
            raise MachineError(f"need a positive processor count, got {p}")
        if trace_level not in (0, 1, 2):
            raise MachineError(f"trace_level must be 0, 1 or 2, got {trace_level}")
        if trace_mode is None:
            trace_mode = (
                "stream"
                if trace_level >= 2 and p >= STREAM_AUTO_P
                else "record"
            )
        if trace_mode not in ("record", "stream"):
            raise MachineError(
                f"trace_mode must be 'record' or 'stream', got {trace_mode!r}"
            )
        self.p = p
        self.cost = cost
        self.mesh = Mesh2D.for_processors(p)
        self.trace_level = trace_level
        self.trace_mode = trace_mode
        streaming = trace_mode == "stream"
        self.stats = TraceStats(
            keep_records=keep_message_records
            or (trace_level >= 2 and not streaming)
        )
        self.network = Network(
            cost, p, stats=self.stats, link_contention=link_contention
        )
        #: observability objects; ``None`` when the level does not pay
        #: for them, so every hot-path check is one ``is None`` test.
        #: They share ``self.stats`` and the network clocks — see
        #: :meth:`reset` for the sharing contract.
        self.tracer = self.metrics = self.timeline = None
        #: the :class:`~repro.obs.stream.StreamObserver` in stream mode
        self.stream_obs = None
        if streaming:
            from repro.obs.stream import StreamObserver

            self.stream_obs = StreamObserver(p, stream)
        if trace_level >= 1:
            from repro.obs.metrics import MetricsRegistry

            self.metrics = MetricsRegistry()
            self.network.metrics = self.metrics
            from repro.obs.span import SpanTracer

            self.tracer = SpanTracer(
                self.stats,
                self.network,
                on_close=self.stream_obs.on_span if streaming else None,
            )
        if trace_level >= 2:
            from repro.obs.analysis import PathFold

            # the critical-path fold sees every wave in either mode;
            # record mode also logs its segments, for the path's steps
            self.network.path = PathFold(
                p, cost, self.tracer, record=not streaming
            )
            if streaming:
                # the stream timeline takes the Timeline's place on the
                # network; ``self.timeline`` stays None (no recording)
                self.network.timeline = self.stream_obs.timeline
                self.stats.sink = self.stream_obs
                self.stream_obs.path = self.network.path
            else:
                from repro.obs.timeline import Timeline

                self.timeline = Timeline()
                self.network.timeline = self.timeline
        self.strict_memory = strict_memory
        self.use_virtual_topologies = use_virtual_topologies
        self._memory = [_NodeMemory(cost.memory_bytes) for _ in range(p)]
        self._topologies: dict[str, VirtualTopology] = {}
        from repro.machine.backend import make_backend

        #: the :class:`~repro.machine.backend.ExecBackend` running fused
        #: kernels; never touches the network, so it cannot perturb
        #: simulated time
        self.backend = make_backend(backend, p, workers)
        #: dispatches report their wall stamps to the tracer, if any
        self.backend.tracer = self.tracer

    # ------------------------------------------------------------------ time
    @property
    def time(self) -> float:
        """Simulated makespan so far (seconds)."""
        return self.network.time

    # ---------------------------------------------------------------- backend
    @property
    def backend_name(self) -> str:
        """``"sim"`` or ``"threads"``."""
        return self.backend.name

    def close(self) -> None:
        """Tear down backend workers and close the stream spill.

        Idempotent, and every call releases whatever exists *now*: a
        machine used again after ``close()`` lazily restarts its thread
        pool and reopens its spill file to append, and the next
        ``close()`` releases those too.
        ``backend="sim"`` machines without a spill have nothing to
        release, so existing code that never calls ``close()`` keeps
        working; ``threads`` users should close (or use the machine as a
        context manager) so no worker threads outlive the run, and a
        run that spills (``StreamConfig(spill_path=...)``) must, or the
        tail of its JSONL file stays in the write buffer.
        """
        self.backend.close()
        if self.stream_obs is not None:
            self.stream_obs.close()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-exit ordering
        try:
            self.close()
        except Exception:
            pass

    def reset(self) -> None:
        """Zero the clocks and statistics; keeps memory accounting.

        Sharing contract: ``self.stats`` is the **same object** for the
        machine's whole lifetime — the network, any
        :class:`~repro.machine.engine.Engine` built from this machine,
        and the span tracer all capture it at construction.  Reset
        therefore clears it *in place* (never replaces it), so every
        captured reference keeps observing the live accumulator.
        Spans, timelines and metrics are cleared the same way.
        """
        self.network.reset()
        self.stats.clear()
        assert self.network.stats is self.stats, (
            "machine/network stats were rewired behind reset()'s back"
        )
        if self.tracer is not None:
            self.tracer.clear()
        if self.metrics is not None:
            self.metrics.clear()
        if self.timeline is not None:
            self.timeline.clear()
        if self.network.path is not None:
            self.network.path.clear()
        if self.stream_obs is not None:
            self.stream_obs.clear()
        # reseed/flush backend worker state too — without this,
        # back-to-back trials in one process see stale worker caches and
        # in-flight results from the previous trial (the flaky seam)
        self.backend.reset()

    # ------------------------------------------------------------------ topo
    def topology(self, distr: str = DISTR_DEFAULT) -> VirtualTopology:
        """Virtual topology for a ``DISTR_*`` constant: one value shared
        by every machine of this mesh shape and embedding (``TOPOLOGIES``),
        kept by this machine once asked for."""
        topo = self._topologies.get(distr)
        if topo is None:
            key = (distr, self.use_virtual_topologies, self.mesh.rows, self.mesh.cols)
            topo = self._topologies[distr] = TOPOLOGIES.get(key, lambda: _embed(*key))
        return topo

    def tree(self, root: int = 0) -> BinomialTree:
        return BinomialTree(self.mesh, root=root)

    # ------------------------------------------------------------------ memory
    def alloc(self, rank: int, nbytes: int) -> None:
        self._check_rank(rank)
        self._memory[rank].alloc(int(nbytes), self.strict_memory, rank)

    def free(self, rank: int, nbytes: int) -> None:
        self._check_rank(rank)
        self._memory[rank].free(int(nbytes))

    def memory_used(self, rank: int) -> int:
        self._check_rank(rank)
        return self._memory[rank].used

    def max_memory_used(self) -> int:
        return max(m.used for m in self._memory)

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.p):
            raise MachineError(f"rank {rank} outside machine of {self.p}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Machine(p={self.p}, mesh={self.mesh.rows}x{self.mesh.cols}, "
            f"time={self.time:.6f}s)"
        )


def _embed(distr: str, folded: bool, rows: int, cols: int) -> VirtualTopology:
    mesh = Mesh2D(rows, cols)
    if distr == DISTR_DEFAULT:
        return DefaultMapping(mesh)
    if distr == DISTR_RING:
        return Ring(mesh) if folded else _NaiveRing(mesh)
    if distr == DISTR_TORUS2D:
        return Torus2D(mesh, folded=folded)
    raise TopologyError(f"unknown distribution constant {distr!r}")


class _NaiveRing(Ring):
    """Ring without embedding: logical neighbours placed in rank order,
    so the closing edge (and nothing else) is long.  Used when virtual
    topologies are disabled."""

    def __init__(self, mesh: Mesh2D):
        VirtualTopology.__init__(self, mesh)
        self._place = np.arange(mesh.p, dtype=np.int64)
