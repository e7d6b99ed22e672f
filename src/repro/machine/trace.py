"""Execution statistics and optional event tracing for simulated runs.

Messages reach :class:`TraceStats` one at a time
(:meth:`~TraceStats.record_message`) or as one charged wave of parallel
arrays (:meth:`~TraceStats.record_messages`); a recording appends one
:class:`MessageRecord` per message to :attr:`TraceStats.records` either
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

__all__ = ["MessageRecord", "TraceStats"]


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """One recorded message (only kept when tracing is enabled).

    ``time`` is the arrival at the receiver; ``depart`` is when the
    message entered the wire on the sender side, so ``time - depart``
    is the transfer (wire) time.  Together the two timestamps give the
    send→recv *matching* that the happens-before DAG of
    :mod:`repro.obs.analysis` needs: a record is the message edge from
    the sender's activity ending at ``depart`` to the receiver's
    activity ending at ``time``.  Records written before this field
    existed carry ``depart < 0`` (unknown — treated as a zero-width
    wire at the arrival time).
    """

    time: float
    src: int
    dst: int
    nbytes: int
    hops: int
    tag: str
    depart: float = -1.0

    @property
    def wire_seconds(self) -> float:
        """Transfer time on the wire (0.0 when the departure is unknown)."""
        return self.time - self.depart if self.depart >= 0.0 else 0.0


@dataclass
class TraceStats:
    """Aggregated communication/computation statistics of one run.

    ``idle_seconds`` accumulates the time receivers spend waiting for
    senders (the difference the clock arithmetic smooths over); it is what
    grows when small partitions meet large networks and explains the
    efficiency drop the paper observes in that corner of Table 2.
    """

    messages: int = 0
    bytes_sent: int = 0
    hops_crossed: int = 0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    idle_seconds: float = 0.0
    skeleton_calls: int = 0
    records: list[MessageRecord] = field(default_factory=list)
    keep_records: bool = False
    #: optional streaming consumer (``on_message`` / ``on_message_wave``:
    #: :class:`repro.obs.stream.StreamObserver`); every message — scalar
    #: or wave — is forwarded to it *in emission order*, so online
    #: aggregates see the exact event sequence that ``keep_records``
    #: would have materialized.  Wiring, not state: :meth:`clear` leaves
    #: it attached.
    sink: "object | None" = None

    def record_message(
        self,
        time: float,
        src: int,
        dst: int,
        nbytes: int,
        hops: int,
        tag: str = "",
        depart: float = -1.0,
    ) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        self.hops_crossed += hops
        if self.keep_records:
            self.records.append(
                MessageRecord(time, src, dst, nbytes, hops, tag, depart)
            )
        if self.sink is not None:
            self.sink.on_message(time, src, dst, nbytes, hops, tag, depart)

    def record_messages(
        self,
        times,
        srcs,
        dsts,
        nbytes,
        hops,
        tag: str = "",
        departs=None,
    ) -> None:
        """Batched :meth:`record_message` over parallel sequences.

        Counter totals are exact integer sums, so they match the
        per-message increments bit-for-bit; per-message records are
        appended in sequence order when ``keep_records`` is set.
        """
        k = len(srcs)
        self.messages += k
        self.bytes_sent += int(np.add.reduce(nbytes, dtype=np.int64))
        self.hops_crossed += int(np.add.reduce(hops, dtype=np.int64))
        if self.keep_records:
            ints = (
                np.asarray(col, dtype=np.int64).tolist()
                for col in (srcs, dsts, nbytes, hops)
            )
            t, dep = (
                np.asarray(col, dtype=np.float64).tolist()
                for col in (times, [-1.0] * k if departs is None else departs)
            )
            self.records.extend(map(MessageRecord, t, *ints, repeat(tag), dep))
        if self.sink is not None:
            self.sink.on_message_wave(times, srcs, dsts, nbytes, hops, tag, departs)

    def merge(self, other: "TraceStats") -> None:
        """Fold another stats object into this one (multi-phase runs).

        Records the other side already paid to keep are never dropped,
        even when this side was created with ``keep_records=False``.
        """
        self.messages += other.messages
        self.bytes_sent += other.bytes_sent
        self.hops_crossed += other.hops_crossed
        self.compute_seconds += other.compute_seconds
        self.comm_seconds += other.comm_seconds
        self.idle_seconds += other.idle_seconds
        self.skeleton_calls += other.skeleton_calls
        self.records.extend(other.records)

    def clear(self) -> None:
        """Zero all counters **in place**.

        :meth:`repro.machine.machine.Machine.reset` clears rather than
        replaces its stats so that every component that captured the
        object at construction time (the network, a long-lived
        :class:`~repro.machine.engine.Engine`, a span tracer) keeps
        observing the same accumulator.
        """
        self.messages = 0
        self.bytes_sent = 0
        self.hops_crossed = 0
        self.compute_seconds = 0.0
        self.comm_seconds = 0.0
        self.idle_seconds = 0.0
        self.skeleton_calls = 0
        self.records.clear()

    def summary(self) -> dict[str, float]:
        return {
            "messages": self.messages,
            "bytes": self.bytes_sent,
            "hops": self.hops_crossed,
            "compute_s": self.compute_seconds,
            "comm_s": self.comm_seconds,
            "idle_s": self.idle_seconds,
            "skeleton_calls": self.skeleton_calls,
        }
