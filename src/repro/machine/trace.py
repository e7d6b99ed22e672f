"""Execution statistics and optional event tracing for simulated runs.

Messages reach :class:`TraceStats` one at a time
(:meth:`~TraceStats.record_message`), as one wave of parallel arrays
(:meth:`~TraceStats.record_messages`), or — from a traced
:class:`~repro.machine.network.Network` — through its :class:`WaveLog`;
a recording appends one :class:`MessageRecord` per message to
:attr:`TraceStats.records` either way.

A traced Network appends each charged wave to its :class:`WaveLog` once,
as the columns it computed, and every order-free sink (records,
metrics, the recording's timeline, the stream observer and its spill)
and the critical-path fold drain the log in batches, in emission
order.  An entry is a tuple ``(msgs, lanes, fold, text)``, any part
``None``:

* ``msgs`` — ``(tag, srcs, dsts, nbytes, hops, departs, arrivals,
  cut)``: arrays of one length (``nbytes`` may be one int for all), or
  scalars for one message, and ``cut`` = ``(plan, lo, hi)`` when the
  hops are those of the :class:`~repro.machine.topology.EdgePlan`'s
  edges ``lo .. hi - 1`` (``None``: whole), else ``None``;
* ``lanes`` — ``(detail, lanes, wave)``, logged only for a sink that
  keeps or writes intervals (a recording's timeline, a spill): the
  intervals, either
  ``lanes``, a tuple of ``(ranks, kind, starts, ends)`` (arrays of one
  length, or scalars), or ``wave`` = ``(srcs, dsts, send_from, send_to,
  wait_from, arrivals, wires)``, the send / idle / recv lanes of a
  message wave (idle up to ``arrival - wire``, then recv);
* ``fold`` — ``(method name, args)``, a
  :class:`~repro.obs.analysis.PathFold` step;
* ``text`` — one line of the stream spill (a closed span).

The arrays belong to the log: an emitter hands over arrays it no longer
writes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

__all__ = ["MessageRecord", "TraceStats", "WaveLog", "LOG_BUDGET", "drain",
           "interval_entry", "batch_messages", "batch_intervals", "message_order"]

#: messages and work intervals the log holds before it drains: a
#: batch's columns stay within a few hundred kilobytes, which the cache
#: holds; a longer wave drains alone
LOG_BUDGET = 1 << 12


class WaveLog:
    """The charged waves of a traced Network, in emission order, until
    the sinks drain them (module docstring).

    :meth:`append` drains when the pending elements reach
    :data:`LOG_BUDGET`; every reader of a sink's state drains first
    (the sinks hold the log as ``_log``; the log holds them weakly).  A
    drain hands the batch to each sink in turn and leaves the log empty
    first, so a reader called from inside a drain finds nothing to do.
    """

    def __init__(self, sinks) -> None:
        self.sinks = tuple(map(weakref.WeakMethod, sinks))
        self.entries: list[tuple] = []
        self.size = 0

    def append(self, entry: tuple, size: int = 1) -> None:
        self.entries.append(entry)
        self.size += size
        if self.size >= LOG_BUDGET:
            self.drain()

    def drain(self) -> None:
        entries = self.entries
        if entries:
            self.entries, self.size = [], 0
            for ref in self.sinks:
                sink = ref()
                if sink is not None:
                    sink(entries)


def drain(log: "WaveLog | None") -> None:
    """Drain *log*, if there is one (a sink's reader)."""
    if log is not None and log.entries:
        log.drain()


def interval_entry(lanes, detail: str = "") -> tuple:
    """A log entry of *lanes* ``(ranks, kind, starts, ends)`` handed over
    directly (numbers or sequences), for a timeline's ``drain``."""
    return (None, (detail, tuple((np.asarray(r), kind, np.asarray(s, dtype=np.float64),
                                  np.asarray(e, dtype=np.float64))
                                 for r, kind, s, e in lanes), None), None, None)


def batch_messages(entries, columns=range(6)):
    """The messages of a drained batch: each wave's tag and message
    count, and the *columns* (of ``srcs, dsts, nbytes, hops, departs,
    arrivals``) over the batch; ``None`` without messages."""
    waves = [e[0] for e in entries if e[0] is not None]
    if not waves:
        return None
    counts = [np.size(w[6]) for w in waves]
    cols = []
    for c in columns:
        col = [w[c + 1] for w in waves]
        if c == 2 and any(isinstance(nb, np.ndarray) for nb in col):
            col = [nb if isinstance(nb, np.ndarray) else np.full(k, nb, dtype=np.int64)
                   for nb, k in zip(col, counts)]
        elif c == 2:  # one count a wave
            col = [np.repeat(np.array(col, dtype=np.int64), counts)]
        cols.append(np.concatenate(col, axis=None))
    return [w[0] for w in waves], counts, cols


def message_order(lanes):
    """The permutation that takes :func:`batch_intervals` columns from
    lane-major to message-major order — per message of an entry its
    lanes in turn (``send, idle, recv``), as the record timeline lists
    them — or ``None`` when they already are."""
    groups, last = [], None
    for i, _, _, n in lanes:
        if n and i == last:  # the entry's next lane
            groups[-1][1] += 1
        else:
            groups.append([n or 1, 1])
        last = i if n else None
    if len(groups) == len(lanes):
        return None
    n, width = np.array(groups).T
    size = n * width
    base = np.repeat(np.cumsum(size) - size, size)
    msg, lane = np.divmod(np.arange(base.size) - base, np.repeat(width, size))
    return base + lane * np.repeat(n, size) + msg


def batch_intervals(entries):
    """The intervals of a drained batch, lane-major: ``(ranks, starts,
    ends, lanes)``, three columns and per lane ``(entry index, kind,
    detail, length)`` — length 0 for a scalar lane (one interval), which
    is left out when it does not end after it starts; ``None`` without
    lanes.  The idle and recv lanes of the message waves are derived for
    the whole batch at once."""
    waves = [e[1][2] for e in entries if e[1] is not None and e[1][2] is not None]
    if waves:
        arrivals = np.concatenate([w[5] for w in waves])
        idle_end = arrivals - np.concatenate([w[6] for w in waves])
        recv_from = np.maximum(np.concatenate([w[4] for w in waves]), idle_end)
    ranks, starts, ends, lanes, at = [], [], [], [], 0
    for i, entry in enumerate(entries):
        if entry[1] is None:
            continue
        detail, explicit, wave = entry[1]
        if wave is not None:
            srcs, dsts, send_from, send_to, wait_from, arr, _ = wave
            cut = slice(at, at + len(arr))
            at = cut.stop
            explicit = ((srcs, "send", send_from, send_to),
                        (dsts, "idle", wait_from, idle_end[cut]),
                        (dsts, "recv", recv_from[cut], arr))
        for rank, kind, start, end in explicit:
            if isinstance(end, np.ndarray) and end.ndim:
                n = end.size
            elif end > start:
                n = 0
            else:
                continue
            ranks.append(rank)
            starts.append(start)
            ends.append(end)
            lanes.append((i, kind, detail, n))
    if not lanes:
        return None
    return (*(np.concatenate(c, axis=None) for c in (ranks, starts, ends)), lanes)


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
    _records: list[MessageRecord] = field(default_factory=list, repr=False)
    keep_records: bool = False
    #: the Network's :class:`WaveLog` when this stats keeps records
    _log: WaveLog | None = field(default=None, repr=False, compare=False)

    @property
    def records(self) -> list[MessageRecord]:
        """Every recorded message, in emission order (the log drained)."""
        drain(self._log)
        return self._records

    def drain_records(self, entries) -> None:
        """A drained batch's messages (:class:`WaveLog`), one record
        each, as :meth:`record_messages` appends them wave by wave."""
        batch = batch_messages(entries)
        if batch is not None:
            tags, counts, cols = batch
            srcs, dsts, nbytes, hops, departs, times = (c.tolist() for c in cols)
            self._records.extend(map(MessageRecord, times, srcs, dsts, nbytes, hops,
                                     chain.from_iterable(map(repeat, tags, counts)),
                                     departs))

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
            drain(self._log)  # after what the Network logged before
            self._records.append(
                MessageRecord(time, src, dst, nbytes, hops, tag, depart)
            )

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
            drain(self._log)
            self._records.extend(map(MessageRecord, t, *ints, repeat(tag), dep))

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
        self._records.clear()

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
