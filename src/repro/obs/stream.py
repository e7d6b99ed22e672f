"""Streaming, memory-bounded observability (``trace_mode="stream"``).

The record-mode trace layers (:mod:`repro.machine.trace`,
:mod:`repro.obs.timeline`, :mod:`repro.obs.span`) keep every message,
per-rank interval and span — O(messages) memory, which makes a traced
run at p=16384 infeasible.  The Network emits each charged wave once,
through one interface; this module holds the *sinks* that fold the
same waves online instead of keeping them:

* exact per-rank/per-kind aggregates (:class:`StreamTimeline`) and
  per-rank message counters (:class:`StreamObserver`) — O(p) memory,
  updated one vectorized wave at a time on the batched charging paths;
* exact per-skeleton aggregates with duration histograms
  (p50/p99 via :meth:`repro.obs.metrics.Histogram.quantile`);
* a seeded reservoir sample of message records and a ring buffer of
  recent spans — O(samples) memory;
* an optional rotating JSONL spill writer
  (:class:`JsonlSpillWriter`) that streams full detail to disk using
  the Chrome trace-event schema of :mod:`repro.obs.export`, one event
  per line — O(1) memory, unbounded disk only on request.

**Bit-identity contract.**  The aggregates are not approximations: every
scalar cell is updated with the same IEEE-754 additions, in the same
order, as a left-to-right fold over the corresponding record-mode lists.
Within one wave each (rank, kind) cell receives its contributions
through ``np.add.at``, which applies element-by-element in index order —
the order record mode lists that cell's intervals in.  The ``stream`` pillar
of :mod:`repro.check` holds this line: it folds a full ``trace_level=2``
recording through :func:`fold_recorded` and compares every array
bitwise against a live streamed run.

Only the *reservoir contents* are exempt: retention is a seeded,
deterministic function of the (seed, event sequence, wave grouping), so
a record-mode fold (scalar offers) and a live batched run (wave offers)
draw their uniforms in a different order and may retain different —
always valid — samples of the same stream.
"""

from __future__ import annotations

import json
import os
import sys
import time as _walltime
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import SkilError
from repro.machine.trace import MessageRecord
from repro.obs.export import interval_event, span_event
from repro.obs.metrics import Histogram
from repro.obs.span import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "ObsSink",
    "StreamConfig",
    "StreamTimeline",
    "StreamObserver",
    "ReservoirSampler",
    "SpanRing",
    "JsonlSpillWriter",
    "SkeletonAgg",
    "ProgressReporter",
    "fold_recorded",
    "compare_observers",
    "KINDS",
    "DURATION_BUCKETS",
]

#: activity kinds with pre-allocated per-rank aggregate slots; unknown
#: kinds get their own arrays on first sight.
KINDS = ("compute", "send", "recv", "idle")

#: span-duration buckets in simulated seconds: powers of two from ~1 ns
#: to ~17 min, fine enough for p50/p99 interpolation on any profile.
DURATION_BUCKETS = tuple(2.0 ** k for k in range(-30, 11))


@runtime_checkable
class ObsSink(Protocol):
    """Consumer of the trace event stream.

    :class:`~repro.machine.trace.TraceStats` forwards every message to
    its ``sink`` (scalar or as a vectorized wave, matching how the
    charging path emitted it); the span tracer forwards every *closed*
    span.  Interval emission flows through a timeline object installed
    as ``network.timeline`` — :class:`StreamTimeline` here — rather
    than through this protocol, because the Network/Engine already
    speak the ``timeline.add`` interface.
    """

    def on_message(
        self,
        time: float,
        src: int,
        dst: int,
        nbytes: int,
        hops: int,
        tag: str,
        depart: float,
    ) -> None: ...

    def on_message_wave(
        self, times, srcs, dsts, nbytes, hops, tag: str, departs
    ) -> None: ...

    def on_span(self, span: Span) -> None: ...


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the streaming layer; the defaults keep a run at
    p=16384 in a few MB of trace state."""

    #: reservoir capacity — how many message records are retained
    sample_size: int = 1024
    #: ring capacity — how many recent closed spans are retained
    ring_size: int = 256
    #: seed of the reservoir's RNG (retention is deterministic per path)
    seed: int = 0
    #: when set, stream full-detail Chrome events (intervals, messages,
    #: spans) to this JSONL file, rotating at :attr:`spill_max_bytes`
    spill_path: str | None = None
    spill_max_bytes: int = 8 << 20
    #: rotated files kept as ``<path>.1 .. <path>.N`` (oldest dropped)
    spill_keep: int = 4
    #: wall-clock seconds between heartbeat lines when a
    #: :class:`ProgressReporter` is attached
    heartbeat_every: float = 5.0


# ---------------------------------------------------------------- samplers
class ReservoirSampler:
    """Algorithm-R reservoir over the message stream.

    Every offered message beyond the fill phase draws one uniform from
    a seeded PCG64 generator (plus one more to pick the slot when it is
    accepted), so retention is a pure function of the seed and the
    offer sequence.  Wave offers draw the same underlying stream as
    scalar offers but in vectorized order; see the module docstring for
    why reservoir *contents* are outside the bit-identity contract.
    """

    def __init__(self, capacity: int, seed: int = 0):
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.seen = 0
        self.items: list[MessageRecord] = []
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def offer(
        self,
        time: float,
        src: int,
        dst: int,
        nbytes: int,
        hops: int,
        tag: str,
        depart: float,
    ) -> None:
        self.seen += 1
        if self.capacity <= 0:
            return
        if len(self.items) < self.capacity:
            self.items.append(
                MessageRecord(
                    float(time), int(src), int(dst), int(nbytes), int(hops),
                    tag, float(depart),
                )
            )
            return
        if float(self._rng.random()) * self.seen < self.capacity:
            slot = int(self._rng.random() * self.capacity)
            self.items[slot] = MessageRecord(
                float(time), int(src), int(dst), int(nbytes), int(hops),
                tag, float(depart),
            )

    def offer_wave(self, times, srcs, dsts, nbytes, hops, tag: str, departs) -> None:
        k = len(srcs)
        if self.capacity <= 0:
            self.seen += k
            return
        fill = min(max(self.capacity - len(self.items), 0), k)
        for i in range(fill):
            self.items.append(
                MessageRecord(
                    float(times[i]), int(srcs[i]), int(dsts[i]),
                    int(nbytes[i]), int(hops[i]), tag, float(departs[i]),
                )
            )
        rest = k - fill
        if rest:
            # item ordinals (1-based count including the item itself),
            # continuing from everything seen before this wave
            ordinals = self.seen + fill + 1 + np.arange(rest, dtype=np.float64)
            accept = self._rng.random(rest) * ordinals < self.capacity
            for j in np.nonzero(accept)[0].tolist():
                slot = int(self._rng.random() * self.capacity)
                i = fill + j
                self.items[slot] = MessageRecord(
                    float(times[i]), int(srcs[i]), int(dsts[i]),
                    int(nbytes[i]), int(hops[i]), tag, float(departs[i]),
                )
        self.seen += k

    def __len__(self) -> int:
        return len(self.items)

    def clear(self) -> None:
        self.seen = 0
        self.items.clear()
        self._rng = np.random.Generator(np.random.PCG64(self.seed))


class SpanRing:
    """Ring buffer of the most recent closed spans."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.seen = 0
        self._buf: deque[Span] = deque(maxlen=max(self.capacity, 0))

    def append(self, span: Span) -> None:
        self.seen += 1
        if self.capacity > 0:
            self._buf.append(span)

    def items(self) -> list[Span]:
        return list(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def clear(self) -> None:
        self.seen = 0
        self._buf.clear()


# ---------------------------------------------------------------- spilling
class JsonlSpillWriter:
    """Rotating JSONL writer of Chrome trace events, one per line.

    Reuses the event schema of :mod:`repro.obs.export` (complete
    ``"ph": "X"`` events with µs timestamps), so a spill file converts
    to a loadable trace by wrapping the lines in a ``traceEvents``
    array.  Rotation renames ``path`` → ``path.1`` → … → ``path.N``
    (``spill_keep``) and truncates, bounding disk per file while the
    writer itself stays O(1) memory.
    """

    def __init__(self, path: str, max_bytes: int = 8 << 20, keep: int = 4):
        self.path = str(path)
        self.max_bytes = int(max_bytes)
        self.keep = int(keep)
        self.events_written = 0
        self.rotations = 0
        self._bytes = 0
        self._fh = open(self.path, "w", encoding="utf-8")

    def write_event(self, event: dict[str, Any]) -> None:
        line = json.dumps(event, separators=(",", ":")) + "\n"
        if self._fh.closed:  # written to again after close(): carry on
            self._fh = open(self.path, "a", encoding="utf-8")
        if self._bytes and self._bytes + len(line) > self.max_bytes:
            self.rotate()
        self._fh.write(line)
        self._bytes += len(line)
        self.events_written += 1

    def rotate(self) -> None:
        self._fh.close()
        for i in range(self.keep - 1, 0, -1):
            older = f"{self.path}.{i}"
            if os.path.exists(older):
                os.replace(older, f"{self.path}.{i + 1}")
        if self.keep > 0:
            os.replace(self.path, f"{self.path}.1")
        self._fh = open(self.path, "w", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSpillWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _message_event(time, src, dst, nbytes, hops, tag, depart) -> dict[str, Any]:
    """A message as an interval on the receiver's track, from its wire
    departure (the arrival when unknown) to its arrival."""
    t = float(time)
    d = float(depart)
    ts = d if d >= 0.0 else t
    event = interval_event(dst, "message", ts, max(t, ts), tag)
    event["args"] = {"src": int(src), "nbytes": int(nbytes), "hops": int(hops)}
    return event


# ---------------------------------------------------------------- timeline
class StreamTimeline:
    """O(p) stand-in for :class:`repro.obs.timeline.Timeline`.

    Speaks the same emission interface — ``add`` for one interval,
    ``add_many`` / ``add_lanes`` for a charged wave, all dropping
    zero/negative-length intervals — so the Network and the Engine emit
    without knowing which timeline is installed.  Per (rank, kind) it
    keeps exact total seconds and interval counts; per rank the
    earliest start / latest end over all kinds (the record-mode
    ``span()`` query).
    """

    def __init__(self, p: int, observer: "StreamObserver | None" = None):
        self.p = int(p)
        self.seconds: dict[str, np.ndarray] = {
            k: np.zeros(self.p, dtype=np.float64) for k in KINDS
        }
        self.counts: dict[str, np.ndarray] = {
            k: np.zeros(self.p, dtype=np.int64) for k in KINDS
        }
        self.first_start = np.full(self.p, np.inf, dtype=np.float64)
        self.last_end = np.full(self.p, -np.inf, dtype=np.float64)
        self.intervals_seen = 0
        self._observer = observer

    def _slot(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        sec = self.seconds.get(kind)
        if sec is None:
            sec = self.seconds[kind] = np.zeros(self.p, dtype=np.float64)
            self.counts[kind] = np.zeros(self.p, dtype=np.int64)
        return sec, self.counts[kind]

    def add(
        self, rank: int, kind: str, start: float, end: float, detail: str = ""
    ) -> None:
        """Scalar interval; bit-identical to the record-mode fold."""
        if not end > start:
            return
        sec, cnt = self._slot(kind)
        r = int(rank)
        sec[r] += float(end) - float(start)
        cnt[r] += 1
        if start < self.first_start[r]:
            self.first_start[r] = start
        if end > self.last_end[r]:
            self.last_end[r] = end
        self.intervals_seen += 1
        obs = self._observer
        if obs is not None and obs.spill is not None:
            obs.spill.write_event(interval_event(r, kind, start, end, detail))

    def add_many(self, ranks, kind: str, starts, ends, detail: str = "") -> None:
        """One vectorized wave of same-kind intervals.

        Equivalent — cell for cell, bit for bit — to calling
        :meth:`add` per entry in index order: ``np.add.at`` applies its
        updates element-by-element, and the drop mask reproduces the
        ``end > start`` guard.
        """
        rs = np.asarray(ranks)
        ss = np.asarray(starts, dtype=np.float64)
        es = np.asarray(ends, dtype=np.float64)
        mask = es > ss
        if not mask.any():
            return
        rs, ss, es = rs[mask], ss[mask], es[mask]
        sec, cnt = self._slot(kind)
        np.add.at(sec, rs, es - ss)
        np.add.at(cnt, rs, 1)
        np.minimum.at(self.first_start, rs, ss)
        np.maximum.at(self.last_end, rs, es)
        self.intervals_seen += int(rs.size)
        obs = self._observer
        if obs is not None and obs.spill is not None:
            for i in range(rs.size):
                obs.spill.write_event(
                    interval_event(rs[i], kind, ss[i], es[i], detail)
                )

    def add_lanes(self, lanes, detail: str = "") -> None:
        """One message wave (see :meth:`Timeline.add_lanes
        <repro.obs.timeline.Timeline.add_lanes>`): the aggregates do not
        depend on how the lanes interleave, so each lane is one
        :meth:`add_many`."""
        for ranks, kind, starts, ends in lanes:
            self.add_many(ranks, kind, starts, ends, detail)

    # ------------------------------------------------------------- queries
    def kinds(self) -> list[str]:
        return sorted(k for k, c in self.counts.items() if c.any())

    def busy_seconds_by_rank(self) -> np.ndarray:
        """Per-rank non-idle seconds (sum over kinds; overlaps not
        merged — the streaming layer has no interval endpoints left to
        merge, which is the documented difference from record-mode
        :meth:`~repro.obs.timeline.Timeline.coverage`)."""
        busy = np.zeros(self.p, dtype=np.float64)
        for kind, sec in self.seconds.items():
            if kind != "idle":
                busy += sec
        return busy

    def idle_seconds_by_rank(self) -> np.ndarray:
        return self.seconds["idle"].copy()

    def span(self, rank: int) -> tuple[float, float] | None:
        r = int(rank)
        if not np.isfinite(self.first_start[r]):
            return None
        return float(self.first_start[r]), float(self.last_end[r])

    def __len__(self) -> int:
        """Intervals *seen* (none are retained)."""
        return self.intervals_seen

    def clear(self) -> None:
        for arr in self.seconds.values():
            arr.fill(0.0)
        for arr in self.counts.values():
            arr.fill(0)
        self.first_start.fill(np.inf)
        self.last_end.fill(-np.inf)
        self.intervals_seen = 0


# ---------------------------------------------------------------- span aggs
@dataclass
class SkeletonAgg:
    """Online aggregate over the closed spans of one (category, name).

    Attribution is *inclusive* of nested spans, matching
    :attr:`repro.obs.span.Span` semantics; the exclusive breakdown of
    ``repro.eval.trace_report`` needs the full span tree and remains a
    record-mode feature.
    """

    name: str
    category: str
    calls: int = 0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0
    idle_seconds: float = 0.0
    messages: int = 0
    bytes_sent: int = 0
    duration_seconds: float = 0.0
    durations: Histogram = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.durations is None:
            self.durations = Histogram(
                f"span.duration.{self.name}", buckets=DURATION_BUCKETS
            )

    def fold(self, span: Span) -> None:
        self.calls += 1
        self.compute_seconds += span.compute_seconds
        self.comm_seconds += span.comm_seconds
        self.idle_seconds += span.idle_seconds
        self.messages += span.messages
        self.bytes_sent += span.bytes_sent
        self.duration_seconds += span.duration
        self.durations.observe(span.duration)

    @property
    def busy_total(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.idle_seconds


# ---------------------------------------------------------------- observer
class StreamObserver:
    """Composite :class:`ObsSink`: exact aggregates + bounded samples.

    Owns the :class:`StreamTimeline` that ``Machine`` installs as the
    network's timeline, the reservoir/ring samplers, and the optional
    spill writer.  Memory is O(p + sample_size + ring_size) by
    construction; :meth:`accounting` exposes the exact footprint and
    :meth:`assert_bounded` turns it into a hard invariant.
    """

    def __init__(self, p: int, config: StreamConfig | None = None):
        self.p = int(p)
        self.config = config or StreamConfig()
        self.spill = (
            JsonlSpillWriter(
                self.config.spill_path,
                max_bytes=self.config.spill_max_bytes,
                keep=self.config.spill_keep,
            )
            if self.config.spill_path
            else None
        )
        self.timeline = StreamTimeline(self.p, observer=self)
        self.reservoir = ReservoirSampler(
            self.config.sample_size, seed=self.config.seed
        )
        self.ring = SpanRing(self.config.ring_size)
        # exact per-rank message aggregates
        self.sent_count = np.zeros(self.p, dtype=np.int64)
        self.recv_count = np.zeros(self.p, dtype=np.int64)
        self.sent_bytes = np.zeros(self.p, dtype=np.int64)
        self.recv_bytes = np.zeros(self.p, dtype=np.int64)
        self.sent_hops = np.zeros(self.p, dtype=np.int64)
        # exact per-tag totals
        self.tag_messages: dict[str, int] = {}
        self.tag_bytes: dict[str, int] = {}
        self.messages_seen = 0
        self.spans_seen = 0
        #: exact per-(category, name) span aggregates
        self.span_aggs: dict[tuple[str, str], SkeletonAgg] = {}
        #: optional heartbeat, ticked on span closes
        self.heartbeat: "ProgressReporter | None" = None

    # ----------------------------------------------------------- messages
    def on_message(
        self,
        time: float,
        src: int,
        dst: int,
        nbytes: int,
        hops: int,
        tag: str,
        depart: float,
    ) -> None:
        s, d, nb = int(src), int(dst), int(nbytes)
        self.sent_count[s] += 1
        self.recv_count[d] += 1
        self.sent_bytes[s] += nb
        self.recv_bytes[d] += nb
        self.sent_hops[s] += int(hops)
        key = tag or "untagged"
        self.tag_messages[key] = self.tag_messages.get(key, 0) + 1
        self.tag_bytes[key] = self.tag_bytes.get(key, 0) + nb
        self.messages_seen += 1
        self.reservoir.offer(time, src, dst, nbytes, hops, tag, depart)
        if self.spill is not None:
            self.spill.write_event(
                _message_event(time, src, dst, nbytes, hops, tag, depart)
            )

    def on_message_wave(
        self, times, srcs, dsts, nbytes, hops, tag: str, departs
    ) -> None:
        k = len(srcs)
        if k == 0:
            return
        ss = np.asarray(srcs)
        ds = np.asarray(dsts)
        nbs = np.asarray(nbytes, dtype=np.int64)
        hps = np.asarray(hops, dtype=np.int64)
        if departs is None:
            departs = np.full(k, -1.0)
        np.add.at(self.sent_count, ss, 1)
        np.add.at(self.recv_count, ds, 1)
        np.add.at(self.sent_bytes, ss, nbs)
        np.add.at(self.recv_bytes, ds, nbs)
        np.add.at(self.sent_hops, ss, hps)
        key = tag or "untagged"
        self.tag_messages[key] = self.tag_messages.get(key, 0) + k
        self.tag_bytes[key] = self.tag_bytes.get(key, 0) + int(nbs.sum(dtype=np.int64))
        self.messages_seen += k
        self.reservoir.offer_wave(times, srcs, dsts, nbs, hps, tag, departs)
        if self.spill is not None:
            for i in range(k):
                self.spill.write_event(
                    _message_event(
                        times[i], ss[i], ds[i], nbs[i], hps[i], tag, departs[i]
                    )
                )

    # -------------------------------------------------------------- spans
    def on_span(self, span: Span) -> None:
        key = (span.category, span.name)
        agg = self.span_aggs.get(key)
        if agg is None:
            agg = self.span_aggs[key] = SkeletonAgg(span.name, span.category)
        agg.fold(span)
        self.ring.append(span)
        self.spans_seen += 1
        if self.spill is not None:
            self.spill.write_event(span_event(span))
        if self.heartbeat is not None:
            self.heartbeat.maybe_report()

    # ---------------------------------------------------------- accounting
    def accounting(self) -> dict[str, int]:
        """Exact footprint counters of everything this observer retains.

        ``per_rank_cells`` counts array elements across all per-rank
        aggregates (O(p)); the ``*_retained`` counters are capped by
        configuration while the ``*_seen`` counters grow with the run —
        their ratio is the memory the streaming layer saved.
        """
        cells = 5 * self.p + 2 * self.p  # message arrays + first/last
        for arr in self.timeline.seconds.values():
            cells += arr.size
        for arr in self.timeline.counts.values():
            cells += arr.size
        return {
            "p": self.p,
            "per_rank_cells": cells,
            "messages_seen": self.messages_seen,
            "intervals_seen": self.timeline.intervals_seen,
            "spans_seen": self.spans_seen,
            "records_retained": len(self.reservoir),
            "records_cap": self.reservoir.capacity,
            "spans_retained": len(self.ring),
            "spans_cap": self.ring.capacity,
            "intervals_retained": 0,
            "span_agg_keys": len(self.span_aggs),
            "tag_keys": len(self.tag_messages),
            "spill_events": self.spill.events_written if self.spill else 0,
        }

    def assert_bounded(self) -> dict[str, int]:
        """Raise unless retained state is within the O(p + samples) bound."""
        acc = self.accounting()
        problems: list[str] = []
        if acc["records_retained"] > acc["records_cap"]:
            problems.append(
                f"reservoir over capacity: {acc['records_retained']} > "
                f"{acc['records_cap']}"
            )
        if acc["spans_retained"] > max(acc["spans_cap"], 0):
            problems.append(
                f"span ring over capacity: {acc['spans_retained']} > "
                f"{acc['spans_cap']}"
            )
        # per-rank state: two arrays per activity kind plus seven fixed
        # arrays; anything beyond 64 cells/rank means a retention leak
        if acc["per_rank_cells"] > 64 * self.p:
            problems.append(
                f"per-rank state grew past O(p): {acc['per_rank_cells']} "
                f"cells for p={self.p}"
            )
        if acc["intervals_retained"] != 0:
            problems.append("stream timeline retained intervals")
        if problems:
            raise SkilError(
                "stream observability exceeded its memory bound: "
                + "; ".join(problems)
            )
        return acc

    def clear(self) -> None:
        self.timeline.clear()
        self.reservoir.clear()
        self.ring.clear()
        for arr in (
            self.sent_count,
            self.recv_count,
            self.sent_bytes,
            self.recv_bytes,
            self.sent_hops,
        ):
            arr.fill(0)
        self.tag_messages.clear()
        self.tag_bytes.clear()
        self.messages_seen = 0
        self.spans_seen = 0
        self.span_aggs.clear()

    def close(self) -> None:
        if self.spill is not None:
            self.spill.close()


# ---------------------------------------------------------------- progress
class ProgressReporter:
    """Wall-clock heartbeat for long runs.

    Emits at most one line every ``interval`` wall-seconds (unless
    forced): elapsed wall time, simulated time, message/skeleton
    counters, a straggler flag from the per-rank busy aggregates, and —
    when the caller knows the target simulated time — an ETA.  Also
    usable as a plain step logger via :meth:`note` (``eval all
    --progress``).
    """

    def __init__(
        self,
        machine: "Machine | None" = None,
        out=None,
        interval: float = 5.0,
        total_sim_hint: float | None = None,
        clock=_walltime.monotonic,
        straggler_skew: float = 1.5,
    ):
        self.machine = machine
        self.out = out if out is not None else sys.stderr
        self.interval = float(interval)
        self.total_sim_hint = total_sim_hint
        self.straggler_skew = float(straggler_skew)
        self._clock = clock
        self._t0 = clock()
        self._last = -np.inf
        self.lines_emitted = 0

    # ------------------------------------------------------------- emitters
    def note(self, label: str) -> None:
        """Unconditional progress line (one per evaluation step)."""
        self._emit(f"[{self._fmt_wall(self.elapsed())}] {label}")

    def maybe_report(self, force: bool = False) -> bool:
        now = self._clock()
        if not force and now - self._last < self.interval:
            return False
        self._last = now
        self._emit(self.format_line())
        return True

    def _emit(self, line: str) -> None:
        print(line, file=self.out, flush=True)
        self.lines_emitted += 1

    # ------------------------------------------------------------- content
    def elapsed(self) -> float:
        return self._clock() - self._t0

    def format_line(self) -> str:
        m = self.machine
        wall = self._fmt_wall(self.elapsed())
        if m is None:
            return f"[{wall}] heartbeat"
        stats = m.stats
        parts = [
            f"[{wall}]",
            f"sim={m.time:.6g}s",
            f"msgs={stats.messages}",
            f"skeletons={stats.skeleton_calls}",
        ]
        obs = getattr(m, "stream_obs", None)
        if obs is not None:
            busy = obs.timeline.busy_seconds_by_rank()
            med = float(np.median(busy))
            if med > 0.0:
                worst = int(np.argmax(busy))
                skew = float(busy[worst]) / med
                if skew >= self.straggler_skew:
                    parts.append(f"straggler=r{worst}(x{skew:.2f})")
                else:
                    parts.append("balanced")
        if self.total_sim_hint and m.time > 0.0:
            frac = min(m.time / self.total_sim_hint, 1.0)
            if frac > 0.0:
                eta = self.elapsed() * (1.0 - frac) / frac
                parts.append(f"~{frac:.0%}")
                parts.append(f"eta={self._fmt_wall(eta)}")
        return " ".join(parts)

    @staticmethod
    def _fmt_wall(seconds: float) -> str:
        s = max(float(seconds), 0.0)
        if s < 60.0:
            return f"{s:.1f}s"
        mnt, sec = divmod(int(s), 60)
        hrs, mnt = divmod(mnt, 60)
        return f"{hrs}h{mnt:02d}m" if hrs else f"{mnt}m{sec:02d}s"


# ---------------------------------------------------------------- folding
def _close_order(tracer: SpanTracer) -> list[Span]:
    """Closed spans of a record-mode tracer in the order they closed.

    Under stack discipline the close sequence is exactly the post-order
    of the span forest with children visited in begin (index) order —
    do *not* sort by ``end_time``, which ties for spans closing at the
    same simulated instant.
    """
    children: dict[int | None, list[Span]] = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)
    out: list[Span] = []

    def visit(span: Span) -> None:
        for c in children.get(span.index, []):
            visit(c)
        if span.closed:
            out.append(span)

    for root in children.get(None, []):
        visit(root)
    return out


def fold_recorded(
    machine: "Machine", config: StreamConfig | None = None
) -> StreamObserver:
    """Fold a full ``trace_level=2`` recording into stream aggregates.

    Replays the recorded timeline intervals (append order), message
    records (append order) and closed spans (close order) through a
    fresh :class:`StreamObserver` using the same scalar update
    arithmetic as live streaming.  Everything except reservoir
    *contents* is bit-identical to running the same workload under
    ``trace_mode="stream"`` — the equality the ``stream`` check pillar
    asserts via :func:`compare_observers`.
    """
    timeline = machine.timeline
    tracer = machine.tracer
    if timeline is None or tracer is None or not machine.stats.keep_records:
        raise SkilError(
            "fold_recorded needs a full recording: "
            "Machine(trace_level=2) in the default record mode"
        )
    obs = StreamObserver(machine.p, config)
    for iv in timeline.intervals:
        obs.timeline.add(iv.rank, iv.kind, iv.start, iv.end, iv.detail)
    for rec in machine.stats.records:
        obs.on_message(
            rec.time, rec.src, rec.dst, rec.nbytes, rec.hops, rec.tag, rec.depart
        )
    for span in _close_order(tracer):
        obs.on_span(span)
    return obs


def _diff_arrays(name: str, a: np.ndarray, b: np.ndarray, problems: list[str]) -> None:
    if a.shape != b.shape:
        problems.append(f"{name}: shape {a.shape} vs {b.shape}")
        return
    if not np.array_equal(a, b):
        idx = int(np.argmax(a != b))
        problems.append(f"{name}: first diff at [{idx}]: {a[idx]!r} vs {b[idx]!r}")


def compare_observers(a: StreamObserver, b: StreamObserver) -> list[str]:
    """Bitwise comparison of two observers' exact state.

    Returns human-readable problems (empty list = identical).  The
    reservoir is compared by ``seen`` count only — its contents depend
    on wave grouping (module docstring) — and the spill writer is not
    compared at all.
    """
    problems: list[str] = []
    if a.p != b.p:
        return [f"p: {a.p} vs {b.p}"]
    ta, tb = a.timeline, b.timeline
    if set(ta.seconds) != set(tb.seconds):
        problems.append(
            f"timeline kinds: {sorted(ta.seconds)} vs {sorted(tb.seconds)}"
        )
    else:
        for kind in sorted(ta.seconds):
            _diff_arrays(f"timeline.seconds[{kind}]", ta.seconds[kind],
                         tb.seconds[kind], problems)
            _diff_arrays(f"timeline.counts[{kind}]", ta.counts[kind],
                         tb.counts[kind], problems)
    _diff_arrays("timeline.first_start", ta.first_start, tb.first_start, problems)
    _diff_arrays("timeline.last_end", ta.last_end, tb.last_end, problems)
    if ta.intervals_seen != tb.intervals_seen:
        problems.append(
            f"intervals_seen: {ta.intervals_seen} vs {tb.intervals_seen}"
        )
    for name in ("sent_count", "recv_count", "sent_bytes", "recv_bytes", "sent_hops"):
        _diff_arrays(name, getattr(a, name), getattr(b, name), problems)
    for name in ("tag_messages", "tag_bytes"):
        da, db = getattr(a, name), getattr(b, name)
        if da != db:
            problems.append(f"{name}: {da} vs {db}")
    if a.messages_seen != b.messages_seen:
        problems.append(f"messages_seen: {a.messages_seen} vs {b.messages_seen}")
    if a.reservoir.seen != b.reservoir.seen:
        problems.append(
            f"reservoir.seen: {a.reservoir.seen} vs {b.reservoir.seen}"
        )
    if a.spans_seen != b.spans_seen:
        problems.append(f"spans_seen: {a.spans_seen} vs {b.spans_seen}")
    if set(a.span_aggs) != set(b.span_aggs):
        problems.append(
            f"span agg keys: {sorted(a.span_aggs)} vs {sorted(b.span_aggs)}"
        )
    else:
        for key in sorted(a.span_aggs):
            ga, gb = a.span_aggs[key], b.span_aggs[key]
            for fname in (
                "calls",
                "compute_seconds",
                "comm_seconds",
                "idle_seconds",
                "messages",
                "bytes_sent",
                "duration_seconds",
            ):
                va, vb = getattr(ga, fname), getattr(gb, fname)
                if va != vb:
                    problems.append(f"span_aggs[{key}].{fname}: {va!r} vs {vb!r}")
            ha, hb = ga.durations, gb.durations
            if (ha.counts, ha.total, ha.count, ha.min, ha.max) != (
                hb.counts, hb.total, hb.count, hb.min, hb.max
            ):
                problems.append(f"span_aggs[{key}].durations histogram differs")
    if a.ring.items() != b.ring.items():
        problems.append("span ring contents differ")
    return problems
