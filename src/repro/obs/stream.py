"""Streaming, memory-bounded observability (``trace_mode="stream"``).

The record-mode trace layers (:mod:`repro.machine.trace`,
:mod:`repro.obs.timeline`, :mod:`repro.obs.span`) keep every message,
per-rank interval and span — O(messages) memory, which makes a traced
run at p=16384 infeasible.  The Network emits each charged wave once,
through one interface; this module holds the *sinks* that fold the
same waves online instead of keeping them, and keeps only what a
report, an analysis or the heartbeat reads:

* exact per-rank/per-kind seconds (:class:`StreamTimeline`: the
  heartbeat's straggler flag) — O(p) memory, updated one vectorized
  wave at a time on the batched charging paths;
* the critical-path fold (:class:`repro.obs.analysis.PathFold`), which
  the machine attaches in both modes and this observer accounts for;
* exact, exclusive per-skeleton aggregates with duration histograms
  (:class:`repro.obs.span.SkeletonAgg`, p50/p99 via
  :meth:`repro.obs.metrics.Histogram.quantile`) — a closed span is
  folded and let go, none is retained;
* an optional rotating JSONL spill writer
  (:class:`JsonlSpillWriter`) that streams full detail to disk using
  the Chrome trace-event schema of :mod:`repro.obs.export`, one event
  per line — O(1) memory, unbounded disk only on request.

**Bit-identity contract.**  The aggregates are not approximations: every
scalar cell is updated with the same IEEE-754 additions, in the same
order, as a left-to-right fold over the corresponding record-mode lists.
Within one wave each (rank, kind) cell receives its contributions
through ``np.add.at``, which applies element-by-element in index order —
the order record mode lists that cell's intervals in.  The ``trace`` pillar
of :mod:`repro.check` holds this line: it folds a full ``trace_level=2``
recording through the same sinks (``repro.check.tracecheck``) and
compares every aggregate bitwise against a live streamed run.
"""

from __future__ import annotations

import json
import os
import sys
import time as _walltime
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import SkilError
from repro.obs.analysis import TOPK
from repro.obs.export import encode_complete, span_event
from repro.obs.span import SkeletonAgg, Span, fold_skeleton

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "StreamConfig",
    "StreamTimeline",
    "StreamObserver",
    "JsonlSpillWriter",
    "ProgressReporter",
    "KINDS",
]

#: activity kinds with pre-allocated per-rank aggregate slots; unknown
#: kinds get their own array on first sight.
KINDS = ("compute", "send", "recv", "idle")

#: a rank this many times busier than the median is called a straggler
#: by the heartbeat
STRAGGLER_SKEW = 1.5


@dataclass(frozen=True)
class StreamConfig:
    """Where the streaming layer spills, if anywhere."""

    #: when set, stream full-detail Chrome events (intervals, messages,
    #: spans) to this JSONL file, rotated by :class:`JsonlSpillWriter`
    spill_path: str | None = None


# ---------------------------------------------------------------- spilling
class JsonlSpillWriter:
    """Rotating JSONL writer of Chrome trace events, one per line.

    Reuses the event schema of :mod:`repro.obs.export` (complete
    ``"ph": "X"`` events with µs timestamps), so a spill file converts
    to a loadable trace by wrapping the lines in a ``traceEvents``
    array.  Rotation renames ``path`` → ``path.1`` → … → ``path.N``
    (*keep*) and truncates, bounding disk per file while the
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
        """One event built as a dict (a closed span)."""
        self.write_lines(json.dumps(event, separators=(",", ":")) + "\n")

    def write_lines(self, text: str) -> None:
        """A wave of encoded events, one newline-terminated line each;
        rotates before the first line that would take the file past
        ``max_bytes`` (a file holds at least one line), as writing them
        one by one would, splitting only a wave that crosses the bound."""
        if not text:
            return
        if self._fh.closed:  # written to again after close(): carry on
            self._fh = open(self.path, "a", encoding="utf-8")
        self.events_written += text.count("\n")
        if self._bytes + len(text) <= self.max_bytes:
            self._fh.write(text)
            self._bytes += len(text)
            return
        for line in text.splitlines(keepends=True):
            if self._bytes and self._bytes + len(line) > self.max_bytes:
                self.rotate()
            self._fh.write(line)
            self._bytes += len(line)

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


# ---------------------------------------------------------------- timeline
class StreamTimeline:
    """O(p) stand-in for :class:`repro.obs.timeline.Timeline`.

    Speaks the same emission interface — ``add`` for one interval,
    ``add_many`` / ``add_lanes`` for a charged wave, all dropping
    zero/negative-length intervals — so the Network emits (for its
    charged waves and the event engine's events alike) without knowing
    which timeline is installed.  Per (rank, kind) it
    keeps exact total seconds; with *spill*, every interval is also
    written out as it passes.
    """

    def __init__(self, p: int, spill: JsonlSpillWriter | None = None):
        self.p = int(p)
        self.seconds: dict[str, np.ndarray] = {
            k: np.zeros(self.p, dtype=np.float64) for k in KINDS
        }
        self.intervals_seen = 0
        self._spill = spill

    def _slot(self, kind: str) -> np.ndarray:
        sec = self.seconds.get(kind)
        if sec is None:
            sec = self.seconds[kind] = np.zeros(self.p, dtype=np.float64)
        return sec

    def add(
        self, rank: int, kind: str, start: float, end: float, detail: str = ""
    ) -> None:
        """Scalar interval; bit-identical to the record-mode fold."""
        if not end > start:
            return
        r = int(rank)
        self._slot(kind)[r] += float(end) - float(start)
        self.intervals_seen += 1
        if self._spill is not None:
            self._spill.write_lines(encode_complete(
                [r], [start], [end], [(detail or kind, kind)], jsonl=True))

    def add_many(self, ranks, kind: str, starts, ends, detail: str = "") -> None:
        """One vectorized wave of same-kind intervals.

        Equivalent — cell for cell, bit for bit — to calling
        :meth:`add` per entry in index order: ``np.add.at`` applies its
        updates element-by-element, and the drop mask reproduces the
        ``end > start`` guard.
        """
        self.add_lanes(((ranks, kind, starts, ends),), detail)

    def add_lanes(self, lanes, detail: str = "") -> None:
        """One message wave (see :meth:`Timeline.add_lanes
        <repro.obs.timeline.Timeline.add_lanes>`), folded and spilled lane
        by lane: the aggregates do not depend on how lanes interleave."""
        kept = []
        for ranks, kind, starts, ends in lanes:
            rs = np.asarray(ranks)
            ss = np.asarray(starts, dtype=np.float64)
            es = np.asarray(ends, dtype=np.float64)
            mask = es > ss
            if not mask.all():
                if not mask.any():
                    continue
                rs, ss, es = rs[mask], ss[mask], es[mask]
            np.add.at(self._slot(kind), rs, es - ss)
            self.intervals_seen += int(rs.size)
            kept.append((rs, ss, es, (detail or kind, kind)))
        if self._spill is not None and kept:  # a scalar p2p's lanes are 0-d
            rs, ss, es, labels = zip(*kept)
            self._spill.write_lines(encode_complete(
                *(np.concatenate(c, axis=None) for c in (rs, ss, es)), labels,
                [i for i, r in enumerate(rs) for _ in range(r.size)], jsonl=True))

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

    def clear(self) -> None:
        for arr in self.seconds.values():
            arr.fill(0.0)
        self.intervals_seen = 0


# ---------------------------------------------------------------- observer
class StreamObserver:
    """The stream-mode sink: exact aggregates, nothing retained per event.

    :class:`~repro.machine.trace.TraceStats` forwards every message to
    its ``sink`` (``on_message`` scalar, ``on_message_wave`` as a
    vectorized wave, matching how the charging path emitted it); the
    span tracer hands over every *closed* span (``on_span``) and keeps
    none.  Interval emission flows through the :class:`StreamTimeline`
    this observer owns, which ``Machine`` installs as the network's
    timeline.  Memory is O(p) by construction; :meth:`accounting`
    exposes the exact footprint and :meth:`assert_bounded` turns it
    into a hard invariant.
    """

    def __init__(self, p: int, config: StreamConfig | None = None):
        self.p = int(p)
        path = config.spill_path if config is not None else None
        self.spill = JsonlSpillWriter(path) if path else None
        self.timeline = StreamTimeline(self.p, spill=self.spill)
        self.messages_seen = 0
        self.spans_seen = 0
        #: exact, exclusive per-skeleton aggregates, by name
        self.skeletons: dict[str, SkeletonAgg] = {}
        #: optional heartbeat, ticked on span closes
        self.heartbeat: "ProgressReporter | None" = None
        #: the machine's critical-path fold, counted by :meth:`accounting`
        self.path = None
        #: the closed spans handed over that are still alive somewhere;
        #: empty unless something retains them (:meth:`assert_bounded`)
        self._live_spans = weakref.WeakValueDictionary()

    # ----------------------------------------------------------- messages
    def on_message(self, time: float, src: int, dst: int, nbytes: int,
                   hops: int, tag: str, depart: float) -> None:
        self.on_message_wave([time], [src], [dst], [nbytes], [hops], tag, [depart])

    def on_message_wave(
        self, times, srcs, dsts, nbytes, hops, tag: str, departs
    ) -> None:
        k = len(srcs)
        if k == 0:
            return
        self.messages_seen += k
        if self.spill is not None:  # receivers' tracks, departure to arrival
            t = np.asarray(times, dtype=np.float64)
            ts = t if departs is None else np.where(np.asarray(departs) >= 0, departs, t)
            self.spill.write_lines(encode_complete(
                dsts, ts, np.maximum(t, ts), [(tag or "message", "message")],
                args=(("src", srcs), ("nbytes", nbytes), ("hops", hops)), jsonl=True))

    # -------------------------------------------------------------- spans
    def on_span(self, span: Span) -> None:
        fold_skeleton(self.skeletons, span)
        self._live_spans[id(span)] = span
        self.spans_seen += 1
        if self.spill is not None:
            self.spill.write_event(span_event(span))
        if self.heartbeat is not None:
            self.heartbeat.maybe_report()

    # ---------------------------------------------------------- accounting
    def accounting(self) -> dict[str, int]:
        """Exact footprint counters of everything this observer retains.

        ``per_rank_cells`` counts array elements across the per-rank
        aggregates and the critical-path fold (O(p) per skeleton name
        and blocking edge kept); the ``*_retained`` counters must stay zero
        while the ``*_seen`` counters grow with the run — that
        difference is the memory the streaming layer saved.
        """
        return {
            "p": self.p,
            "per_rank_cells": sum(
                arr.size for arr in self.timeline.seconds.values()
            ) + (self.path.cells() if self.path is not None else 0),
            "messages_seen": self.messages_seen,
            "intervals_seen": self.timeline.intervals_seen,
            "spans_seen": self.spans_seen,
            "spans_retained": len(self._live_spans),
            "skeleton_keys": len(self.skeletons),
            "spill_events": self.spill.events_written if self.spill else 0,
        }

    def assert_bounded(self) -> dict[str, int]:
        """Raise unless retained state is within the O(p) bound."""
        acc = self.accounting()
        problems: list[str] = []
        if acc["spans_retained"]:
            problems.append(
                f"{acc['spans_retained']} closed span(s) still alive "
                f"(of {acc['spans_seen']} seen)"
            )
        # per rank: a few activity kinds, and the fold's value, busy
        # bookkeeping, 4 components + busy per skeleton name and 3 cells
        # per kept transfer; anything beyond means a retention leak
        fold = self.path
        bound = self.p * (8 + (4 + 5 * len(fold.skeletons) + 3 * TOPK
                               if fold is not None else 0))
        if acc["per_rank_cells"] > bound:
            problems.append(
                f"per-rank state grew past O(p x skeleton names): "
                f"{acc['per_rank_cells']} cells for p={self.p} "
                f"(bound {bound})"
            )
        if problems:
            raise SkilError(
                "stream observability exceeded its memory bound: "
                + "; ".join(problems)
            )
        return acc

    def clear(self) -> None:
        self.timeline.clear()
        self.messages_seen = 0
        self.spans_seen = 0
        self.skeletons.clear()

    def close(self) -> None:
        if self.spill is not None:
            self.spill.close()


# ---------------------------------------------------------------- progress
class ProgressReporter:
    """Wall-clock heartbeat for long runs.

    Emits at most one line every ``interval`` wall-seconds (unless
    forced): elapsed wall time, simulated time, message/skeleton
    counters and a straggler flag from the per-rank busy aggregates.
    Also usable as a plain step logger via :meth:`note` (``eval all
    --progress``).
    """

    def __init__(
        self,
        machine: "Machine | None" = None,
        out=None,
        interval: float = 5.0,
        clock=_walltime.monotonic,
    ):
        self.machine = machine
        self.out = out if out is not None else sys.stderr
        self.interval = float(interval)
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
                if skew >= STRAGGLER_SKEW:
                    parts.append(f"straggler=r{worst}(x{skew:.2f})")
                else:
                    parts.append("balanced")
        return " ".join(parts)

    @staticmethod
    def _fmt_wall(seconds: float) -> str:
        s = max(float(seconds), 0.0)
        if s < 60.0:
            return f"{s:.1f}s"
        mnt, sec = divmod(int(s), 60)
        hrs, mnt = divmod(mnt, 60)
        return f"{hrs}h{mnt:02d}m" if hrs else f"{mnt}m{sec:02d}s"
