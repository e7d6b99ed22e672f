"""Streaming, memory-bounded observability (``trace_mode="stream"``).

The record-mode trace layers (:mod:`repro.machine.trace`,
:mod:`repro.obs.timeline`, :mod:`repro.obs.span`) keep every message,
per-rank interval and span — O(messages) memory, which makes a traced
run at p=16384 infeasible.  Both modes already build the O(p)
aggregates a report reads: the critical-path fold
(:class:`repro.obs.analysis.PathFold`: per-rank busy seconds,
components, blocking edges) and the span tracer's exact, exclusive
per-skeleton table (:class:`repro.obs.span.SkeletonAgg`).  Stream mode
keeps those and lets every message, interval and closed span go; this
module holds its one sink, :class:`StreamObserver`, which drains the
Network's wave log (:class:`repro.machine.trace.WaveLog`) a batch at a
time for

* counters of what streamed past (messages, spans) and of what is
  still held — :meth:`StreamObserver.accounting`;
* an optional rotating JSONL spill writer (:class:`JsonlSpillWriter`)
  that streams full detail to disk using the Chrome trace-event schema
  of :mod:`repro.obs.export`, one event per line — O(1) memory,
  unbounded disk only on request;
* the heartbeat (:class:`ProgressReporter`), ticked as spans close.

**Bit-identity contract.**  The fold and the per-skeleton table are the
same objects in both modes, fed the same waves and spans in the same
order, so their state is bit-identical to a recording's.  The spill
writes a batch's lines in emission order, so where the log drains
changes no byte.  The ``trace`` pillar of :mod:`repro.check` holds this
line: it compares a streamed run's fold, per-skeleton table and
counters bitwise against a recorded run of the same workload and
against a scalar fold of the recording
(``repro.check.tracecheck.fold_recorded``).
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
from repro.machine.trace import LOG_BUDGET, batch_intervals, batch_messages, drain
from repro.obs.analysis import TOPK
from repro.obs.export import encode_complete, span_event
from repro.obs.span import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "StreamConfig",
    "StreamObserver",
    "JsonlSpillWriter",
    "ProgressReporter",
]

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


# ---------------------------------------------------------------- observer
class StreamObserver:
    """The stream-mode sink: counters and the spill, nothing retained
    per event.

    The Network's wave log hands it every charged wave a batch at a
    time (:meth:`drain`): the messages, counted, and — with a spill —
    the intervals, written out; the span tracer hands over every
    *closed* span (``on_span``) and keeps none.  Memory is O(p) by
    construction; :meth:`accounting` exposes the exact footprint and
    :meth:`assert_bounded` turns it into a hard invariant.
    """

    def __init__(self, p: int, config: StreamConfig | None = None):
        self.p = int(p)
        path = config.spill_path if config is not None else None
        self.spill = JsonlSpillWriter(path) if path else None
        self._messages = 0
        self.spans_seen = 0
        #: optional heartbeat, ticked on span closes
        self.heartbeat: "ProgressReporter | None" = None
        #: the machine's critical-path fold, counted by :meth:`accounting`
        self.path = None
        #: the closed spans handed over that are still alive somewhere;
        #: empty unless something retains them (:meth:`assert_bounded`)
        self._live_spans = weakref.WeakValueDictionary()
        #: the Network's wave log, drained before every read
        self._log = None

    @property
    def messages_seen(self) -> int:
        drain(self._log)
        return self._messages

    # ----------------------------------------------------------- messages
    def drain(self, entries) -> None:
        """A drained batch of the Network's wave log: messages counted
        and, with a spill, every line written in emission order — per
        entry its messages, its intervals lane by lane (those that end
        after they start), its text — in one write."""
        self._messages += sum(np.size(e[0][6]) for e in entries if e[0] is not None)
        if self.spill is None:
            return
        cols = batch_intervals(entries)
        keep = None if cols is None else cols[2] > cols[1]
        msgs, lines, keys = batch_messages(entries), [], []
        if msgs is not None:  # on the receivers' tracks, departure (when known) to arrival
            tags, counts, (srcs, dsts, nbytes, hops, departs, times) = msgs
            heads: dict[str, int] = {}
            which = np.repeat([heads.setdefault(t, len(heads)) for t in tags], counts)
            ts = np.where(departs >= 0, departs, times)
            lines = encode_complete(
                dsts, ts, np.maximum(times, ts), [(t or "message", "message") for t in heads],
                which.tolist(), args=(("src", srcs), ("nbytes", nbytes), ("hops", hops)),
                jsonl=True).splitlines(True)
            keys.append(np.repeat([2 * i for i, e in enumerate(entries) if e[0] is not None],
                                  counts))
        if cols is not None:  # an entry's intervals after its messages
            try:
                lines += _interval_text(cols, keep).splitlines(True)
            except SkilError:  # a bad entry drains alone: its messages go first
                self.spill.write_lines("".join(lines))
                raise
            keys.append(np.repeat([2 * i + 1 for i, *_ in cols[3]],
                                  [n or 1 for *_, n in cols[3]])[keep])
        texts = [(2 * i, e[3]) for i, e in enumerate(entries) if e[3] is not None]
        lines += [text for _, text in texts]
        keys.append([key for key, _ in texts])
        order = np.argsort(np.concatenate(keys), kind="stable").tolist()
        self.spill.write_lines("".join([lines[i] for i in order]))

    # -------------------------------------------------------------- spans
    def on_span(self, span: Span) -> None:
        self._live_spans[id(span)] = span
        self.spans_seen += 1
        if self.spill is not None:
            line = json.dumps(span_event(span), separators=(",", ":")) + "\n"
            if self._log is not None:  # after the waves the log holds
                self._log.append((None, None, None, line))
            else:
                self.spill.write_lines(line)
        if self.heartbeat is not None:
            self.heartbeat.maybe_report()

    # ---------------------------------------------------------- accounting
    def accounting(self) -> dict[str, int]:
        """Exact footprint counters of everything stream mode retains.

        ``per_rank_cells`` counts the array elements of the
        critical-path fold (O(p) per skeleton name); the
        ``*_retained`` counters must stay zero while the ``*_seen``
        counters grow with the run — that difference is the memory the
        streaming layer saved.  ``log_pending`` counts the elements the
        wave log held, before this read drained it.
        """
        pending = self._log.size if self._log is not None else 0
        drain(self._log)
        return {
            "p": self.p,
            "per_rank_cells": self.path.cells() if self.path is not None else 0,
            "messages_seen": self.messages_seen,
            "spans_seen": self.spans_seen,
            "spans_retained": len(self._live_spans),
            "spill_events": self.spill.events_written if self.spill else 0,
            "log_pending": pending,
        }

    def assert_bounded(self) -> dict[str, int]:
        """Raise unless retained state is within the O(p) bound."""
        acc = self.accounting()
        problems: list[str] = []
        if acc["log_pending"] > LOG_BUDGET:
            problems.append(f"the wave log held {acc['log_pending']} elements "
                            f"(budget {LOG_BUDGET})")
        if acc["spans_retained"]:
            problems.append(
                f"{acc['spans_retained']} closed span(s) still alive "
                f"(of {acc['spans_seen']} seen)"
            )
        # per rank: the fold's value, busy bookkeeping, 4 components +
        # busy per skeleton name and 3 cells per kept transfer; anything
        # beyond means a retention leak
        fold = self.path
        bound = self.p * (4 + 5 * len(fold.skeletons) + 3 * TOPK) if fold is not None else 0
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
        self._messages = 0
        self.spans_seen = 0

    def close(self) -> None:
        if self.spill is not None:
            drain(self._log)
            self.spill.close()


def _interval_text(cols, keep) -> str:
    """Spill lines of the kept intervals of
    :func:`~repro.machine.trace.batch_intervals` columns."""
    ranks, starts, ends, lanes = cols
    heads: dict[tuple[str, str], int] = {}
    labels = [heads.setdefault((detail or kind, kind), len(heads))
              for _, kind, detail, _ in lanes]
    which = np.repeat(labels, [n or 1 for *_, n in lanes])[keep]
    return encode_complete(ranks[keep], starts[keep], ends[keep], list(heads),
                           which.tolist(), jsonl=True)


# ---------------------------------------------------------------- progress
class ProgressReporter:
    """Wall-clock heartbeat for long runs.

    Emits at most one line every ``interval`` wall-seconds (unless
    forced): elapsed wall time, simulated time, message/skeleton
    counters and, at ``trace_level=2``, a straggler flag from the
    critical-path fold's per-rank busy seconds (the ``RankLoad``
    definition of :func:`repro.obs.analysis.analyze_machine`).
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
        fold = m.network.path
        if fold is not None:
            busy = fold.busy_seconds().sum(axis=1)
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
