"""Per-rank activity timelines.

Both time layers fill the same structure: the analytic clock arithmetic
(:mod:`repro.machine.network`) records coarse intervals around each
collective operation, the discrete-event engine
(:mod:`repro.machine.engine`) records them at message granularity.  The
Chrome trace exporter turns each rank's intervals into one track.

Emission has one interface, shared with
:class:`repro.obs.stream.StreamTimeline`: :meth:`Timeline.add` for one
interval, :meth:`Timeline.add_many` for a wave of one kind and
:meth:`Timeline.add_lanes` for a message wave (send / idle / recv).  A
wave is kept as its column block (:meth:`Timeline.columns`, what the
exporter and the occupancy queries read); :attr:`Timeline.intervals`
builds the :class:`Interval` objects only when read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Interval", "Timeline", "COMPUTE", "SEND", "RECV", "IDLE"]

COMPUTE = "compute"
SEND = "send"
RECV = "recv"
IDLE = "idle"


@dataclass(frozen=True, slots=True)
class Interval:
    """One contiguous activity of one rank, in simulated seconds."""

    rank: int
    kind: str  # compute | send | recv | idle
    start: float
    end: float
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Append-only per-rank intervals, kept as the waves that emitted them."""

    def __init__(self) -> None:
        self._labels: dict[tuple[str, str], int] = {}
        self._intervals: list[Interval] = []
        self.clear()

    def add(
        self, rank: int, kind: str, start: float, end: float, detail: str = ""
    ) -> None:
        """Record one interval; zero/negative-length intervals are dropped."""
        if end > start:
            label = self._labels.setdefault((kind, detail), len(self._labels))
            self._pending.append((rank, start, end, label))

    def add_many(self, ranks, kind: str, starts, ends, detail: str = "") -> None:
        """One wave of same-kind intervals: :meth:`add` per entry, in
        index order."""
        self.add_lanes(((ranks, kind, starts, ends),), detail)

    def add_lanes(self, lanes, detail: str = "") -> None:
        """One message wave: *lanes* are ``(ranks, kind, starts, ends)``
        column tuples of equal length, one entry per message.

        Equivalent to :meth:`add` per message, in order, and within a
        message per lane — ``send, [idle], recv``, never grouped by
        kind: a rank that receives in one message and sends in a later
        one reads its intervals in that order.  The columns are copied
        (the caller may hand over its live clocks) and kept as one block.
        """
        if not np.ndim(lanes[0][0]):  # one message: scalar adds
            for lane in lanes:
                self.add(*lane, detail)
            return
        cols = [np.array([lane[c] for lane in lanes]).T.ravel() for c in (0, 2, 3)]
        labels = [self._labels.setdefault((lane[1], detail), len(self._labels))
                  for lane in lanes]
        self._waves.append((*cols, np.resize(labels, cols[0].size)))

    @property
    def _waves(self) -> list[tuple[np.ndarray, ...]]:
        """The column blocks, with the pending scalar adds made one first."""
        if self._pending:
            self._blocks.append(tuple(map(np.array, zip(*self._pending))))
            self._pending.clear()
        return self._blocks

    def columns(self) -> tuple:
        """Every kept interval in emission order, as columns: ranks,
        starts, ends, and the index of each one's ``(kind, detail)`` in
        the list that comes last."""
        ranks, starts, ends, labels = (np.concatenate(c) for c in zip(*self._waves))
        keep = ends > starts
        return ranks[keep], starts[keep], ends[keep], labels[keep], list(self._labels)

    @property
    def intervals(self) -> list[Interval]:
        """Every kept interval in emission order, one :class:`Interval`
        each — built on first read, then extended in place; do not
        mutate."""
        labels = list(self._labels)
        for block in self._waves[self._built:]:
            self._intervals.extend(
                Interval(r, labels[w][0], s, e, labels[w][1])
                for r, s, e, w in zip(*(c.tolist() for c in block)) if e > s
            )
        self._built = len(self._blocks)
        return self._intervals

    def by_rank(self) -> dict[int, list[Interval]]:
        """The intervals grouped by rank, each group in emission order.
        Regrouped when the timeline has changed since; do not mutate."""
        ivs = self.intervals
        if self._grouped != len(ivs):
            groups: dict[int, list[Interval]] = {}
            for iv in ivs:
                groups.setdefault(iv.rank, []).append(iv)
            self._by_rank, self._grouped = groups, len(ivs)
        return self._by_rank

    def for_rank(self, rank: int) -> list[Interval]:
        return list(self.by_rank().get(rank, ()))

    def ranks(self) -> list[int]:
        return sorted(self._occupancy())

    # ------------------------------------------------------------ occupancy
    def _occupancy(self) -> dict[int, tuple]:
        """Per rank with any interval: its earliest start and latest end
        (any kind), and its non-idle intervals as sorted ``(start, end)``
        pairs — for every rank at once from the columns, and kept until
        the timeline changes."""
        if self._occ_blocks != len(self._waves):
            ranks, starts, ends, which, labels = self.columns()
            order = np.lexsort((ends, starts, ranks))
            ranks, starts, ends = ranks[order], starts[order], ends[order]
            busy = np.array([kind != IDLE for kind, _ in labels] + [True])[which[order]]
            first = np.flatnonzero(np.diff(ranks, prepend=-1))
            cut = [*np.searchsorted(ranks[busy], ranks[first]).tolist(), len(busy)]
            pairs = list(zip(starts[busy].tolist(), ends[busy].tolist()))
            spans = ((np.minimum.reduceat(starts, first).tolist(),
                      np.maximum.reduceat(ends, first).tolist())
                     if first.size else ([], []))
            self._occ = {r: (lo, hi, pairs[cut[i]:cut[i + 1]]) for i, (r, lo, hi)
                         in enumerate(zip(ranks[first].tolist(), *spans))}
            self._occ_blocks = len(self._blocks)
        return self._occ

    def span(self, rank: int) -> tuple[float, float] | None:
        """Earliest start and latest end of the rank's intervals (any
        kind), or ``None`` when the rank never appears."""
        occ = self._occupancy().get(rank)
        return None if occ is None else occ[:2]

    def busy_segments(self, rank: int) -> list[tuple[float, float]]:
        """Union of the rank's non-idle intervals as disjoint, sorted
        ``(start, end)`` segments.  Overlapping intervals (a rank that
        both sends and receives in one synchronous shift) are merged, so
        the segment lengths never double-count a simulated second."""
        occ = self._occupancy().get(rank)
        merged: list[tuple[float, float]] = []
        for a, b in occ[2] if occ is not None else ():
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        return merged

    def coverage(self, rank: int) -> float:
        """Total non-idle time of the rank, overlaps merged."""
        return sum(b - a for a, b in self.busy_segments(rank))

    def idle_gaps(self, rank: int) -> list[tuple[float, float]]:
        """Maximal idle segments within the rank's own span.

        A gap is any part of ``[span start, span end]`` not covered by a
        non-idle interval — explicit idle intervals and untracked holes
        alike.  By construction ``sum(gap lengths) + coverage(rank)``
        equals the span length; the empty timeline has no gaps.
        """
        sp = self.span(rank)
        if sp is None:
            return []
        lo, hi = sp
        gaps: list[tuple[float, float]] = []
        cur = lo
        for a, b in self.busy_segments(rank):
            if a > cur:
                gaps.append((cur, a))
            cur = max(cur, b)
        if hi > cur:
            gaps.append((cur, hi))
        return gaps

    def busy_fraction(self, rank: int, horizon: float | None = None) -> float:
        """Fraction of *horizon* the rank spent non-idle (overlaps
        merged).  *horizon* defaults to the rank's own span; pass the
        run's makespan to compare ranks on a common denominator.  Ranks
        with no activity (or a zero horizon) report 0.0.
        """
        if horizon is None:
            sp = self.span(rank)
            if sp is None:
                return 0.0
            horizon = sp[1] - sp[0]
        if horizon <= 0.0:
            return 0.0
        return self.coverage(rank) / horizon

    def clear(self) -> None:
        none, times = np.empty(0, dtype=np.int64), np.empty(0)
        #: per wave, message-major columns: ranks, starts, ends, ``_labels``
        #: index (an empty one so columns() has one); scalar adds queued since
        self._blocks = [(none, times, times, none)]
        self._pending: list[tuple] = []
        self._intervals.clear()
        self._built = self._occ_blocks = self._grouped = 0
        self._occ, self._by_rank = {}, {}

    def __len__(self) -> int:
        return len(self.intervals)
