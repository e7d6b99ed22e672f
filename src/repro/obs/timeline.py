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
wave arrives as column arrays and its :class:`Interval` objects are
built inside the call, so :attr:`Timeline.intervals` is a plain list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle

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
    """Append-only list of per-rank intervals."""

    def __init__(self) -> None:
        self.intervals: list[Interval] = []
        #: :meth:`by_rank`'s grouping and how many intervals it covers
        self._by_rank: dict[int, list[Interval]] = {}
        self._grouped = 0

    def add(
        self, rank: int, kind: str, start: float, end: float, detail: str = ""
    ) -> None:
        """Record one interval; zero/negative-length intervals are dropped."""
        if end > start:
            self.intervals.append(Interval(rank, kind, start, end, detail))

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
        one reads its intervals in that order.
        """
        ranks, starts, ends = (
            np.array([lane[col] for lane in lanes]).T.ravel().tolist()
            for col in (0, 2, 3)
        )
        kinds = cycle([lane[1] for lane in lanes])
        self.intervals.extend(
            Interval(r, k, s, e, detail)
            for r, k, s, e in zip(ranks, kinds, starts, ends)
            if e > s
        )

    def by_rank(self) -> dict[int, list[Interval]]:
        """The intervals grouped by rank, each group in emission order.
        Regrouped when the timeline has changed since; do not mutate."""
        if self._grouped != len(self.intervals):
            groups: dict[int, list[Interval]] = {}
            for iv in self.intervals:
                groups.setdefault(iv.rank, []).append(iv)
            self._by_rank, self._grouped = groups, len(self.intervals)
        return self._by_rank

    def for_rank(self, rank: int) -> list[Interval]:
        return list(self.by_rank().get(rank, ()))

    def ranks(self) -> list[int]:
        return sorted(self.by_rank())

    # ------------------------------------------------------------ occupancy
    def span(self, rank: int) -> tuple[float, float] | None:
        """Earliest start and latest end of the rank's intervals (any
        kind), or ``None`` when the rank never appears."""
        ivs = self.for_rank(rank)
        if not ivs:
            return None
        return min(iv.start for iv in ivs), max(iv.end for iv in ivs)

    def busy_segments(self, rank: int) -> list[tuple[float, float]]:
        """Union of the rank's non-idle intervals as disjoint, sorted
        ``(start, end)`` segments.  Overlapping intervals (a rank that
        both sends and receives in one synchronous shift) are merged, so
        the segment lengths never double-count a simulated second."""
        segs = sorted(
            (iv.start, iv.end) for iv in self.for_rank(rank) if iv.kind != IDLE
        )
        merged: list[tuple[float, float]] = []
        for a, b in segs:
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
        self.intervals.clear()
        self._by_rank, self._grouped = {}, 0

    def __len__(self) -> int:
        return len(self.intervals)
