"""Critical-path analysis over the happens-before order of a traced run.

A traced run (``Machine(p, trace_level=2)``) leaves behind everything
the happens-before order needs: per-rank **program order** from the
:class:`~repro.obs.timeline.Timeline` intervals, and **message edges**
from the send→recv matching the
:class:`~repro.machine.trace.MessageRecord` stream carries (each
record names the wire window ``[depart, time]`` between the sender's
and the receiver's activities).  This module walks that order backward
and answers the question the aggregate counters cannot: *which* chain
of activities determined the makespan, and what is each component's
share of it.  (The DAG itself is only ever materialised to be
validated: ``repro.check.dagcheck`` builds it, for the ``dag`` pillar.)

Three layers:

* :func:`critical_path` — walks backward from the makespan through the
  binding constraints (program order, message arrivals, rendezvous
  partners) and returns a list of :class:`PathStep` segments that
  **tile ``[0, makespan]`` exactly** (each step starts precisely where
  its predecessor ends, the first at 0.0, the last at the makespan).
  Every step splits its duration into four components:

  - ``compute`` — local computation,
  - ``latency`` — per-message software setup (``t_setup``) and per-hop
    routing latency (``hops * t_hop``),
  - ``bandwidth`` — the byte-proportional part of the wire time,
  - ``idle`` — waiting (blocked receives, rendezvous waits, untracked
    gaps).

  Because the steps tile the makespan, the component totals sum to it
  — the attribution identity the invariant checks and the tests pin
  down.

* :func:`analyze_machine` / :class:`RunAnalysis` — the critical
  path, per-skeleton exclusive attribution (innermost
  skeleton span wins, like ``trace_report``), per-rank load/straggler
  metrics, and the top-k *blocking edges* (the message transfers on
  the critical path, largest first).

* :func:`whatif_scenarios` / :func:`run_whatif` — analytic **what-if
  replays**: the same application re-run with perturbed cost
  parameters (latency→0 via ``t_setup = t_hop = 0``, bandwidth→∞ via
  ``t_byte = 0``, perfectly balanced compute via
  :attr:`~repro.machine.network.Network.balance_compute`).  For a
  fixed dependence structure, removing a component everywhere can
  shorten the makespan by **at most** that component's share of the
  old critical path (the old path is still a path, and its new length
  is the old length minus exactly what was removed along it), so each
  replay's improvement is cross-checked against the path attribution:
  ``delta <= bound + slack``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import SkilError
from repro.machine.costmodel import CostModel
from repro.machine.trace import MessageRecord
from repro.obs.timeline import IDLE, Interval, Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine
    from repro.obs.span import SpanTracer

__all__ = [
    "AnalysisError",
    "COMPONENTS",
    "PathStep",
    "CriticalPath",
    "critical_path",
    "RankLoad",
    "rank_loads",
    "SkeletonImbalance",
    "skeleton_imbalance",
    "RunAnalysis",
    "analyze_machine",
    "StreamAnalysis",
    "analyze_stream",
    "format_stream_analysis",
    "WhatIf",
    "whatif_scenarios",
    "run_whatif",
    "format_analysis",
]

#: attribution components, in reporting order
COMPONENTS = ("compute", "latency", "bandwidth", "idle")

#: label used when a critical-path step falls outside every skeleton span
OUTSIDE_SPANS = "(outside skeletons)"


class AnalysisError(SkilError):
    """The trace cannot support the requested analysis."""


def _eps_for(makespan: float) -> float:
    # event times come out of identical float expressions on both the
    # record and the timeline side, so the tolerance only has to absorb
    # non-identical associations (e.g. ``arrival - wire`` vs ``depart``)
    return 1e-12 + 1e-9 * abs(makespan)


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PathStep:
    """One time segment of the critical path.

    Steps are produced in forward time order and tile ``[0, makespan]``
    exactly: ``steps[i].end == steps[i+1].start`` bit-for-bit.  The
    four component fields partition the duration.
    """

    rank: int
    kind: str  # compute | send | recv | transfer | idle | gap | startup
    start: float
    end: float
    detail: str = ""
    skeleton: str = OUTSIDE_SPANS
    compute: float = 0.0
    latency: float = 0.0
    bandwidth: float = 0.0
    idle: float = 0.0
    record: MessageRecord | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def components(self) -> dict[str, float]:
        return {
            "compute": self.compute,
            "latency": self.latency,
            "bandwidth": self.bandwidth,
            "idle": self.idle,
        }


@dataclass
class CriticalPath:
    """The makespan-determining chain, as tiling segments."""

    steps: list[PathStep]
    makespan: float

    def component_totals(self) -> dict[str, float]:
        return {
            c: math.fsum(getattr(s, c) for s in self.steps) for c in COMPONENTS
        }

    def by_skeleton(self) -> dict[str, dict[str, float]]:
        """Exclusive per-skeleton attribution of the critical path."""
        out: dict[str, dict[str, float]] = {}
        for s in self.steps:
            row = out.setdefault(s.skeleton, dict.fromkeys(COMPONENTS, 0.0))
            for c in COMPONENTS:
                row[c] += getattr(s, c)
        return out

    def blocking_edges(self, k: int = 10) -> list[PathStep]:
        """The top-*k* cross-rank message transfers on the critical
        path — the segments where the makespan was waiting on a wire.
        (send/recv steps also carry their record for the component
        split, but they are program order, not blocking edges.)"""
        edges = [s for s in self.steps
                 if s.kind == "transfer" and s.record is not None]
        edges.sort(key=lambda s: -s.duration)
        return edges[:k]

    def validate(self) -> list[str]:
        """Tiling and attribution identities (empty list = consistent)."""
        problems: list[str] = []
        if not self.steps:
            if self.makespan > 0.0:
                problems.append("empty path for a positive makespan")
            return problems
        if self.steps[0].start != 0.0:
            problems.append(f"path starts at {self.steps[0].start}, not 0.0")
        if self.steps[-1].end != self.makespan:
            problems.append(
                f"path ends at {self.steps[-1].end}, not the makespan "
                f"{self.makespan}"
            )
        for a, b in zip(self.steps, self.steps[1:]):
            if a.end != b.start:
                problems.append(
                    f"tiling broken at {a.end!r} -> {b.start!r} "
                    f"({a.kind} on rank {a.rank} -> {b.kind} on {b.rank})"
                )
        eps = _eps_for(self.makespan)
        for s in self.steps:
            parts = math.fsum(s.components().values())
            if abs(parts - s.duration) > eps:
                problems.append(
                    f"step {s.kind}@{s.start}: components sum to {parts}, "
                    f"duration is {s.duration}"
                )
        total = math.fsum(self.component_totals().values())
        if abs(total - self.makespan) > eps:
            problems.append(
                f"components sum to {total}, makespan is {self.makespan}"
            )
        return problems


class _RankIndex:
    """Per-rank interval lookups for the backward walk."""

    def __init__(self, timeline: Timeline):
        self.by_rank: dict[int, list[Interval]] = {
            r: sorted(ivs, key=lambda iv: (iv.end, iv.start))
            for r, ivs in timeline.by_rank().items()
        }
        self.ends = {r: [iv.end for iv in ivs] for r, ivs in self.by_rank.items()}

    def ending_at(self, rank: int, t: float, eps: float) -> list[Interval]:
        ivs = self.by_rank.get(rank, [])
        ends = self.ends.get(rank, [])
        lo = bisect.bisect_left(ends, t - eps)
        hi = bisect.bisect_right(ends, t + eps)
        return [iv for iv in ivs[lo:hi] if iv.start < t - eps]

    def containing(self, rank: int, t: float, eps: float) -> Interval | None:
        """Latest-starting interval strictly containing *t*."""
        best = None
        for iv in self.by_rank.get(rank, []):
            if iv.start < t - eps and iv.end > t + eps:
                if best is None or iv.start > best.start:
                    best = iv
        return best

    def latest_end_before(self, rank: int, t: float) -> float | None:
        ends = self.ends.get(rank, [])
        i = bisect.bisect_left(ends, t)
        return ends[i - 1] if i else None


class _RecordIndex:
    """Message arrivals per receiver and departures per sender, for the
    backward walk."""

    def __init__(self, records: Sequence[MessageRecord]):
        self.by_dst: dict[int, list[MessageRecord]] = {}
        self.by_src: dict[int, list[MessageRecord]] = {}
        for rec in records:
            if rec.depart < 0.0:
                continue
            self.by_src.setdefault(rec.src, []).append(rec)
            if rec.src != rec.dst:
                self.by_dst.setdefault(rec.dst, []).append(rec)
        for recs in self.by_dst.values():
            recs.sort(key=lambda r: r.time)
        self.times = {
            d: [r.time for r in recs] for d, recs in self.by_dst.items()
        }
        self._used: set[int] = set()

    def arrival_at(self, rank: int, t: float, eps: float) -> MessageRecord | None:
        """The unconsumed record arriving at *t*; ties prefer the
        latest-departing transfer (the tightest constraint), then the
        lowest sender rank, deterministically."""
        recs = self.by_dst.get(rank, [])
        times = self.times.get(rank, [])
        lo = bisect.bisect_left(times, t - eps)
        hi = bisect.bisect_right(times, t + eps)
        best = None
        for rec in recs[lo:hi]:
            if id(rec) in self._used:
                continue
            if best is None or (rec.depart, -rec.src) > (best.depart, -best.src):
                best = rec
        if best is not None:
            self._used.add(id(best))
        return best

    def sent_ending_at(
        self, rank: int, t: float, eps: float
    ) -> MessageRecord | None:
        """A record sent by *rank* whose arrival or departure is *t*
        (used to split a send interval into setup/wire parts)."""
        best = None
        for rec in self.by_src.get(rank, ()):
            if abs(rec.time - t) <= eps or abs(rec.depart - t) <= eps:
                if best is None or rec.depart > best.depart:
                    best = rec
        return best


def _split_wire(
    rec: MessageRecord, a: float, b: float, cost: CostModel
) -> tuple[float, float]:
    """Split the wire sub-segment ``[a, b]`` into (latency, bandwidth).

    The per-hop routing latency (``hops * t_hop``) is latency, the rest
    of the actual wire time (byte transfer, and any contention
    serialization) is bandwidth; a partial overlap splits
    proportionally.
    """
    d = b - a
    if d <= 0.0:
        return 0.0, 0.0
    wire = rec.time - rec.depart
    if wire <= 0.0:
        return d, 0.0
    lat_full = min(wire, rec.hops * cost.t_hop) if rec.hops > 0 else 0.0
    frac = lat_full / wire
    return d * frac, d * (1.0 - frac)


def _classified(
    rank: int,
    kind: str,
    a: float,
    b: float,
    cost: CostModel,
    rec: MessageRecord | None = None,
    detail: str = "",
) -> PathStep:
    """Build a PathStep for ``[a, b]`` with its component split."""
    d = b - a
    compute = latency = bandwidth = idle = 0.0
    if kind == "compute":
        compute = d
    elif kind in ("idle", "gap", "startup"):
        idle = d
    elif kind == "transfer":
        assert rec is not None
        latency, bandwidth = _split_wire(rec, a, b, cost)
    elif kind == "send":
        if rec is not None:
            # [a, b] may cover setup/waiting before the wire, part of
            # the wire, and (rendezvous bookkeeping aside) nothing after
            wire_lo = min(max(rec.depart, a), b)
            wire_hi = min(max(rec.time, a), b)
            pre = wire_lo - a
            latency += min(pre, cost.t_setup)
            idle += max(0.0, pre - cost.t_setup)
            lat, bw = _split_wire(rec, wire_lo, wire_hi, cost)
            latency += lat
            bandwidth += bw
            idle += max(0.0, b - wire_hi)
        else:
            latency = min(d, cost.t_setup)
            bandwidth = d - latency
    elif kind == "recv":
        if rec is not None:
            wire_lo = min(max(rec.depart, a), b)
            wire_hi = min(max(rec.time, a), b)
            idle += wire_lo - a
            lat, bw = _split_wire(rec, wire_lo, wire_hi, cost)
            latency += lat
            bandwidth += bw
            idle += max(0.0, b - wire_hi)
        else:
            idle = d
    else:
        idle = d
    # fold the split's rounding residual into the largest part so the
    # four components partition the duration as tightly as floats allow
    residual = d - math.fsum((compute, latency, bandwidth, idle))
    if residual != 0.0:
        parts = {"compute": compute, "latency": latency,
                 "bandwidth": bandwidth, "idle": idle}
        big = max(parts, key=lambda k: parts[k])
        parts[big] += residual
        compute, latency = parts["compute"], parts["latency"]
        bandwidth, idle = parts["bandwidth"], parts["idle"]
    return PathStep(
        rank=rank,
        kind=kind,
        start=a,
        end=b,
        detail=detail,
        compute=compute,
        latency=latency,
        bandwidth=bandwidth,
        idle=idle,
        record=rec if kind in ("transfer", "send", "recv") else None,
    )


def critical_path(
    timeline: Timeline,
    records: Sequence[MessageRecord],
    cost: CostModel,
    makespan: float | None = None,
    tracer: "SpanTracer | None" = None,
) -> CriticalPath:
    """Extract the critical path of a traced run.

    Walks backward from the makespan: at each point the binding
    constraint is either the interval ending there (program order), a
    message arriving there (jump to the sender at its wire departure),
    or — across a gap — the globally latest activity before it.  The
    returned steps tile ``[0, makespan]`` exactly; see the module
    docstring for the component semantics.
    """
    if makespan is None:
        makespan = max((iv.end for iv in timeline.intervals), default=0.0)
    if makespan <= 0.0 or not timeline.intervals:
        return CriticalPath([], max(makespan, 0.0))
    eps = _eps_for(makespan)
    ridx = _RankIndex(timeline)
    recidx = _RecordIndex(records)

    # start on the rank whose activity ends last
    rank = max(
        ridx.by_rank, key=lambda r: (ridx.ends[r][-1], -r)
    )
    t = makespan
    rev: list[PathStep] = []
    stalls = 0
    limit = 4 * (len(timeline.intervals) + len(records)) + 64

    def emit(step: PathStep) -> None:
        if step.end - step.start > 0.0:
            rev.append(step)

    while t > 0.0:
        if len(rev) + stalls > limit:
            raise AnalysisError(
                f"critical-path walk did not converge after {limit} steps "
                f"(stuck near t={t} on rank {rank})"
            )
        ending = ridx.ending_at(rank, t, eps)
        wait_like = [iv for iv in ending if iv.kind in ("recv", IDLE)]
        rec = recidx.arrival_at(rank, t, eps) if (wait_like or not ending) else None
        if rec is not None and rec.depart < t - eps:
            # the binding constraint is a message: cross the wire to the
            # sender; the receiver's pre-wire waiting is slack, not path
            detail = wait_like[0].detail if wait_like else rec.tag
            emit(_classified(rank, "transfer", rec.depart, t, cost, rec, detail))
            rank, t = rec.src, rec.depart
            stalls = 0
            continue
        if ending:
            # program order: prefer the longest-reaching interval
            v = min(ending, key=lambda iv: (iv.start, _KIND_ORDER.get(iv.kind, 9)))
            srec = None
            if v.kind == "send":
                srec = recidx.sent_ending_at(rank, t, eps)
                if (
                    srec is not None
                    and srec.depart > v.start + cost.t_setup + eps
                    and abs(srec.time - t) <= eps
                ):
                    # rendezvous where the receiver was the late party:
                    # the path crosses to the receiver's program order
                    emit(
                        _classified(
                            rank, "transfer", srec.depart, t, cost, srec, v.detail
                        )
                    )
                    rank, t = srec.dst, srec.depart
                    stalls = 0
                    continue
            elif v.kind == "recv":
                srec = recidx.arrival_at(rank, t, eps)
            emit(_classified(rank, v.kind, v.start, t, cost, srec, v.detail))
            t = v.start
            stalls = 0
            continue
        spanning = ridx.containing(rank, t, eps)
        if spanning is not None:
            srec = None
            if spanning.kind == "send":
                srec = recidx.sent_ending_at(rank, spanning.end, eps)
            emit(
                _classified(
                    rank, spanning.kind, spanning.start, t, cost, srec,
                    spanning.detail,
                )
            )
            t = spanning.start
            stalls = 0
            continue
        # gap: hand over to the globally latest activity at or before t
        best_rank, best_end = None, None
        for r2 in ridx.by_rank:
            e = ridx.latest_end_before(r2, t + eps)
            if e is not None and (best_end is None or e > best_end):
                best_rank, best_end = r2, e
        if best_end is None:
            emit(_classified(rank, "startup", 0.0, t, cost))
            t = 0.0
            break
        if best_end >= t - eps and best_rank != rank and stalls < len(ridx.by_rank):
            # another rank's activity ends exactly here — continue there
            rank = best_rank
            stalls += 1
            continue
        cut = min(best_end, t)
        if cut >= t:  # defensive: force progress
            cut = ridx.latest_end_before(rank, t) or 0.0
            cut = min(cut, t)
        emit(_classified(rank, "gap", cut, t, cost))
        rank, t = (best_rank if best_rank is not None else rank), cut
        stalls = 0

    rev.reverse()
    steps = rev
    # force the exact tiling contract: the walk's arithmetic is exact,
    # so these fixes are no-ops unless a boundary came out of a jump
    if steps:
        fixed: list[PathStep] = []
        prev_end = 0.0
        for i, s in enumerate(steps):
            start = prev_end
            end = s.end if i < len(steps) - 1 else makespan
            if end <= start:
                continue
            if start != s.start or end != s.end:
                s = _reclip(s, start, end, cost)
            fixed.append(s)
            prev_end = end
        steps = fixed
    cp = CriticalPath(steps, makespan)
    if tracer is not None:
        _attribute_spans(cp, tracer)
    return cp


_KIND_ORDER = {"compute": 0, "send": 1, "recv": 2, IDLE: 3}


def _reclip(step: PathStep, start: float, end: float, cost: CostModel) -> PathStep:
    return _classified(
        step.rank, step.kind, start, end, cost, step.record, step.detail
    )


def _attribute_spans(cp: CriticalPath, tracer: "SpanTracer") -> None:
    """Assign each step to the innermost skeleton span covering it."""
    spans = [
        s for s in tracer.closed_spans() if s.category == "skeleton"
    ]
    spans.sort(key=lambda s: (s.begin_time, s.depth))
    begins = [s.begin_time for s in spans]
    eps = _eps_for(cp.makespan)

    def owner(mid: float) -> str:
        i = bisect.bisect_right(begins, mid + eps)
        for s in reversed(spans[:i]):
            if s.end_time + eps >= mid:
                return s.name
        return OUTSIDE_SPANS

    cp.steps = [
        _with_skeleton(s, owner((s.start + s.end) / 2.0)) for s in cp.steps
    ]


def _with_skeleton(step: PathStep, name: str) -> PathStep:
    if step.skeleton == name:
        return step
    return PathStep(
        rank=step.rank,
        kind=step.kind,
        start=step.start,
        end=step.end,
        detail=step.detail,
        skeleton=name,
        compute=step.compute,
        latency=step.latency,
        bandwidth=step.bandwidth,
        idle=step.idle,
        record=step.record,
    )


# ---------------------------------------------------------------------------
# straggler / load-imbalance metrics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RankLoad:
    """One rank's occupancy over the whole run."""

    rank: int
    busy_seconds: float  # union of non-idle intervals
    idle_seconds: float  # makespan - busy
    busy_fraction: float  # busy / makespan


def rank_loads(timeline: Timeline, makespan: float) -> list[RankLoad]:
    """Per-rank busy/idle occupancy against the run's makespan."""
    loads = []
    for r in timeline.ranks():
        busy = timeline.coverage(r)
        frac = busy / makespan if makespan > 0 else 0.0
        loads.append(RankLoad(r, busy, max(0.0, makespan - busy), frac))
    return loads


@dataclass(frozen=True)
class SkeletonImbalance:
    """Load skew across ranks within one skeleton's span windows."""

    name: str
    calls: int
    max_busy: float
    median_busy: float
    mean_busy: float
    straggler_rank: int

    @property
    def skew(self) -> float:
        """max/median busy ratio; 1.0 is perfectly balanced."""
        if self.median_busy > 0.0:
            return self.max_busy / self.median_busy
        return float("inf") if self.max_busy > 0.0 else 1.0


def skeleton_imbalance(
    timeline: Timeline, tracer: "SpanTracer", p: int
) -> list[SkeletonImbalance]:
    """Per-skeleton straggler metrics: clip each rank's non-idle
    intervals to the (merged) time windows of the skeleton's spans and
    compare the per-rank busy totals.  Sorted by skew, worst first."""
    windows: dict[str, list[tuple[float, float]]] = {}
    calls: dict[str, int] = {}
    for s in tracer.closed_spans():
        if s.category != "skeleton":
            continue
        windows.setdefault(s.name, []).append((s.begin_time, s.end_time))
        calls[s.name] = calls.get(s.name, 0) + 1
    out: list[SkeletonImbalance] = []
    segs_by_rank = {
        r: timeline.busy_segments(r) for r in range(p)
    }
    for name, wins in windows.items():
        wins.sort()
        merged: list[tuple[float, float]] = []
        for a, b in wins:
            if merged and a <= merged[-1][1]:
                if b > merged[-1][1]:
                    merged[-1] = (merged[-1][0], b)
            else:
                merged.append((a, b))
        busy = []
        for r in range(p):
            tot = 0.0
            for wa, wb in merged:
                for sa, sb in segs_by_rank[r]:
                    lo, hi = max(sa, wa), min(sb, wb)
                    if hi > lo:
                        tot += hi - lo
            busy.append(tot)
        srt = sorted(busy)
        n = len(srt)
        median = (
            srt[n // 2] if n % 2 else 0.5 * (srt[n // 2 - 1] + srt[n // 2])
        )
        mx = max(busy)
        out.append(
            SkeletonImbalance(
                name=name,
                calls=calls[name],
                max_busy=mx,
                median_busy=median,
                mean_busy=math.fsum(busy) / n if n else 0.0,
                straggler_rank=busy.index(mx),
            )
        )
    out.sort(key=lambda s: -(s.skew if math.isfinite(s.skew) else 1e18))
    return out


# ---------------------------------------------------------------------------
# whole-run analysis handle
# ---------------------------------------------------------------------------
@dataclass
class RunAnalysis:
    """Everything the ``analyze`` report needs from one traced run."""

    makespan: float
    path: CriticalPath
    loads: list[RankLoad]
    imbalance: list[SkeletonImbalance]
    p: int

    def component_totals(self) -> dict[str, float]:
        return self.path.component_totals()

    def snapshot(self) -> dict:
        """JSON-able summary (``eval analyze --json-out``)."""
        return {
            "schema": "repro-analyze/1",
            "p": self.p,
            "makespan_s": self.makespan,
            "components": self.component_totals(),
            "by_skeleton": self.path.by_skeleton(),
            "rank_busy_fraction": {
                str(l.rank): l.busy_fraction for l in self.loads
            },
            "blocking_edges": [
                {
                    "src": s.record.src,
                    "dst": s.record.dst,
                    "bytes": s.record.nbytes,
                    "tag": s.record.tag,
                    "seconds": s.duration,
                    "skeleton": s.skeleton,
                }
                for s in self.path.blocking_edges()
                if s.record is not None
            ],
        }


def analyze_machine(machine: "Machine") -> RunAnalysis:
    """Run the critical-path/straggler analysis on a traced machine.

    Requires ``trace_level=2`` (timeline + message records + spans).
    """
    if machine.timeline is None or machine.tracer is None:
        raise AnalysisError(
            "analysis needs Machine(trace_level=2): timeline and spans "
            "are not being recorded"
        )
    if not machine.stats.keep_records:
        raise AnalysisError(
            "analysis needs individual message records "
            "(Machine(trace_level=2) keeps them)"
        )
    makespan = machine.time
    path = critical_path(
        machine.timeline,
        machine.stats.records,
        machine.cost,
        makespan=makespan,
        tracer=machine.tracer,
    )
    return RunAnalysis(
        makespan=makespan,
        path=path,
        loads=rank_loads(machine.timeline, makespan),
        imbalance=skeleton_imbalance(machine.timeline, machine.tracer, machine.p),
        p=machine.p,
    )


# ---------------------------------------------------------------------------
# aggregated-mode analysis (trace_mode="stream")
# ---------------------------------------------------------------------------
@dataclass
class StreamAnalysis:
    """Load/straggler/imbalance report computed from streamed aggregates.

    The streaming counterpart of :class:`RunAnalysis`: no critical path
    (that needs the full record), but exact per-rank loads and per-tag
    traffic at O(p) memory (the per-skeleton table is
    ``repro.eval.trace_report``'s, the same in both modes).  ``loads``
    uses summed per-kind seconds rather than record-mode's
    overlap-merged coverage, so a rank that sends and receives
    simultaneously can exceed a busy fraction of 1 — documented in
    docs/OBSERVABILITY.md.
    """

    makespan: float
    p: int
    stats: dict
    loads: list[RankLoad]
    straggler_rank: int
    skew: float
    tags: list[tuple[str, int, int]]  # (tag, messages, bytes)
    accounting: dict

    def component_totals(self) -> dict[str, float]:
        """Bounded compute/comm/idle attribution from the exact stats
        counters (the latency/bandwidth split needs per-message records
        and stays record-mode only)."""
        return {
            "compute": self.stats["compute_s"],
            "comm": self.stats["comm_s"],
            "idle": self.stats["idle_s"],
        }


def analyze_stream(machine: "Machine") -> StreamAnalysis:
    """Aggregated-mode analysis of a ``trace_mode="stream"`` run.

    Works entirely from the O(p) streamed aggregates — nothing is
    replayed, so it is safe at any p.  Requires
    ``Machine(trace_level=2, trace_mode="stream")`` (the stream
    timeline feeds the per-rank numbers).
    """
    obs = getattr(machine, "stream_obs", None)
    if obs is None or machine.trace_level < 2:
        raise AnalysisError(
            "stream analysis needs Machine(trace_level=2, "
            'trace_mode="stream") — use analyze_machine for record mode'
        )
    makespan = machine.time
    busy = obs.timeline.busy_seconds_by_rank()
    loads = [
        RankLoad(
            rank=r,
            busy_seconds=float(busy[r]),
            idle_seconds=max(0.0, makespan - float(busy[r])),
            busy_fraction=float(busy[r]) / makespan if makespan > 0 else 0.0,
        )
        for r in range(machine.p)
    ]
    srt = sorted(busy.tolist())
    n = len(srt)
    median = srt[n // 2] if n % 2 else 0.5 * (srt[n // 2 - 1] + srt[n // 2])
    mx = float(busy.max()) if n else 0.0
    if median > 0.0:
        skew = mx / median
    else:
        skew = float("inf") if mx > 0.0 else 1.0
    tags = sorted(
        (
            (t, obs.tag_messages[t], obs.tag_bytes.get(t, 0))
            for t in obs.tag_messages
        ),
        key=lambda row: -row[2],
    )
    return StreamAnalysis(
        makespan=makespan,
        p=machine.p,
        stats=machine.stats.summary(),
        loads=loads,
        straggler_rank=int(busy.argmax()) if n else 0,
        skew=skew,
        tags=tags,
        accounting=obs.accounting(),
    )


def format_stream_analysis(sa: StreamAnalysis, top: int = 8) -> str:
    """Plain-text report of a streamed run's aggregates."""
    lines: list[str] = []
    lines.append(
        f"streamed aggregates: p={sa.p}, makespan {sa.makespan:.6f}s "
        f"({sa.stats['messages']} messages, "
        f"{sa.stats['skeleton_calls']} skeleton calls)"
    )
    totals = sa.component_totals()
    busy_total = math.fsum(totals.values()) or 1.0
    lines.append(f"{'component':<14}{'seconds':>12}{'share':>8}")
    for c, v in totals.items():
        lines.append(f"{c:<14}{v:>12.6f}{v / busy_total:>8.1%}")

    lines.append("")
    lines.append("rank loads (summed busy seconds / makespan):")
    if sa.loads:
        worst = min(sa.loads, key=lambda l: l.busy_fraction)
        best = max(sa.loads, key=lambda l: l.busy_fraction)
        mean = math.fsum(l.busy_fraction for l in sa.loads) / len(sa.loads)
        skew = f"{sa.skew:.2f}" if math.isfinite(sa.skew) else "inf"
        lines.append(
            f"  mean {mean:.1%}   busiest rank {best.rank} "
            f"{best.busy_fraction:.1%}   idlest rank {worst.rank} "
            f"{worst.busy_fraction:.1%}   straggler rank "
            f"{sa.straggler_rank} (skew {skew})"
        )

    lines.append("")
    lines.append("message traffic by tag:")
    lines.append(f"{'tag':<20}{'messages':>10}{'bytes':>14}")
    for t, msgs, nbytes in sa.tags[:top]:
        lines.append(f"{t:<20}{msgs:>10}{nbytes:>14}")

    acc = sa.accounting
    lines.append("")
    lines.append(
        f"memory: {acc['per_rank_cells']} per-rank cells; nothing retained of "
        f"{acc['messages_seen']} messages, {acc['intervals_seen']} intervals, "
        f"{acc['spans_seen']} spans ({acc['spans_retained']} still alive)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# what-if replays
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WhatIf:
    """One counterfactual replay against the attribution bound."""

    scenario: str
    makespan: float
    delta: float  # baseline makespan - scenario makespan
    bound: float | None  # critical-path attribution of the removed part
    within_bound: bool | None  # None when the scenario has no bound


def whatif_scenarios(cost: CostModel) -> list[tuple[str, CostModel, bool]]:
    """(name, perturbed cost model, balance_compute) triples."""
    return [
        ("latency->0", cost.with_(t_setup=0.0, t_hop=0.0), False),
        ("bandwidth->inf", cost.with_(t_byte=0.0), False),
        ("balanced-compute", cost, True),
    ]


def run_whatif(
    baseline: RunAnalysis,
    cost: CostModel,
    runner: Callable[[CostModel, bool], float],
    slack_frac: float = 0.02,
) -> list[WhatIf]:
    """Replay the run under each counterfactual and check the bounds.

    *runner(cost, balance_compute)* must re-run the same application on
    a fresh machine and return its makespan.  The stated bound: a
    replay that removes one component everywhere can gain at most that
    component's critical-path attribution, plus *slack_frac* of the
    makespan for walk approximations (gap handling, proportional wire
    splits).  Balanced compute redistributes rather than removes work,
    so it carries no bound.
    """
    totals = baseline.component_totals()
    bounds = {
        "latency->0": totals["latency"],
        "bandwidth->inf": totals["bandwidth"],
        "balanced-compute": None,
    }
    slack = slack_frac * baseline.makespan + 1e-9
    out: list[WhatIf] = []
    for name, cm, balance in whatif_scenarios(cost):
        ms = runner(cm, balance)
        delta = baseline.makespan - ms
        bound = bounds.get(name)
        out.append(
            WhatIf(
                scenario=name,
                makespan=ms,
                delta=delta,
                bound=bound,
                within_bound=(delta <= bound + slack) if bound is not None else None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def format_analysis(
    analysis: RunAnalysis,
    whatifs: list[WhatIf] | None = None,
    top: int = 8,
) -> str:
    """Plain-text report: attribution, stragglers, blocking edges."""
    lines: list[str] = []
    totals = analysis.component_totals()
    ms = analysis.makespan or 1.0
    lines.append(f"critical path over {len(analysis.path.steps)} step(s), "
                 f"makespan {analysis.makespan:.6f}s")
    lines.append(
        f"{'component':<14}{'seconds':>12}{'share':>8}"
    )
    for c in COMPONENTS:
        lines.append(f"{c:<14}{totals[c]:>12.6f}{totals[c] / ms:>8.1%}")

    lines.append("")
    lines.append("per-skeleton critical-path attribution (exclusive):")
    lines.append(
        f"{'skeleton':<26}{'on-path [s]':>12}{'compute':>9}{'latency':>9}"
        f"{'bandw':>7}{'idle':>7}"
    )
    rows = sorted(
        analysis.path.by_skeleton().items(),
        key=lambda kv: -math.fsum(kv[1].values()),
    )
    for name, comp in rows:
        tot = math.fsum(comp.values()) or 1.0
        lines.append(
            f"{name:<26}{math.fsum(comp.values()):>12.6f}"
            f"{comp['compute'] / tot:>8.0%}{comp['latency'] / tot:>9.0%}"
            f"{comp['bandwidth'] / tot:>7.0%}{comp['idle'] / tot:>7.0%}"
        )

    lines.append("")
    lines.append("rank loads (busy fraction of makespan):")
    loads = analysis.loads
    if loads:
        worst = min(loads, key=lambda l: l.busy_fraction)
        best = max(loads, key=lambda l: l.busy_fraction)
        mean = math.fsum(l.busy_fraction for l in loads) / len(loads)
        lines.append(
            f"  mean {mean:.1%}   busiest rank {best.rank} {best.busy_fraction:.1%}"
            f"   idlest rank {worst.rank} {worst.busy_fraction:.1%}"
        )
    lines.append("")
    lines.append("per-skeleton imbalance (max/median busy across ranks):")
    lines.append(
        f"{'skeleton':<26}{'calls':>6}{'skew':>8}{'straggler':>10}"
        f"{'max busy [s]':>14}"
    )
    for im in analysis.imbalance[:top]:
        skew = f"{im.skew:.2f}" if math.isfinite(im.skew) else "inf"
        lines.append(
            f"{im.name:<26}{im.calls:>6}{skew:>8}{im.straggler_rank:>10}"
            f"{im.max_busy:>14.6f}"
        )

    lines.append("")
    n_transfers = sum(
        1 for s in analysis.path.steps if s.kind == "transfer"
    )
    lines.append("top blocking edges on the critical path "
                 f"(of {n_transfers} transfers):")
    lines.append(
        f"{'src->dst':<10}{'bytes':>8}{'seconds':>12}{'tag':>14}"
        f"  skeleton"
    )
    for s in analysis.path.blocking_edges(top):
        r = s.record
        assert r is not None
        lines.append(
            f"{f'{r.src}->{r.dst}':<10}{r.nbytes:>8}{s.duration:>12.6f}"
            f"{r.tag:>14}  {s.skeleton}"
        )

    if whatifs:
        lines.append("")
        lines.append("what-if replays (perturbed analytic re-runs):")
        lines.append(
            f"{'scenario':<18}{'makespan [s]':>13}{'delta':>10}{'bound':>10}"
            f"{'ok':>5}"
        )
        for w in whatifs:
            bound = f"{w.bound:.4f}" if w.bound is not None else "-"
            ok = "-" if w.within_bound is None else ("yes" if w.within_bound else "NO")
            lines.append(
                f"{w.scenario:<18}{w.makespan:>13.6f}{w.delta:>10.4f}"
                f"{bound:>10}{ok:>5}"
            )
    return "\n".join(lines)
