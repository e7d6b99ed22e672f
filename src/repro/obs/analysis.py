"""Critical-path analysis of a traced run: one forward fold, both trace modes.

The analytic clocks of :class:`~repro.machine.network.Network` compute a
longest path: every clock write is ``max(predecessor on this rank,
sender at its departure) + duration``.  :class:`PathFold` keeps, per
rank, the attribution of that value — ``compute``; ``latency`` (the
setup before a departure and the wire's ``hops * t_hop``);
``bandwidth`` (the rest of the wire); ``idle`` (a clock jump no charged
wave explains) — by the innermost skeleton open when it was charged.
The fold drains every wave the Network logs, in emission order, in
record and stream mode alike (docs/OBSERVABILITY.md gives the tie and
gap rules); the span tracer logs each change of the innermost skeleton.
``farm`` and ``d&c`` run on the event engine, which books each event
through the same helpers; an asynchronous message its receiver takes
later is folded in two halves (:meth:`PathFold.post`, then
:meth:`PathFold.take`).

:func:`analyze_machine` turns the fold into one :class:`RunAnalysis`:
component and per-skeleton totals, the top-*k* blocking edges and
per-(skeleton, rank) busy seconds; record mode also has the steps,
which tile ``[0, makespan]``.  The ``trace`` pillar checks the fold
against a backward walk over the recording
(:func:`repro.check.tracecheck.critical_path`).

:func:`run_whatif` replays the application with latency, bandwidth or
compute imbalance removed.  Removing a component everywhere shortens
the makespan by **at most** its share of the old critical path (that
path is still a path, and loses exactly that), so each replay checks
``delta <= bound + slack``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import SkilError
from repro.machine.costmodel import CostModel
from repro.machine.trace import MessageRecord, drain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import Machine

__all__ = [
    "AnalysisError",
    "COMPONENTS",
    "TOPK",
    "PathStep",
    "CriticalPath",
    "PathFold",
    "BlockingEdge",
    "RankLoad",
    "SkeletonImbalance",
    "RunAnalysis",
    "analyze_machine",
    "WhatIf",
    "whatif_scenarios",
    "run_whatif",
    "format_analysis",
]

#: attribution components, in reporting order
COMPONENTS = ("compute", "latency", "bandwidth", "idle")
_COMPUTE, _LATENCY, _BANDWIDTH, _IDLE = range(4)

#: label of work charged while no skeleton span was open
OUTSIDE_SPANS = "(outside skeletons)"

#: blocking edges each rank carries along its chain
TOPK = 10
#: columns of a :class:`PathFold` state row: the shortest of the k
#: longest transfers kept, those transfers in three fields of k columns
#: (seconds; ``((tag id * 1024 + skeleton column) * p + src) * p + dst``,
#: exact while below 2**53; bytes), then four components per skeleton
_MIN, _SECS, _ATTR = 0, slice(1, 1 + TOPK), 1 + 3 * TOPK


class AnalysisError(SkilError):
    """The trace cannot support the requested analysis."""


def _eps_for(makespan: float) -> float:
    # event times come out of identical float expressions on the record
    # and the timeline side, so the tolerance only has to absorb
    # non-identical associations (summation orders, ``arrival - wire``)
    return 1e-12 + 1e-9 * abs(makespan)


# ---------------------------------------------------------------------------
# the path as steps (record mode)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PathStep:
    """One time segment of the critical path.

    Steps come in forward time order and tile ``[0, makespan]`` exactly:
    ``steps[i].end == steps[i+1].start`` bit-for-bit.  The four
    component fields partition the duration.
    """

    rank: int
    kind: str  # compute | send | transfer | gap
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
        return {c: getattr(self, c) for c in COMPONENTS}


def make_step(rank, kind, start, end, cost, skeleton=OUTSIDE_SPANS,
              detail="", record=None) -> PathStep:
    """A step whose components partition ``end - start``: a transfer's
    per-hop routing is latency and the rest of its wire bandwidth; any
    other kind is one component whole."""
    d = end - start
    parts = dict.fromkeys(COMPONENTS, 0.0)
    if kind == "transfer":
        parts["latency"] = min(d, record.hops * cost.t_hop)
        parts["bandwidth"] = d - parts["latency"]
        # the subtraction may round: fold the residual into the larger part
        big = max(("latency", "bandwidth"), key=parts.__getitem__)
        parts[big] += d - math.fsum(parts.values())
    else:
        parts[{"compute": "compute", "send": "latency"}.get(kind, "idle")] = d
    return PathStep(rank, kind, start, end, detail, skeleton, record=record,
                    **parts)


@dataclass
class CriticalPath:
    """The makespan-determining chain, as tiling segments."""

    steps: list[PathStep]
    makespan: float

    def component_totals(self) -> dict[str, float]:
        return {c: math.fsum(getattr(s, c) for s in self.steps) for c in COMPONENTS}

    def by_skeleton(self) -> dict[str, dict[str, float]]:
        """Per-skeleton attribution of the steps."""
        out: dict[str, dict[str, float]] = {}
        for s in self.steps:
            row = out.setdefault(s.skeleton, dict.fromkeys(COMPONENTS, 0.0))
            for c in COMPONENTS:
                row[c] += getattr(s, c)
        return out

    def validate(self) -> list[str]:
        """Tiling and attribution identities (empty list = consistent)."""
        if not self.steps:
            return ["empty path for a positive makespan"] if self.makespan > 0 else []
        problems: list[str] = []
        if self.steps[0].start != 0.0:
            problems.append(f"path starts at {self.steps[0].start}, not 0.0")
        if self.steps[-1].end != self.makespan:
            problems.append(f"path ends at {self.steps[-1].end}, not {self.makespan}")
        problems += [f"tiling broken at {a.end!r} -> {b.start!r} ({a.kind} on "
                     f"rank {a.rank} -> {b.kind} on {b.rank})"
                     for a, b in zip(self.steps, self.steps[1:]) if a.end != b.start]
        eps = _eps_for(self.makespan)
        for s in self.steps:
            parts = math.fsum(s.components().values())
            if abs(parts - s.duration) > eps:
                problems.append(f"step {s.kind}@{s.start}: components sum to "
                                f"{parts}, duration is {s.duration}")
        total = math.fsum(self.component_totals().values())
        if abs(total - self.makespan) > eps:
            problems.append(f"components sum to {total}, makespan is {self.makespan}")
        return problems


# ---------------------------------------------------------------------------
# the fold
# ---------------------------------------------------------------------------
class PathFold:
    """Per-rank attribution of the clock's longest path, folded online.

    ``val`` is each rank's folded clock value and ``state`` one row per
    rank: the :data:`TOPK` longest transfers on its chain (in no order
    until read) and the chain's attribution, four components per
    skeleton name.  A rank that takes another's chain takes its value
    and row (by index in a shift of every rank, :meth:`_shift`); what
    the Network logged is folded when the log drains.
    ``busy`` holds the busy seconds each rank charged per skeleton: its
    clock advance while the skeleton was charging, less the time it
    waited for a message or a jump (the current skeleton's still open
    in ``_since`` / ``_waited``).  The folded value is the rank's clock:
    the Network hands over the clocks after a write no wave describes
    (``barrier``) and :meth:`jump` catches up; a rendezvous wave hands
    over its receivers' clocks too, where a rank that both sends and
    receives in a shift pays a second transfer (:meth:`_serial`).  With
    *record*, every folded segment is also logged with its predecessor,
    and ``tail`` names each rank's last one.
    """

    def __init__(self, p: int, cost: CostModel, record: bool = False):
        self.p, self.cost, self.record = p, cost, record
        #: interned skeleton names (name -> column) and tags (tag -> id)
        self.skeletons = {OUTSIDE_SPANS: 0}
        self.tags: dict[str, int] = {}
        #: the Network's wave log, drained before every read
        self._log = None
        self.clear()

    def drain(self, entries) -> None:
        """A drained batch of the Network's wave log: each entry's fold
        step, in order."""
        for entry in entries:
            step = entry[2]
            if step is not None:
                getattr(self, step[0])(*step[1])

    def charging(self, skeleton: str | None) -> None:
        """The innermost open skeleton span from here on (``None``:
        none), as the span tracer logs it."""
        self._name = skeleton

    def clear(self) -> None:
        n = len(self.skeletons)
        self.val = np.zeros(self.p)
        self._rows = np.zeros((self.p, _ATTR + 4 * n))
        self._rows[:, :_SECS.stop] = -np.inf  # no transfer yet
        #: the row of ``_rows`` that holds each rank's chain (``state``
        #: puts every chain back in its rank's row for a reader)
        self._phys, self._moved = np.arange(self.p), False
        self.busy = np.zeros((self.p, n))
        self._since = np.zeros(self.p)
        self._waited = np.zeros(self.p)
        self._col = 0
        self._name = None
        self.tail = np.full(self.p if self.record else 0, -1, dtype=np.int64)
        self._segs: list[tuple] = []
        self._offsets: list[int] = []
        self._nseg = 0

    def cells(self) -> int:
        """Array elements of per-rank state (the stream accounting)."""
        return sum(a.size for a in (self.val, self._rows, self.busy,
                                    self._since, self._waited, self.tail))

    @property
    def state(self) -> np.ndarray:
        """One row per rank, in rank order (class docstring)."""
        drain(self._log)
        if self._moved:
            self._rows, self._phys = self._rows[self._phys], np.arange(self.p)
            self._moved = False
        return self._rows

    # -------------------------------------------------------------- helpers
    def _column(self) -> int:
        """The innermost open skeleton's column (added on first sight);
        a change of skeleton books the last one's busy seconds."""
        name = self._name or OUTSIDE_SPANS
        col = self.skeletons.get(name)
        if col is None:
            col = self.skeletons[name] = len(self.skeletons)
            self._rows = np.concatenate((self._rows, np.zeros((self.p, 4))), 1)
            self.busy = np.concatenate((self.busy, np.zeros((self.p, 1))), 1)
        if col != self._col:
            self.busy[:, self._col] += self.val - self._since - self._waited
            self._since[:] = self.val
            self._waited[:] = 0.0
            self._col = col
        return col

    def _segment(self, kind, ranks, starts, ends, col, preds, tag=-1, msg=None):
        """Record mode: log a segment per entry, and return their ids."""
        self._offsets.append(self._nseg)
        self._segs.append((kind, ranks, starts, ends, col, preds, tag, msg))
        self._nseg += len(ranks)
        return np.arange(self._offsets[-1], self._nseg)

    def jump(self, clocks, ranks=None) -> None:
        """Ranks whose *clocks* moved past their folded value without a
        wave: idle, handed over from the latest-finishing rank (from the
        rank itself when that one is already past the jump)."""
        ranks = np.arange(self.p) if ranks is None else np.unique(ranks)
        clock, val = clocks[ranks], self.val
        lag = clock > val[ranks]
        if not lag.any():
            return
        ranks, clock = ranks[lag], clock[lag]
        col = self._column()
        q = int(np.argmax(val))
        src = np.where(val[q] <= clock, q, ranks)
        start = val[src]
        rows = self._rows[self._phys[src]]
        rows[:, _ATTR + 4 * col + _IDLE] += clock - start
        self._rows[self._phys[ranks]] = rows
        self._waited[ranks] += clock - val[ranks]
        val[ranks] = clock
        if self.record:
            self.tail[ranks] = self._segment("gap", ranks, start, clock, col,
                                             self.tail[src])

    # --------------------------------------------------------------- waves
    def compute(self, ranks, starts, ends) -> None:
        """A wave of local work: distinct ranks, each starting at its
        clock; a wave of all p ranks comes in rank order."""
        col = self._column()
        d = np.asarray(ends, dtype=np.float64) - starts
        r = np.atleast_1d(ranks)
        at = slice(None) if r.size == self.p else r
        self._rows[:, _ATTR + 4 * col + _COMPUTE][self._phys[at]] += d
        self.val[at] = ends
        if self.record:  # the log's arrays are the fold's to keep
            self.tail[r] = self._segment("compute", r, np.atleast_1d(starts),
                                         np.atleast_1d(ends), col, self.tail[r])

    def messages(self, tag: str, srcs, dsts, departs, arrivals, hops,
                 nbytes, after=None) -> None:
        """One wave of messages, as the Network charged it; a rendezvous
        wave also hands over its receivers' clocks *after* it.  Senders
        are distinct, or one rank for a fan-out; receivers distinct, or
        one rank for a fan-in; one message may come as scalars."""
        if np.ndim(arrivals) == 0:
            departs, arrivals = np.array([departs]), np.array([arrivals])
            after = None if after is None else np.array([after])
        k = arrivals.size
        fan_out, fan_in = np.ndim(srcs) == 0, np.ndim(dsts) == 0
        src = np.full(k, srcs) if fan_out else srcs
        dst = np.full(k, dsts) if fan_in else dsts
        # the chain that precedes each departure: the sender's, or in a
        # rendezvous the receiver's when it came after the sender's setup
        base, last = src, None
        if after is not None:
            late = departs > self.val[src] + self.cost.t_setup
            if late.any():
                base = np.where(late, dst, src)
        elif k == self.p and not (fan_out or fan_in):
            return self._shift(tag, src, dst, departs, arrivals, hops, nbytes)
        else:  # a fan-out's last message is its sender's new clock
            last = slice(k - 1, None) if fan_out else slice(None)
        sent = self.depart(tag, base, departs, last)
        self.arrive(sent, src, dst, arrivals, hops, nbytes, fan_in, after)

    def _shift(self, tag, src, dst, dep, arr, hops, nbytes) -> None:
        """:meth:`messages` for an asynchronous wave in which every rank
        sends one message and receives one: a message that wins moves
        its chain to the receiver by index (``_phys``), not by copy; a
        receiver whose message loses keeps its own chain (with its own
        send's setup), copied to the row the lost message leaves free."""
        col = self._column()
        tid = self.tags.setdefault(tag, len(self.tags))
        rows, phys, val, a = self._rows, self._phys, self.val, _ATTR + 4 * col
        at, pre = phys[src], val[src]  # each message's chain, from its sender
        setup = dep - pre
        val[src] = dep  # every rank sends: a receiver's clock is its departure
        own = val[dst]
        win = arr >= own
        lost = None if win.all() else np.flatnonzero(~win)
        if lost is not None:  # copied before any chain moves
            keep, by = dst[lost], np.empty(self.p, dtype=np.intp)
            by[src] = np.arange(self.p)
            kept = rows[phys[keep]]
            kept[:, a + _LATENCY] += setup[by[keep]]
            win = np.flatnonzero(win)
        else:
            win = slice(None)
        wire = arr - dep
        lat = np.minimum(wire, hops * self.cost.t_hop)
        if self.record:
            sent = self._segment("send", src, pre, dep, col, self.tail[src], tid)
            self.tail[src] = sent
            moved = self._segment("transfer", dst, dep, arr, col, sent, tid,
                                  (src, np.asarray(nbytes), hops))
            self.tail[dst[win]] = moved[win]
        aw = at[win]
        rows[:, a + _LATENCY][aw] += (setup + lat)[win]
        rows[:, a + _BANDWIDTH][aw] += (wire - lat)[win]
        enters = np.flatnonzero(wire[win] > rows[aw, _MIN])
        if enters.size:
            m = np.arange(self.p)[win][enters]
            key = ((tid * 1024 + col) * self.p + src) * self.p + dst
            sub = rows[aw[enters]]
            self._enter(sub, [f[m] if np.ndim(f) else f for f in (wire, key, nbytes)])
            rows[aw[enters]] = sub
        self._waited[dst] += np.maximum(0.0, dep - own)
        val[dst] = np.maximum(own, arr)
        phys[dst[win]] = aw
        if lost is not None:
            rows[at[lost]] = kept
            phys[keep] = at[lost]
        self._moved = True

    @staticmethod
    def _enter(sub, fields) -> None:
        """Each row of *sub* takes one transfer — *fields*: its seconds,
        key and bytes — in place of its shortest kept one."""
        flat, first = sub.reshape(-1), np.arange(1, sub.size, sub.shape[1])
        slot = first + sub[:, _SECS].argmin(1)
        for f, field in enumerate(fields):
            flat[slot + f * TOPK] = field
        sub[:, _MIN] = flat[first + sub[:, _SECS].argmin(1)]

    def depart(self, tag: str, base, dep, last=slice(None)):
        """The sender half: each message's chain at departure *dep*, from
        the *base* ranks' rows; the *last* ones' departures are their
        senders' new clocks (``None``: a rendezvous sender awaits the
        arrival).  Returns the chains, for :meth:`arrive`."""
        col = self._column()  # first: a new skeleton widens the state
        tid = self.tags.setdefault(tag, len(self.tags))
        rows, pre = self._rows.take(self._phys[base], 0), self.val[base]
        setup = dep - pre
        sent = None
        if self.record:
            sent = self._segment("send", base, pre, dep, col, self.tail[base], tid)
        if last is not None:
            s = base[last]
            self.val[s] = dep[last]
            self._rows[:, _ATTR + 4 * col + _LATENCY][self._phys[s]] += setup[last]
            if self.record:
                self.tail[s] = sent[last]
        return col, tid, rows, dep, setup, sent

    def post(self, tag: str, src: int, depart: float, box: list) -> None:
        """The event engine's sender half of one message: its chain waits
        in *box* until the receiver takes it (:meth:`take`)."""
        box.append(self.depart(tag, np.array([src]), np.array([depart])))

    def take(self, box: list, src: int, dst: int, arrival: float, hops: int,
             nbytes: int) -> None:
        """The receiver half of the message :meth:`post` put in *box*."""
        self.arrive(box.pop(), np.array([src]), np.array([dst]),
                    np.array([arrival]), hops, nbytes)

    def arrive(self, sent, src, dst, arr, hops, nbytes, fan_in=False,
               after=None) -> None:
        """The receiver half: the messages *sent* (:meth:`depart`) cross
        and reach their receivers *dst*, each at its clock."""
        col, tid, rows, dep, setup, sent = sent
        k, st, phys, val, cost = dep.size, self._rows, self._phys, self.val, self.cost
        a = _ATTR + 4 * col
        wire = arr - dep
        lat = np.minimum(wire, hops * cost.t_hop)
        if self.record:
            moved = self._segment("transfer", dst, dep, arr, col, sent, tid,
                                  (src, np.asarray(nbytes), hops))
        # the rows at arrival: the wire, and the edge if among the k longest
        rows[:, a + _LATENCY] += setup + lat
        rows[:, a + _BANDWIDTH] += wire - lat
        enters = wire > rows[:, _MIN]
        if enters.any():
            enters = np.flatnonzero(enters)
            every = enters.size == k
            sub = rows if every else rows[enters]
            key = ((tid * 1024 + col) * self.p + src) * self.p + dst
            self._enter(sub, [f if every or not np.ndim(f) else f[enters]
                              for f in (wire, key, nbytes)])
            if not every:
                rows[enters] = sub
        if after is not None:
            st[phys[src]] = rows
            self._waited[src] += np.maximum(0.0, dep - val[src] - cost.t_setup)
            val[src] = arr
            if self.record:
                self.tail[src] = moved
        # receivers: the message wins at or after the receiver's clock (a
        # loser adds no wait: it arrived, so departed, before that clock)
        own = val[dst]
        if fan_in:  # one receiver: the latest arrival wins
            i = np.lexsort((-src, dep, arr))[-1:]
            rows, dep, arr, own, dst = rows[i], dep[i], arr[i], own[i], dst[i]
            if self.record:
                moved = moved[i]
        w = arr >= own
        self._waited[dst] += np.maximum(0.0, dep - own)
        val[dst] = np.maximum(own, arr)
        w = slice(None) if w.all() else np.flatnonzero(w)
        st[phys[dst[w]]] = rows[w]
        if self.record:
            self.tail[dst[w]] = moved[w]
        if after is not None:
            self._serial(after, dst)

    def _serial(self, after, ranks) -> None:
        """A rendezvous shift's second transfer: a rank that both sends
        and receives pays it after both, so its clock (*after*, one per
        rank) passes the wave's last arrival on it; booked like a send,
        on the rank's own chain (the Network's timeline lane of the same
        span)."""
        lag = after > self.val[ranks]
        if not lag.any():
            return
        ranks = ranks[lag]
        col = self._column()
        start, end = self.val[ranks], after[lag]
        self._rows[:, _ATTR + 4 * col + _LATENCY][self._phys[ranks]] += end - start
        if self.record:
            self.tail[ranks] = self._segment("send", ranks, start, end, col,
                                             self.tail[ranks])
        self.val[ranks] = end

    # ------------------------------------------------------------- results
    def busy_seconds(self) -> np.ndarray:
        """Busy seconds per (rank, skeleton column), the open one's too."""
        drain(self._log)
        busy = self.busy.copy()
        busy[:, self._col] += self.val - self._since - self._waited
        return busy

    def steps(self, rank: int, makespan: float) -> list[PathStep]:
        """Record mode: *rank*'s chain as tiling steps, closed with a
        final idle step up to *makespan* if its clock jumped past."""
        drain(self._log)
        names, tags = list(self.skeletons), list(self.tags)
        end = float(self.val[rank])
        out = [make_step(rank, "gap", end, makespan, self.cost)] if makespan > end else []
        seg = int(self.tail[rank])
        while seg >= 0:
            j = bisect.bisect_right(self._offsets, seg) - 1
            i = seg - self._offsets[j]
            kind, ranks, starts, ends, col, preds, tag, msg = self._segs[j]
            r, a, b = int(ranks[i]), float(starts[i]), float(ends[i])
            if b > a:
                detail, rec = tags[tag] if tag >= 0 else "", None
                if msg is not None:
                    src, nb, hops = (int(np.broadcast_to(c, len(ranks))[i]) for c in msg)
                    rec = MessageRecord(b, src, r, nb, hops, detail, a)
                out.append(make_step(r, kind, a, b, self.cost, names[col],
                                     detail, rec))
            seg = int(preds[i])
        out.reverse()
        return out


# ---------------------------------------------------------------------------
# the one analysis
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BlockingEdge:
    """One message transfer on the critical path."""

    src: int
    dst: int
    nbytes: int
    tag: str
    seconds: float
    skeleton: str


@dataclass(frozen=True)
class RankLoad:
    """One rank's occupancy over the whole run."""

    rank: int
    busy_seconds: float  # clock advance the rank spent charged, not waiting
    idle_seconds: float  # makespan - busy
    busy_fraction: float  # busy / makespan


@dataclass(frozen=True)
class SkeletonImbalance:
    """Load skew across ranks of the busy seconds one skeleton charged."""

    name: str
    calls: int
    max_busy: float
    median_busy: float
    straggler_rank: int

    @property
    def skew(self) -> float:
        """max/median busy ratio; 1.0 is perfectly balanced."""
        if self.median_busy > 0.0:
            return self.max_busy / self.median_busy
        return float("inf") if self.max_busy > 0.0 else 1.0


@dataclass
class RunAnalysis:
    """Everything the critical-path report needs from one traced run."""

    makespan: float
    p: int
    components: dict[str, float]
    by_skeleton: dict[str, dict[str, float]]
    path: CriticalPath  # no steps in stream mode
    blocking_edges: list[BlockingEdge]
    loads: list[RankLoad]
    imbalance: list[SkeletonImbalance]
    #: stream mode: what the run streamed past, against what it kept
    accounting: dict | None = None

    def component_totals(self) -> dict[str, float]:
        return dict(self.components)

    def snapshot(self, whatifs: list[WhatIf] | None = None) -> dict:
        """JSON-able summary, with the what-if replays when there are
        any (the analysis keys of ``eval trace --json-out``)."""
        snap = {
            "p": self.p,
            "makespan_s": self.makespan,
            "components": self.component_totals(),
            "by_skeleton": self.by_skeleton,
            "rank_busy_fraction": {str(l.rank): l.busy_fraction for l in self.loads},
            "blocking_edges": [
                {"src": e.src, "dst": e.dst, "bytes": e.nbytes, "tag": e.tag,
                 "seconds": e.seconds, "skeleton": e.skeleton}
                for e in self.blocking_edges
            ],
        }
        if whatifs:
            snap["whatif"] = [
                {"scenario": w.scenario, "makespan_s": w.makespan,
                 "delta_s": w.delta, "bound_s": w.bound,
                 "within_bound": w.within_bound}
                for w in whatifs
            ]
        return snap


def analyze_machine(machine: "Machine") -> RunAnalysis:
    """The critical-path / straggler analysis of a traced machine, in
    either trace mode.  Requires ``trace_level=2``."""
    fold = machine.network.path
    if fold is None:
        raise AnalysisError("analysis needs Machine(trace_level=2): the "
                            "critical-path fold is not attached")
    drain(fold._log)
    makespan = machine.time
    st = fold.state
    q = int(np.argmax(fold.val))
    attr = st[q, _ATTR:].reshape(-1, 4).T.copy()  # component x skeleton
    attr[_IDLE, 0] += makespan - fold.val[q]  # a final jump
    comp = dict(zip(COMPONENTS, attr.sum(axis=1).tolist()))
    # rounding of the running sums goes into the largest component
    big = max(COMPONENTS, key=comp.__getitem__)
    comp[big] += makespan - math.fsum(comp.values())
    names, tags = list(fold.skeletons), list(fold.tags)
    by_skeleton = {
        name: dict(zip(COMPONENTS, attr[:, j].tolist()))
        for j, name in enumerate(names) if attr[:, j].any()
    }
    # the carried edges, longest first, equals by their key
    edges = []
    top = st[q, _SECS.start:_ATTR].reshape(3, TOPK).T.tolist()
    for secs, key, nbytes in sorted(top, key=lambda e: (-e[0], e[1])):
        if secs > -np.inf:
            rest, dst = divmod(int(key), fold.p)
            rest, src = divmod(rest, fold.p)
            tid, col = divmod(rest, 1024)
            edges.append(BlockingEdge(src, dst, int(nbytes), tags[tid], secs,
                                      names[col]))
    steps = fold.steps(q, makespan) if fold.record else []
    busy = fold.busy_seconds()
    loads = [RankLoad(r, b, max(0.0, makespan - b), b / makespan if makespan else 0.0)
             for r, b in enumerate(busy.sum(axis=1).tolist())]
    obs = machine.stream_obs
    return RunAnalysis(makespan, machine.p, comp, by_skeleton,
                       CriticalPath(steps, makespan), edges, loads,
                       _imbalance(machine, fold.skeletons, busy),
                       obs.accounting() if obs is not None else None)


def _imbalance(machine: "Machine", columns: dict[str, int],
               busy: np.ndarray) -> list[SkeletonImbalance]:
    """Per-skeleton straggler metrics from the busy seconds each skeleton
    charged on each rank; worst skew first."""
    out = []
    for name, agg in machine.tracer.skeletons.items():
        j = columns.get(name)
        per_rank = busy[:, j] if j is not None else np.zeros(machine.p)
        out.append(SkeletonImbalance(name, agg.calls, float(per_rank.max()),
                                     float(np.median(per_rank)),
                                     int(per_rank.argmax())))
    out.sort(key=lambda s: -(s.skew if math.isfinite(s.skew) else 1e18))
    return out


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
    return [("latency->0", cost.with_(t_setup=0.0, t_hop=0.0), False),
            ("bandwidth->inf", cost.with_(t_byte=0.0), False),
            ("balanced-compute", cost, True)]


def run_whatif(
    baseline: RunAnalysis,
    cost: CostModel,
    runner: Callable[[CostModel, bool], float],
    slack_frac: float = 0.02,
) -> list[WhatIf]:
    """Replay the run under each counterfactual and check the bounds.

    *runner(cost, balance_compute)* re-runs the application on a fresh
    machine and returns its makespan.  Removing one component can gain
    at most its critical-path attribution, plus *slack_frac* of the
    makespan for the model's approximations; balanced
    compute redistributes rather than removes work, so it has no bound.

    Balanced compute is a knob of the charged waves only
    (``Network.balance_compute``): the event engine under ``farm`` and
    ``d&c`` books each rank's own events, so a replay that reaches it
    raises a ``MachineError`` rather than report unbalanced time.
    """
    totals = baseline.component_totals()
    bounds = {"latency->0": totals["latency"],
              "bandwidth->inf": totals["bandwidth"], "balanced-compute": None}
    slack = slack_frac * baseline.makespan + 1e-9
    out: list[WhatIf] = []
    for name, cm, balance in whatif_scenarios(cost):
        ms = runner(cm, balance)
        delta, bound = baseline.makespan - ms, bounds[name]
        ok = (delta <= bound + slack) if bound is not None else None
        out.append(WhatIf(name, ms, delta, bound, ok))
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
    totals = analysis.component_totals()
    ms = analysis.makespan or 1.0
    lines = [f"critical path over {len(analysis.path.steps)} step(s), "
             f"machine makespan {analysis.makespan:.6f}s (the whole run, "
             f"setup and teardown included)"]
    acc = analysis.accounting
    if acc is not None:
        lines[0] += " (stream mode: totals and blocking edges, no steps)"
        lines.append(
            f"memory: {acc['per_rank_cells']} per-rank cells; nothing retained "
            f"of {acc['messages_seen']} messages, {acc['spans_seen']} spans "
            f"({acc['spans_retained']} still alive)"
        )
    lines.append(f"{'component':<14}{'seconds':>12}{'share':>8}")
    lines += [f"{c:<14}{totals[c]:>12.6f}{totals[c] / ms:>8.1%}" for c in COMPONENTS]

    lines += ["", "per-skeleton critical-path attribution (charging skeleton):",
              f"{'skeleton':<26}{'on-path [s]':>12}{'compute':>9}{'latency':>9}"
              f"{'bandw':>7}{'idle':>7}"]
    for name, comp in sorted(analysis.by_skeleton.items(),
                             key=lambda kv: -math.fsum(kv[1].values())):
        tot = math.fsum(comp.values())
        share = {c: v / (tot or 1.0) for c, v in comp.items()}
        lines.append(f"{name:<26}{tot:>12.6f}{share['compute']:>8.0%}"
                     f"{share['latency']:>9.0%}{share['bandwidth']:>7.0%}"
                     f"{share['idle']:>7.0%}")

    lines += ["", "rank loads (busy fraction of makespan):"]
    if analysis.loads:
        frac = [(l.busy_fraction, l.rank) for l in analysis.loads]
        (lo, worst), (hi, best) = min(frac), max(frac)
        mean = math.fsum(f for f, _ in frac) / len(frac)
        lines.append(f"  mean {mean:.1%}   busiest rank {best} {hi:.1%}"
                     f"   idlest rank {worst} {lo:.1%}")
    lines += ["", "per-skeleton imbalance (max/median busy across ranks):",
              f"{'skeleton':<26}{'calls':>6}{'skew':>8}{'straggler':>10}"
              f"{'max busy [s]':>14}"]
    for im in analysis.imbalance[:top]:
        skew = f"{im.skew:.2f}" if math.isfinite(im.skew) else "inf"
        lines.append(f"{im.name:<26}{im.calls:>6}{skew:>8}{im.straggler_rank:>10}"
                     f"{im.max_busy:>14.6f}")

    edges = analysis.blocking_edges[:top]
    width = max([len("tag")] + [len(e.tag) for e in edges])
    lines += ["", f"top blocking edges on the critical path (longest {top}):",
              f"{'src->dst':<12}{'bytes':>10}{'seconds':>12}  {'tag':<{width}}"
              "  skeleton"]
    lines += [f"{f'{e.src}->{e.dst}':<12}{e.nbytes:>10}{e.seconds:>12.6f}"
              f"  {e.tag:<{width}}  {e.skeleton}" for e in edges]

    if whatifs:
        lines += ["", "what-if replays (perturbed analytic re-runs):",
                  f"{'scenario':<18}{'makespan [s]':>13}{'delta':>10}"
                  f"{'bound':>10}{'ok':>5}"]
        for w in whatifs:
            bound = f"{w.bound:.4f}" if w.bound is not None else "-"
            ok = {None: "-", True: "yes", False: "NO"}[w.within_bound]
            lines.append(f"{w.scenario:<18}{w.makespan:>13.6f}{w.delta:>10.4f}"
                         f"{bound:>10}{ok:>5}")
    return "\n".join(lines)
