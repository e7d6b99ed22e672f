"""Traced-run conformance: the ``trace`` pillar.

Every trial draws one workload and runs it three times on fresh
machines of one size: untraced (``trace_level=0``), recording
(``trace_level=2``, each interval labelled with its charging skeleton by
:func:`watch_charges`) and streaming (``trace_mode="stream"``).
:func:`trace_problems` then holds the runs to one list of checks:

* **tracing moves no clock**: the three runs end with bitwise equal
  per-rank clocks;
* **the recording's DAG and critical path** (:func:`invariant_problems`):
  every happens-before edge points forward in time and no interval
  escapes ``[0, makespan]`` (:func:`build_dag`); the fold's path tiles
  ``[0, makespan]``, its attribution partitions every step and its
  component totals, overall and per charging skeleton, equal the
  backward walk over the recording (:func:`critical_path`) within
  :func:`~repro.obs.analysis._eps_for`; ``busy <= makespan <= busy +
  idle`` over the path; per-rank busy fractions lie in ``[0, 1]``;
* **record == stream, bitwise**: the streamed observer against the
  recording folded through the same sinks (:func:`fold_recorded`,
  :func:`compare_observers`), the two critical-path folds
  (:func:`compare_folds`), the stats, the metrics exposition text, and
  the streamed observer's memory bound;
* **spans and metrics**: spans close and nest in their parents, the
  message-size histogram equals the stats, and where the workload opens
  spans the root spans hold every byte;
* **compute is booked once**: per rank, *compute* intervals are
  disjoint, and ``stats.compute_seconds <= p * makespan``.  Intervals of
  other kinds overlap by design: a rank's send, receive and idle wait in
  one shift do.

Four families interleave, the first two twice as often as the others:
*pattern* (random collective patterns on the raw Network,
:func:`repro.check.diffcheck.generate_pattern` with ``wide=True``),
*skeleton* (a small array-skeleton program), *app* (shortest paths /
Gaussian elimination at p in {4, 16, 64}) and *engine*
(``divide_and_conquer`` / ``farm`` on the event engine).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from repro.apps.gauss import gauss_simple, random_system
from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.check.diffcheck import apply_network, generate_pattern
from repro.check.report import TrialRunner
from repro.errors import SkilError
from repro.machine.costmodel import CostModel
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.trace import MessageRecord
from repro.obs.analysis import (
    COMPONENTS,
    OUTSIDE_SPANS,
    AnalysisError,
    CriticalPath,
    _eps_for,
    analyze_machine,
    make_step,
)
from repro.obs.span import Span, SpanTracer
from repro.obs.stream import StreamObserver
from repro.obs.timeline import Interval, Timeline
from repro.skeletons import PLUS, SkilContext

__all__ = [
    "DagEdge",
    "HappensBeforeDag",
    "build_dag",
    "critical_path",
    "Charges",
    "watch_charges",
    "invariant_problems",
    "fold_recorded",
    "compare_observers",
    "compare_folds",
    "trace_problems",
    "run_trace",
    "run_trace_raw",
]


# ---------------------------------------------------------------------------
# the DAG itself
# ---------------------------------------------------------------------------
class DagEdge(NamedTuple):
    """One happens-before edge between two timeline intervals."""

    kind: str  # "program" | "message"
    src_node: int  # index into HappensBeforeDag.nodes
    dst_node: int
    record: MessageRecord | None = None


@dataclass
class HappensBeforeDag:
    """Timeline intervals as nodes, program order + messages as edges."""

    nodes: list[Interval]
    edges: list[DagEdge]
    makespan: float
    #: message records that could not be matched to a send and a recv
    #: interval (zero-length intervals are dropped by the timeline)
    unmatched_records: int = 0

    def validate(self) -> list[str]:
        """Structural problems (empty list = a valid happens-before DAG).

        Every edge must point forward in time — program edges from an
        earlier-starting to a later-starting interval of one rank,
        message edges from a wire departure to a no-earlier arrival.
        Forward-in-time edges make time a topological order, so the
        graph is acyclic by construction; a violation here is a
        corrupted trace.
        """
        problems: list[str] = []
        eps = _eps_for(self.makespan)
        for e in self.edges:
            u, v = self.nodes[e.src_node], self.nodes[e.dst_node]
            if e.kind == "program":
                if u.rank != v.rank:
                    problems.append(
                        f"program edge crosses ranks {u.rank}->{v.rank}"
                    )
                if u.start > v.start + eps:
                    problems.append(
                        f"program edge goes backward on rank {u.rank}: "
                        f"{u.start} -> {v.start}"
                    )
            else:
                r = e.record
                assert r is not None
                if r.depart > r.time + eps:
                    problems.append(
                        f"message {r.src}->{r.dst} departs after it arrives: "
                        f"{r.depart} > {r.time}"
                    )
                if u.rank != r.src or v.rank != r.dst:
                    problems.append(
                        f"message edge endpoints disagree with its record: "
                        f"nodes {u.rank}->{v.rank}, record {r.src}->{r.dst}"
                    )
        for iv in self.nodes:
            if iv.end > self.makespan + eps or iv.start < -eps:
                problems.append(
                    f"interval {iv.kind} [{iv.start}, {iv.end}] on rank "
                    f"{iv.rank} escapes [0, {self.makespan}]"
                )
        return problems


def build_dag(
    timeline: Timeline,
    records: Sequence[MessageRecord],
    makespan: float | None = None,
) -> HappensBeforeDag:
    """Materialise the happens-before DAG of one traced run."""
    nodes = sorted(timeline.intervals, key=lambda iv: (iv.rank, iv.start, iv.end))
    if makespan is None:
        makespan = max((iv.end for iv in nodes), default=0.0)
    eps = _eps_for(makespan)
    index = {id(iv): i for i, iv in enumerate(nodes)}
    edges: list[DagEdge] = []

    by_rank: dict[int, list[Interval]] = {}
    for iv in nodes:
        by_rank.setdefault(iv.rank, []).append(iv)
    ranks = [iv.rank for iv in nodes]
    edges += [DagEdge("program", i, i + 1) for i in range(len(ranks) - 1)
              if ranks[i] == ranks[i + 1]]

    # message edges: sender interval ending at (or spanning) the wire
    # departure -> receiver interval ending at the arrival
    ends: dict[int, list[float]] = {
        r: [iv.end for iv in ivs] for r, ivs in by_rank.items()
    }
    unmatched = 0
    for rec in records:
        if rec.depart < 0.0 or rec.src == rec.dst:
            unmatched += 1
            continue
        u = _interval_at(by_rank, ends, rec.src, rec.depart, eps)
        v = _interval_at(by_rank, ends, rec.dst, rec.time, eps)
        if u is None or v is None:
            unmatched += 1
            continue
        edges.append(DagEdge("message", index[id(u)], index[id(v)], rec))
    return HappensBeforeDag(nodes, edges, makespan, unmatched)


def _interval_at(
    by_rank: dict[int, list[Interval]],
    ends: dict[int, list[float]],
    rank: int,
    t: float,
    eps: float,
) -> Interval | None:
    """The rank's interval ending at *t* (preferred) or spanning it."""
    ivs = by_rank.get(rank)
    if not ivs:
        return None
    i = bisect.bisect_left(ends[rank], t - eps)
    if i < len(ivs) and abs(ivs[i].end - t) <= eps:
        return ivs[i]
    for iv in ivs[max(0, i - 2): i + 2]:
        if iv.start - eps <= t <= iv.end + eps:
            return iv
    return None


# ---------------------------------------------------------------------------
# the reference critical path: a backward walk over the recording
# ---------------------------------------------------------------------------
def critical_path(
    timeline: Timeline,
    records: Sequence[MessageRecord],
    cost: CostModel,
    makespan: float | None = None,
    labels: Sequence[str] | None = None,
) -> CriticalPath:
    """The critical path of a recording, walked backward from the makespan.

    The reference of the forward fold: it reads only the recorded
    intervals and message records and applies the fold's rules from the
    other end.  At each point a rank's value came from a message
    arriving there, else from the compute or send interval ending there,
    else from a clock jump — idle, handed over from the latest activity
    at or before it.  Of the messages arriving at one point, the one of
    the last wave (its sends come before its receives) before the step
    the walk came from wins — known from the *labels* of
    :func:`watch_charges` — then the latest departure, the lowest sender.
    A transfer's departure follows the sender's setup, or in a
    rendezvous the receiver when it came after that setup.  *labels*
    (:func:`watch_charges`, one per interval) name each step's charging
    skeleton; steps that no interval charged are outside skeletons.
    """
    ivs = timeline.intervals
    name = (lambda i: labels[i]) if labels is not None else (lambda i: OUTSIDE_SPANS)
    ending: dict[tuple[int, float], int] = {}  # compute / send interval
    recv_from: dict[tuple[int, float], float] = {}
    waves = getattr(labels, "waves", None)
    for i, iv in enumerate(ivs):
        if iv.kind in ("compute", "send"):
            ending[(iv.rank, iv.end)] = i
        elif iv.kind == "recv":
            recv_from[(iv.rank, iv.end)] = iv.start
    arriving: dict[tuple[int, float], list[MessageRecord]] = {}
    sent: dict[int, int] = {}  # record -> its send interval
    sync_sent: dict[tuple[int, float], MessageRecord] = {}
    for rec in records:
        if rec.depart < 0.0:
            continue
        arriving.setdefault((rec.dst, rec.time), []).append(rec)
        for t in (rec.depart, rec.time):
            i = ending.get((rec.src, t))
            if i is not None and ivs[i].kind == "send" and ivs[i].start <= rec.depart:
                sent[id(rec)] = i
                if t == rec.time > rec.depart:
                    sync_sent[(rec.src, t)] = rec
                break
    events = sorted({(t, r) for r, t in ending} | {(t, r) for r, t in arriving})
    if makespan is None:
        makespan = events[-1][0] if events else 0.0
    steps = []

    def add(rank, kind, a, b, skeleton, rec=None):
        if b > a:
            steps.append(make_step(rank, kind, a, b, cost, skeleton,
                                   rec.tag if rec else "", rec))

    def wave(rec):  # the wave that charged *rec* (its send's), -1 unknown
        return waves[sent[id(rec)]] if waves and id(rec) in sent else -1

    def cross(rec):
        """The transfer into *rec*'s arrival; returns where it came from,
        and the wave charged just after that point."""
        i = sent.get(id(rec))
        sk = name(i) if i is not None else OUTSIDE_SPANS
        add(rec.dst, "transfer", rec.depart, rec.time, sk, rec)
        if i is None:  # no send interval (a zero setup): the sender's clock
            return rec.src, rec.depart, math.inf
        s_iv = ivs[i]
        if s_iv.end == rec.time and rec.depart > s_iv.start + cost.t_setup:
            pre = min(recv_from.get((rec.dst, rec.time), rec.depart), rec.depart)
            add(rec.dst, "send", pre, rec.depart, sk, rec)
            return rec.dst, pre, waves[i] if waves else math.inf
        add(rec.src, "send", s_iv.start, rec.depart, sk, rec)
        return rec.src, s_iv.start, waves[i] if waves else math.inf

    rank = min((r for t, r in events if t == makespan), default=-1)
    t, after = makespan, math.inf
    for _ in range(2 * (len(ivs) + len(records)) + 8):
        if t <= 0.0:
            break
        recs = [r for r in arriving.get((rank, t), ()) if wave(r) < after]
        if recs:
            rank, t, after = cross(max(recs, key=lambda r: (wave(r), r.depart, -r.src)))
            continue
        i = ending.get((rank, t))
        if i is not None:
            if (rank, t) in sync_sent:
                rank, t, after = cross(sync_sent[(rank, t)])
                continue
            add(rank, ivs[i].kind, ivs[i].start, t, name(i))
            t, after = ivs[i].start, waves[i] if waves else math.inf
            continue
        # a clock jump: the latest activity at or before t, lowest rank
        j = bisect.bisect_right(events, (t, math.inf)) - 1
        while j > 0 and events[j - 1][0] == events[j][0]:
            j -= 1
        e, q = events[j] if j >= 0 else (0.0, rank)
        add(rank, "gap", e, t, steps[-1].skeleton if steps else OUTSIDE_SPANS)
        rank, t, after = q, e, math.inf
    else:
        raise AnalysisError(f"the walk did not reach 0 (stuck at {t} on {rank})")
    steps.reverse()
    return CriticalPath(steps, makespan)


class Charges(list):
    """One skeleton name per interval, and in :attr:`waves` the wave —
    the emission call, counted from 1 — that charged it."""

    waves: list[int]


def watch_charges(machine: Machine) -> Charges:
    """From now on, label every interval *machine*'s timeline receives
    with the skeleton charging it — the innermost skeleton span open at
    emission — and with its wave; returns the labels."""
    tl, tracer = machine.timeline, machine.tracer
    labels, calls = Charges(), [0, 0]  # in add_lanes, waves begun
    labels.waves = []
    add, add_lanes = tl.add, tl.add_lanes

    def label(kept) -> None:  # the timeline keeps what ends after it starts
        labels.extend([tracer.innermost_skeleton() or OUTSIDE_SPANS] * int(kept))
        labels.waves.extend([calls[1]] * int(kept))

    def add_labelled(rank, kind, start, end, detail=""):
        calls[1] += not calls[0]
        add(rank, kind, start, end, detail)
        label(end > start)

    def add_lanes_labelled(lanes, detail=""):  # add_many's too
        calls[:] = 1, calls[1] + 1
        add_lanes(lanes, detail)  # a message of scalars comes back through add
        calls[0] = 0
        if np.ndim(lanes[0][0]):
            label(np.count_nonzero(np.array([ln[3] for ln in lanes])
                                   > np.array([ln[2] for ln in lanes])))

    tl.add, tl.add_lanes = add_labelled, add_lanes_labelled
    return labels


# ---------------------------------------------------------------------------
# invariants of one traced run
# ---------------------------------------------------------------------------
def invariant_problems(
    machine: Machine, labels: Sequence[str] | None = None
) -> list[str]:
    """All structural invariants of one traced run's analysis (module
    docstring); per-skeleton totals are compared when *labels* name
    every interval's charging skeleton (:func:`watch_charges`)."""
    problems: list[str] = []
    analysis = analyze_machine(machine)
    makespan = analysis.makespan
    dag = build_dag(machine.timeline, machine.stats.records, makespan)
    problems += [f"dag: {p}" for p in dag.validate()]
    problems += [f"path: {p}" for p in analysis.path.validate()]
    ref = critical_path(machine.timeline, machine.stats.records, machine.cost,
                        makespan, labels)
    problems += [f"reference: {p}" for p in ref.validate()]
    eps = _eps_for(makespan)
    got, want = {"": analysis.components}, {"": ref.component_totals()}
    if labels is not None:
        got.update(analysis.by_skeleton)
        want.update(ref.by_skeleton())
    for key in sorted(set(got) | set(want)):
        for c in COMPONENTS:
            a = got.get(key, {}).get(c, 0.0)
            b = want.get(key, {}).get(c, 0.0)
            if abs(a - b) > eps:
                problems.append(
                    f"fold vs walk {key or 'total'} {c}: {a!r} != {b!r}"
                )
    totals = analysis.component_totals()
    busy = totals["compute"] + totals["latency"] + totals["bandwidth"]
    if busy > makespan + eps:
        problems.append(f"critical-path busy {busy} exceeds makespan {makespan}")
    if makespan > busy + totals["idle"] + eps:
        problems.append(
            f"makespan {makespan} exceeds the path's busy+idle "
            f"{busy + totals['idle']}"
        )
    for load in analysis.loads:
        if not (-1e-9 <= load.busy_fraction <= 1.0 + 1e-9):
            problems.append(
                f"rank {load.rank} busy fraction {load.busy_fraction} "
                "outside [0, 1]"
            )
    return problems


# ---------------------------------------------------------------------------
# the reference fold
# ---------------------------------------------------------------------------
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


def fold_recorded(machine: Machine) -> StreamObserver:
    """Fold a full ``trace_level=2`` recording into stream aggregates.

    Replays the recorded timeline intervals (append order), message
    records (append order) and closed spans (close order) through a
    fresh :class:`StreamObserver` using the same scalar update
    arithmetic as live streaming.  Every aggregate is bit-identical to
    running the same workload under ``trace_mode="stream"`` — the
    equality the pillar asserts via :func:`compare_observers`.
    """
    timeline = machine.timeline
    tracer = machine.tracer
    if timeline is None or tracer is None or not machine.stats.keep_records:
        raise SkilError(
            "fold_recorded needs a full recording: "
            "Machine(trace_level=2) in the default record mode"
        )
    obs = StreamObserver(machine.p)
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
    spill writer is not compared.
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
    if ta.intervals_seen != tb.intervals_seen:
        problems.append(
            f"intervals_seen: {ta.intervals_seen} vs {tb.intervals_seen}"
        )
    for name in ("messages_seen", "spans_seen"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            problems.append(f"{name}: {va} vs {vb}")
    if set(a.skeletons) != set(b.skeletons):
        problems.append(
            f"skeleton keys: {sorted(a.skeletons)} vs {sorted(b.skeletons)}"
        )
    else:
        for key in sorted(a.skeletons):
            ga, gb = a.skeletons[key], b.skeletons[key]
            for fname in (
                "calls",
                "compute_seconds",
                "comm_seconds",
                "idle_seconds",
                "messages",
                "bytes_sent",
            ):
                va, vb = getattr(ga, fname), getattr(gb, fname)
                if va != vb:
                    problems.append(f"skeletons[{key}].{fname}: {va!r} vs {vb!r}")
            ha, hb = ga.durations, gb.durations
            if (ha.counts, ha.total, ha.count, ha.min, ha.max) != (
                hb.counts, hb.total, hb.count, hb.min, hb.max
            ):
                problems.append(f"skeletons[{key}].durations histogram differs")
    return problems


def compare_folds(a, b) -> list[str]:
    """Bitwise comparison of two machines' critical-path folds
    (:class:`repro.obs.analysis.PathFold`; the record-mode segment log
    is not compared)."""
    problems: list[str] = []
    for name in ("skeletons", "tags"):
        if getattr(a, name) != getattr(b, name):
            problems.append(
                f"fold {name}: {getattr(a, name)} vs {getattr(b, name)}")
    if not problems:
        for name in ("val", "state", "busy", "_since", "_waited"):
            _diff_arrays(f"fold.{name}", getattr(a, name).ravel(),
                         getattr(b, name).ravel(), problems)
    return problems


# ---------------------------------------------------------------------------
# the checks on one workload's three runs
# ---------------------------------------------------------------------------
_stats_tuple = attrgetter(
    "messages", "bytes_sent", "hops_crossed", "comm_seconds",
    "idle_seconds", "compute_seconds", "skeleton_calls",
)


def _span_problems(m: Machine) -> list[str]:
    """Spans, intervals and metrics of one recording agree."""
    tracer, stats = m.tracer, m.stats
    eps = _eps_for(m.network.time)
    problems: list[str] = []
    if tracer.open_depth != 0:
        problems.append(f"{tracer.open_depth} span(s) left open")
    spans = tracer.closed_spans()
    for s in spans:
        if s.end_time < s.begin_time:
            problems.append(f"span {s.name} ends before it begins")
        if s.parent is not None:
            par = tracer.spans[s.parent]
            if s.begin_time < par.begin_time - eps or s.end_time > par.end_time + eps:
                problems.append(
                    f"span {s.name} [{s.begin_time}, {s.end_time}] escapes "
                    f"parent {par.name} [{par.begin_time}, {par.end_time}]"
                )
    root_bytes = sum(s.bytes_sent for s in tracer.roots())
    if spans and root_bytes != stats.bytes_sent:
        problems.append(
            f"root spans account for {root_bytes} bytes, "
            f"stats recorded {stats.bytes_sent}"
        )
    h = m.metrics.histogram("net.message_bytes")
    if h.count != stats.messages or int(h.total) != stats.bytes_sent:
        problems.append(
            f"metrics histogram ({h.count} msgs, {h.total} bytes) != "
            f"stats ({stats.messages} msgs, {stats.bytes_sent} bytes)"
        )
    return problems


def _compute_problems(m: Machine) -> list[str]:
    """Per rank, compute intervals are disjoint, and the stats' compute
    seconds fit in ``p * makespan``."""
    ivs = sorted((iv.rank, iv.start, iv.end) for iv in m.timeline.intervals
                 if iv.kind == "compute")
    problems = [f"compute overlaps on rank {a[0]}: {a[1:]} and {b[1:]}"
                for a, b in zip(ivs, ivs[1:]) if a[0] == b[0] and b[1] < a[2]]
    bound = m.p * m.network.time
    if m.stats.compute_seconds > bound + _eps_for(bound):
        problems.append(f"compute_seconds {m.stats.compute_seconds!r} exceeds "
                        f"p * makespan {bound!r}")
    return problems


def trace_problems(
    untraced: Machine,
    rec: Machine,
    st: Machine,
    labels: Sequence[str] | None = None,
) -> list[str]:
    """Every check of the module docstring on one workload run three
    times: *untraced*, recorded (*rec*, its intervals labelled by
    *labels* from :func:`watch_charges`) and streamed (*st*)."""
    problems: list[str] = []
    for m, mode in ((rec, "record"), (st, "stream")):
        a, b = untraced.network.clocks, m.network.clocks
        if not np.array_equal(a, b):
            i = int(np.argmax(a != b))
            problems.append(
                f"tracing moved a clock: rank {i} untraced={float(a[i])!r} "
                f"{mode}={float(b[i])!r}"
            )
    problems += invariant_problems(rec, labels)
    problems += _compute_problems(rec)
    a, b = _stats_tuple(rec.stats), _stats_tuple(st.stats)
    if a != b:
        problems.append(f"stats: record={a} stream={b}")
    if rec.metrics.render_text() != st.metrics.render_text():
        problems.append("metrics exposition differs between record and stream")
    problems += compare_observers(fold_recorded(rec), st.stream_obs)
    problems += compare_folds(rec.network.path, st.network.path)
    try:
        st.stream_obs.assert_bounded()
    except SkilError as exc:
        problems.append(f"stream accounting unbounded: {exc}")
    return problems + _span_problems(rec)


# ---------------------------------------------------------------------------
# workloads: each draws (p, run(machine), label, coverage) from the rng
# ---------------------------------------------------------------------------
def _pattern(rng: random.Random):
    """A random collective pattern on the raw Network."""
    p = rng.choice([1, 2, 3, 4, 5, 8, 9, 16, 64])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    ops = generate_pattern(rng, p, ring=True, wide=True)
    cov = {"trace.pattern": 1, **{f"trace.net_{op[0]}": 1 for op in ops}}
    if any(op[0] == "pairs" and op[-1] for op in ops):
        cov["trace.net_sync_shift"] = 1

    def run(machine: Machine) -> None:
        apply_network(machine.network, machine.topology(distr), ops)

    return p, run, f"pattern p={p} distr={distr} ops={[o[0] for o in ops]}", cov


def _skeleton(rng: random.Random):
    """A small array-skeleton program."""
    p = rng.choice([2, 3, 4])
    n = p * rng.randint(2, 5)  # broadcast_part needs equal partitions
    pick = rng.randrange(n)

    def run(machine: Machine) -> None:
        ctx = SkilContext(machine)
        a = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: ix[0] + 1,
                             DISTR_RING, dtype=np.int64)
        b = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: 0,
                             DISTR_RING, dtype=np.int64)
        ctx.array_map(lambda v, ix: v * 3, a, b)
        ctx.array_fold(lambda v, ix: v, PLUS, b)
        ctx.array_scan(PLUS, a, b)
        ctx.array_broadcast_part(a, (pick,))

    return p, run, f"skeleton p={p} n={n}", {"trace.skeleton": 1}


def _app(rng: random.Random):
    """Shortest paths or Gaussian elimination."""
    app = rng.choice(["shpaths", "shpaths", "gauss"])
    if app == "shpaths":
        p = rng.choice([4, 4, 16, 16, 64])
        side = int(round(p**0.5))
        n = side * rng.randint(1, 2 if p == 64 else 3)
    else:
        p = rng.choice([4, 4, 16])
        n = p * rng.randint(2, 3)
    seed = rng.randrange(2**31)

    def run(machine: Machine) -> None:
        ctx = SkilContext(machine)
        if app == "shpaths":
            shpaths(ctx, random_distance_matrix(n, density=0.3, seed=seed))
        else:
            gauss_simple(ctx, *random_system(n, seed=seed))

    return p, run, f"{app} p={p} n={n}", {f"trace.app_{app}": 1}


def _engine(rng: random.Random):
    """``divide_and_conquer`` / ``farm`` on the event engine, which books
    each event into the Network as it happens, after an optional offset."""
    from repro.skeletons.functional import skil_fn as sf

    p = rng.choice([4, 8, 16])
    kind = rng.choice(["dc", "farm", "both"])
    n_items = rng.randint(8, 40)
    seed = rng.randrange(2**31)
    offset = rng.random() < 0.5

    def run(machine: Machine) -> None:
        ctx = SkilContext(machine)
        if offset:
            machine.network.compute(1e-4)
        if kind in ("dc", "both"):
            is_trivial = sf(ops=1)(lambda pb: len(pb) <= 2)
            solve = sf(ops=1)(lambda pb: sum(pb))
            split = sf(ops=1)(lambda pb: [pb[: len(pb) // 2], pb[len(pb) // 2:]])
            join = sf(ops=1)(lambda rs: sum(rs))
            ctx.divide_and_conquer(is_trivial, solve, split, join, list(range(n_items)))
        if kind in ("farm", "both"):
            worker = sf(ops=2)(lambda t: t * 2 + seed % 7)
            ctx.farm(worker, list(range(n_items)), size_of=lambda t: 1 + t % 3)

    return p, run, f"engine {kind} p={p} items={n_items}", {f"trace.engine_{kind}": 1}


# ---------------------------------------------------------------------------
# the pillar
# ---------------------------------------------------------------------------
def _trial(workload) -> tuple[str | None, dict[str, int]]:
    p, run, label, cov = workload
    untraced = Machine(p)
    rec = Machine(p, trace_level=2)
    st = Machine(p, trace_level=2, trace_mode="stream")
    labels = watch_charges(rec)
    for machine in (untraced, rec, st):
        run(machine)
    cov[f"trace.p{p}"] = 1
    problems = trace_problems(untraced, rec, st, labels)
    if problems:
        shown = "\n  ".join(problems[:8])
        return f"{len(problems)} problem(s) ({label}):\n  {shown}", cov
    return None, cov


def _family(draw):
    """The trial of the workloads *draw* makes, as a :class:`TrialRunner`
    family (``trace_pattern`` for ``_pattern``)."""

    def family(rng: random.Random) -> tuple[str | None, dict[str, int]]:
        return _trial(draw(rng))

    family.__name__ = f"trace{draw.__name__}"
    return family


#: the mix the former ``dag``, ``stream`` and ``diff`` obs trials ran at
#: one budget
_RUNNER = TrialRunner("trace", tuple(map(_family, (
    _pattern, _skeleton, _app, _pattern, _skeleton, _engine))), budget=120)
run_trace, run_trace_raw = _RUNNER.run, _RUNNER.run_raw
