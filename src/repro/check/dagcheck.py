"""DAG/critical-path invariant checker: the ``dag`` pillar.

Every traced run carries enough information to build its
happens-before DAG and walk its critical path.  Production never does
either: the critical path is folded forward as the run charges
(:class:`repro.obs.analysis.PathFold`).  This module keeps the DAG as a
data structure (:func:`build_dag`, :class:`HappensBeforeDag`) and the
backward walk over the recording (:func:`critical_path`) as the fold's
reference.  The pillar generates random traced workloads — raw
collective patterns on the analytic network and skeleton programs
through the full language context — and asserts, for any run:

* the happens-before DAG is acyclic: every program edge moves forward
  in one rank's time, every message edge departs no later than it
  arrives;
* the fold's critical path **tiles** ``[0, makespan]`` (consecutive
  steps share their boundary bit-for-bit, the first starts at 0, the
  last ends at the makespan) and its four-way attribution (compute /
  latency / bandwidth / idle) partitions every step;
* the fold's component totals, and per charging skeleton, equal the
  backward walk's within :func:`~repro.obs.analysis._eps_for`;
* ``busy <= makespan <= busy + idle`` over the path;
* per-rank busy fractions stay in ``[0, 1]``.

Each trial runs under :func:`~repro.obs.metrics.isolated_metrics`, so
the process-global registry neither leaks observations into the host
(e.g. a test runner asserting on its own counters) nor between trials.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.check.diffcheck import apply_network, generate_pattern, _obs_workload
from repro.check.report import TrialRunner
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
from repro.obs.metrics import isolated_metrics
from repro.obs.timeline import Interval, Timeline

__all__ = [
    "DagEdge",
    "HappensBeforeDag",
    "build_dag",
    "critical_path",
    "watch_charges",
    "invariant_problems",
    "run_dag",
    "run_dag_raw",
    "trial_dag",
]


# ---------------------------------------------------------------------------
# the DAG itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DagEdge:
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
    for ivs in by_rank.values():
        for u, v in zip(ivs, ivs[1:]):
            edges.append(DagEdge("program", index[id(u)], index[id(v)]))

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
    arriving there (the latest departure, then the lowest sender), else
    from the compute or send interval ending there, else from a clock
    jump — idle, handed over from the latest activity at or before it.
    A transfer's departure follows the sender's setup, or in a
    rendezvous the receiver when it came after that setup.  *labels*
    (:func:`watch_charges`, one per interval) name each step's charging
    skeleton; steps that no interval charged are outside skeletons.
    """
    ivs = timeline.intervals
    name = (lambda i: labels[i]) if labels is not None else (lambda i: OUTSIDE_SPANS)
    ending: dict[tuple[int, float], int] = {}  # compute / send interval
    recv_from: dict[tuple[int, float], float] = {}
    for i, iv in enumerate(ivs):
        if iv.kind in ("compute", "send"):
            ending[(iv.rank, iv.end)] = i
        elif iv.kind == "recv":
            recv_from[(iv.rank, iv.end)] = iv.start
    arriving: dict[tuple[int, float], list[MessageRecord]] = {}
    sent: dict[int, int] = {}  # record -> its send interval
    sync_sent: dict[tuple[int, float], MessageRecord] = {}
    for rec in records:
        if rec.depart < 0.0 or rec.src == rec.dst:
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

    def cross(rec):
        """The transfer into *rec*'s arrival; returns where it came from."""
        i = sent.get(id(rec))
        sk = name(i) if i is not None else OUTSIDE_SPANS
        add(rec.dst, "transfer", rec.depart, rec.time, sk, rec)
        if i is None:  # no send interval (a zero setup): the sender's clock
            return rec.src, rec.depart
        s_iv = ivs[i]
        if s_iv.end == rec.time and rec.depart > s_iv.start + cost.t_setup:
            pre = min(recv_from.get((rec.dst, rec.time), rec.depart), rec.depart)
            add(rec.dst, "send", pre, rec.depart, sk, rec)
            return rec.dst, pre
        add(rec.src, "send", s_iv.start, rec.depart, sk, rec)
        return rec.src, s_iv.start

    rank = min((r for t, r in events if t == makespan), default=-1)
    t = makespan
    for _ in range(2 * (len(ivs) + len(records)) + 8):
        if t <= 0.0:
            break
        recs = arriving.get((rank, t))
        if recs:
            rank, t = cross(max(recs, key=lambda r: (r.depart, -r.src)))
            continue
        i = ending.get((rank, t))
        if i is not None:
            if (rank, t) in sync_sent:
                rank, t = cross(sync_sent[(rank, t)])
                continue
            add(rank, ivs[i].kind, ivs[i].start, t, name(i))
            t = ivs[i].start
            continue
        # a clock jump: the latest activity at or before t, lowest rank
        j = bisect.bisect_right(events, (t, math.inf)) - 1
        while j > 0 and events[j - 1][0] == events[j][0]:
            j -= 1
        e, q = events[j] if j >= 0 else (0.0, rank)
        add(rank, "gap", e, t, steps[-1].skeleton if steps else OUTSIDE_SPANS)
        rank, t = q, e
    else:
        raise AnalysisError(f"the walk did not reach 0 (stuck at {t} on {rank})")
    steps.reverse()
    return CriticalPath(steps, makespan)


def watch_charges(machine: Machine) -> list[str]:
    """From now on, label every interval *machine*'s timeline receives
    with the skeleton charging it — the innermost skeleton span open at
    emission; returns the list, one label per interval."""
    tl, tracer = machine.timeline, machine.tracer
    labels: list[str] = []

    def labelled(emit):
        def call(*args, **kw):
            emit(*args, **kw)
            skeleton = tracer.innermost_skeleton() or OUTSIDE_SPANS
            labels.extend([skeleton] * (len(tl.intervals) - len(labels)))
        return call

    for method in ("add", "add_many", "add_lanes"):
        setattr(tl, method, labelled(getattr(tl, method)))
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
# the pillar
# ---------------------------------------------------------------------------
def _pattern_machine(rng: random.Random) -> tuple[Machine, list[str], str]:
    """A random collective pattern run on a traced machine."""
    p = rng.choice([1, 2, 3, 4, 5, 8, 9, 16])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    machine = Machine(p, trace_level=2)
    labels = watch_charges(machine)
    topo = machine.topology(distr)
    ops = generate_pattern(rng, p, ring=True)
    apply_network(machine.network, topo, ops)
    return machine, labels, f"pattern p={p} distr={distr} ops={[o[0] for o in ops]}"


def _skeleton_machine(rng: random.Random) -> tuple[Machine, list[str], str]:
    """A random skeleton workload on a traced machine."""
    seed = rng.randrange(2**31)
    watched: list[list[str]] = []
    _, machine = _obs_workload(
        seed, trace_level=2, watch=lambda m: watched.append(watch_charges(m))
    )
    return machine, watched[0], f"skeleton workload seed={seed}"


def trial_dag(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    skeleton = rng.random() < 0.5
    with isolated_metrics():
        machine, labels, label = (
            _skeleton_machine(rng) if skeleton else _pattern_machine(rng)
        )
        problems = invariant_problems(machine, labels)
    cov = {"dag.skeleton" if skeleton else "dag.pattern": 1}
    if problems:
        shown = "\n  ".join(problems[:8])
        return f"{len(problems)} invariant violation(s) ({label}):\n  {shown}", cov
    return None, cov


_RUNNER = TrialRunner("dag", (trial_dag,), budget=60)
run_dag, run_dag_raw = _RUNNER.run, _RUNNER.run_raw
