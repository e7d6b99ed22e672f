"""DAG/critical-path invariant checker: the ``dag`` pillar.

Every traced run carries enough information to build its
happens-before DAG and extract the critical path
(:mod:`repro.obs.analysis`).  The analysis walks the happens-before
order without materialising it; the DAG as a data structure
(:func:`build_dag`, :class:`HappensBeforeDag`) lives here, because
validating it is the only thing ever done with it.  This pillar
generates random traced
workloads — both raw collective patterns on the analytic network and
skeleton programs through the full language context — and asserts the
structural invariants that must hold for *any* run:

* the happens-before DAG is acyclic: every program edge moves forward
  in one rank's time, every message edge departs no later than it
  arrives;
* the critical path **tiles** ``[0, makespan]``: consecutive steps
  share their boundary bit-for-bit, the first starts at 0, the last
  ends at the makespan;
* the four-way attribution (compute / latency / bandwidth / idle)
  partitions every step and therefore sums to the makespan;
* the busy part of the path cannot exceed the makespan and the
  makespan cannot exceed the path's busy+idle total (the two-sided
  bound ``busy <= makespan <= busy + idle``);
* per-rank busy fractions stay in ``[0, 1]``.

Each trial runs under :func:`~repro.obs.metrics.isolated_metrics`, so
the process-global registry neither leaks observations into the host
(e.g. a test runner asserting on its own counters) nor between trials.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Sequence

from repro.check.diffcheck import apply_network, generate_pattern, _obs_workload
from repro.check.report import TrialRunner
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.trace import MessageRecord
from repro.obs.analysis import _eps_for, analyze_machine
from repro.obs.metrics import isolated_metrics
from repro.obs.timeline import Interval, Timeline

__all__ = [
    "DagEdge",
    "HappensBeforeDag",
    "build_dag",
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
# invariants of one traced run
# ---------------------------------------------------------------------------
def invariant_problems(machine: Machine) -> list[str]:
    """All structural invariants of one traced run's analysis.

    * the happens-before DAG is acyclic (every edge forward in time);
    * the critical path tiles ``[0, makespan]`` exactly and its
      component attribution sums to the makespan;
    * the path's busy (non-idle) share cannot exceed the makespan, and
      the makespan cannot exceed the total busy+idle over the path
      (they are equal — the two inequalities bound it from both sides);
    * per-rank busy fractions stay within [0, 1].
    """
    problems: list[str] = []
    analysis = analyze_machine(machine)
    dag = build_dag(machine.timeline, machine.stats.records, analysis.makespan)
    problems += [f"dag: {p}" for p in dag.validate()]
    problems += [f"path: {p}" for p in analysis.path.validate()]
    totals = analysis.component_totals()
    eps = _eps_for(analysis.makespan)
    busy = totals["compute"] + totals["latency"] + totals["bandwidth"]
    if busy > analysis.makespan + eps:
        problems.append(
            f"critical-path busy {busy} exceeds makespan {analysis.makespan}"
        )
    if analysis.makespan > busy + totals["idle"] + eps:
        problems.append(
            f"makespan {analysis.makespan} exceeds the path's busy+idle "
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
def _pattern_machine(rng: random.Random) -> tuple[Machine, str]:
    """A random collective pattern run on a traced machine."""
    p = rng.choice([1, 2, 3, 4, 5, 8, 9, 16])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    machine = Machine(p, trace_level=2)
    topo = machine.topology(distr)
    ops = generate_pattern(rng, p, ring=True)
    apply_network(machine.network, topo, ops)
    return machine, f"pattern p={p} distr={distr} ops={[o[0] for o in ops]}"


def _skeleton_machine(rng: random.Random) -> tuple[Machine, str]:
    """A random skeleton workload on a traced machine."""
    seed = rng.randrange(2**31)
    _, machine = _obs_workload(seed, trace_level=2)
    return machine, f"skeleton workload seed={seed}"


def trial_dag(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    skeleton = rng.random() < 0.5
    with isolated_metrics():
        machine, label = (
            _skeleton_machine(rng) if skeleton else _pattern_machine(rng)
        )
        problems = invariant_problems(machine)
    cov = {"dag.skeleton" if skeleton else "dag.pattern": 1}
    if problems:
        shown = "\n  ".join(problems[:8])
        return f"{len(problems)} invariant violation(s) ({label}):\n  {shown}", cov
    return None, cov


_RUNNER = TrialRunner("dag", (trial_dag,), budget=60)
run_dag, run_dag_raw = _RUNNER.run, _RUNNER.run_raw
