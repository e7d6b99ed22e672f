"""Critical-path analysis: tiling, attribution, stragglers, what-if bounds.

The acceptance contract of the analysis subsystem:

* on real traced applications (gauss, shortest paths) at p in
  {4, 16, 64}, the folded critical path tiles ``[0, makespan]`` exactly
  and the four-way attribution sums to the simulated makespan;
* each step's components partition its duration **bit-exactly**;
* the fold's totals, overall and per charging skeleton, equal the
  backward walk over the recording;
* every on-path step names the skeleton that charged it;
* what-if replays (latency→0, bandwidth→∞, balanced compute) stay
  within the bounds the attribution implies;
* the happens-before DAG validates (every edge forward in time).
"""

import math

import pytest

from repro.check.tracecheck import build_dag, critical_path, invariant_problems
from repro.eval.tracecmd import run_traced
from repro.machine.costmodel import SKIL, T800_PARSYTEC
from repro.machine.machine import Machine
from repro.machine.trace import MessageRecord
from repro.obs.analysis import (
    AnalysisError,
    COMPONENTS,
    analyze_machine,
    format_analysis,
    run_whatif,
)
from repro.obs.timeline import Timeline
from repro.skeletons import SkilContext


def _analyses():
    for app in ("gauss", "shpaths"):
        for p in (4, 16, 64):
            run = run_traced(app, p=p, n=48)
            yield app, p, run, analyze_machine(run.machine)


CASES = [(app, p) for app in ("gauss", "shpaths") for p in (4, 16, 64)]


@pytest.fixture(scope="module")
def analyses():
    """One traced run + analysis per (app, p) cell, computed once."""
    out = {}
    for app, p, run, analysis in _analyses():
        out[(app, p)] = (run, analysis)
    return out


class TestTilingAndAttribution:
    @pytest.mark.parametrize("app,p", CASES)
    def test_path_tiles_the_makespan_exactly(self, analyses, app, p):
        _, a = analyses[(app, p)]
        steps = a.path.steps
        assert steps, "real runs have a non-empty critical path"
        assert steps[0].start == 0.0
        assert steps[-1].end == a.makespan
        for u, v in zip(steps, steps[1:]):
            assert u.end == v.start  # bit-exact boundary sharing

    @pytest.mark.parametrize("app,p", CASES)
    def test_each_step_partitions_its_duration_bit_exactly(
        self, analyses, app, p
    ):
        _, a = analyses[(app, p)]
        for s in a.path.steps:
            assert math.fsum(s.components().values()) == s.duration
            for c in COMPONENTS:
                assert getattr(s, c) >= 0.0

    @pytest.mark.parametrize("app,p", CASES)
    def test_components_sum_to_the_makespan(self, analyses, app, p):
        _, a = analyses[(app, p)]
        totals = a.path.component_totals()
        assert math.fsum(totals.values()) == pytest.approx(
            a.makespan, rel=1e-12, abs=1e-15
        )
        # the two-sided bound: busy <= makespan <= busy + idle
        busy = totals["compute"] + totals["latency"] + totals["bandwidth"]
        eps = 1e-9 * a.makespan
        assert busy <= a.makespan + eps
        assert a.makespan <= busy + totals["idle"] + eps

    @pytest.mark.parametrize("app,p", CASES)
    def test_by_skeleton_is_a_partition_of_the_path(self, analyses, app, p):
        _, a = analyses[(app, p)]
        per_skel = a.path.by_skeleton()
        total = math.fsum(
            v for row in per_skel.values() for v in row.values()
        )
        assert total == pytest.approx(a.makespan, rel=1e-12, abs=1e-15)
        # real application steps land inside real skeleton spans
        named = [k for k in per_skel if not k.startswith("(")]
        assert named, "no step was attributed to any skeleton"

    @pytest.mark.parametrize("app,p", CASES)
    def test_validators_are_clean(self, analyses, app, p):
        run, a = analyses[(app, p)]
        assert a.path.validate() == []
        m = run.machine
        dag = build_dag(m.timeline, m.stats.records, a.makespan)
        assert dag.validate() == []
        assert dag.unmatched_records == 0
        assert invariant_problems(run.machine) == []


class TestWhatIfBounds:
    @pytest.mark.parametrize("app,p", CASES)
    def test_replays_respect_the_dag_bounds(self, analyses, app, p):
        run, a = analyses[(app, p)]

        def replay(cost, balance):
            rerun = run_traced(
                app, p=p, n=48, trace_level=0, cost=cost,
                balance_compute=balance,
            )
            return rerun.machine.time

        for w in run_whatif(a, run.machine.cost, replay):
            # a counterfactual can only help (up to walk slack)
            assert w.makespan <= a.makespan + 1e-9 * a.makespan
            if w.bound is not None:
                assert w.within_bound, (
                    f"{app} p={p} {w.scenario}: delta {w.delta} exceeds "
                    f"attribution bound {w.bound}"
                )

    def test_latency_free_replay_really_moves(self, analyses):
        run, a = analyses[("gauss", 16)]
        cost = run.machine.cost.with_(t_setup=0.0, t_hop=0.0)
        rerun = run_traced("gauss", p=16, n=48, trace_level=0, cost=cost)
        assert rerun.machine.time < a.makespan


class TestStragglerMetrics:
    @pytest.mark.parametrize("app,p", CASES)
    def test_rank_loads_are_sane(self, analyses, app, p):
        run, a = analyses[(app, p)]
        assert len(a.loads) == p
        for load in a.loads:
            assert 0.0 <= load.busy_fraction <= 1.0 + 1e-12
            assert load.busy_seconds + load.idle_seconds == pytest.approx(
                a.makespan, rel=1e-9
            )

    @pytest.mark.parametrize("app,p", CASES)
    def test_skeleton_imbalance_covers_the_skeletons(self, analyses, app, p):
        run, a = analyses[(app, p)]
        names = {im.name for im in a.imbalance}
        spans = {
            s.name for s in run.machine.tracer.closed_spans()
            if s.category == "skeleton"
        }
        assert names == spans
        for im in a.imbalance:
            assert im.calls >= 1
            assert im.max_busy >= im.median_busy >= 0.0
            assert 0 <= im.straggler_rank < p
            if im.median_busy > 0:
                assert im.skew >= 1.0 - 1e-12

    def test_snapshot_is_json_shaped(self, analyses):
        import json

        _, a = analyses[("gauss", 16)]
        snap = a.snapshot()
        # the version is the file's: eval trace writes repro-trace/1
        assert "schema" not in snap and "whatif" not in snap
        assert set(snap["components"]) == set(COMPONENTS)
        json.dumps(snap)  # must be serialisable as-is


class TestEdgesAndErrors:
    def test_blocking_edges_are_transfers_sorted_desc(self, analyses):
        _, a = analyses[("shpaths", 16)]
        edges = a.blocking_edges[:5]
        assert edges, "shpaths communicates; some transfer must be on-path"
        durs = [e.seconds for e in edges]
        assert durs == sorted(durs, reverse=True)
        # the carried top-k are the longest transfer steps of the path
        transfers = sorted(
            (s.duration for s in a.path.steps if s.kind == "transfer"),
            reverse=True,
        )
        assert [e.seconds for e in a.blocking_edges] == transfers[:len(a.blocking_edges)]
        on_path = {(s.record.src, s.record.dst) for s in a.path.steps
                   if s.kind == "transfer"}
        assert all((e.src, e.dst) in on_path for e in edges)

    def test_analysis_requires_trace_level_2(self):
        with pytest.raises(AnalysisError):
            analyze_machine(Machine(4))
        with pytest.raises(AnalysisError):
            analyze_machine(Machine(4, trace_level=1))

    def test_empty_timeline_yields_empty_path(self):
        cp = critical_path(Timeline(), [], T800_PARSYTEC)
        assert cp.steps == [] and cp.makespan == 0.0
        assert cp.validate() == []
        assert cp.component_totals() == dict.fromkeys(COMPONENTS, 0.0)

    def test_single_rank_compute_only(self):
        tl = Timeline()
        tl.add(0, "compute", 0.0, 1.5, "work")
        cp = critical_path(tl, [], T800_PARSYTEC)
        assert cp.validate() == []
        assert cp.component_totals()["compute"] == pytest.approx(1.5)

    def test_transfer_jump_crosses_to_the_sender(self):
        # rank 0 computes then sends; rank 1 idles then receives; the
        # path must cross the message edge back onto rank 0
        cost = T800_PARSYTEC
        tl = Timeline()
        tl.add(0, "compute", 0.0, 1.0, "work")
        tl.add(0, "send", 1.0, 1.0 + cost.t_setup, "msg")
        wire = cost.message_time(100, 1)
        depart = 1.0 + cost.t_setup
        arrival = depart + wire
        tl.add(1, "idle", 0.0, arrival, "wait")
        tl.add(1, "recv", 0.0, arrival, "msg")
        tl.add(1, "compute", arrival, arrival + 2.0, "work")
        rec = MessageRecord(arrival, 0, 1, 100, 1, "msg", depart=depart)
        cp = critical_path(tl, [rec], cost)
        assert cp.validate() == []
        assert cp.makespan == arrival + 2.0
        ranks = [s.rank for s in cp.steps]
        assert 0 in ranks and 1 in ranks
        transfers = [s for s in cp.steps if s.kind == "transfer"]
        assert len(transfers) == 1
        # the receiver's pre-wire waiting is slack, not on the path
        totals = cp.component_totals()
        assert totals["idle"] == pytest.approx(0.0, abs=1e-12)
        assert totals["compute"] == pytest.approx(3.0, abs=1e-12)
        assert totals["latency"] + totals["bandwidth"] == pytest.approx(
            cost.t_setup + wire, abs=1e-12
        )

    def test_dag_catches_backward_message(self):
        tl = Timeline()
        tl.add(0, "compute", 0.0, 1.0)
        tl.add(1, "compute", 0.0, 0.5)
        # arrival before departure: corrupt by construction
        rec = MessageRecord(0.5, 0, 1, 10, 1, "bad", depart=1.0)
        dag = build_dag(tl, [rec], makespan=1.0)
        assert any("departs after" in p for p in dag.validate())

    def test_rank_loads_and_imbalance_on_empty_timeline(self):
        a = analyze_machine(Machine(2, trace_level=2))
        assert [(l.busy_seconds, l.busy_fraction) for l in a.loads] == [(0.0, 0.0)] * 2
        assert a.imbalance == [] and a.blocking_edges == []
        assert a.path.steps == [] and a.components == dict.fromkeys(COMPONENTS, 0.0)

    def test_blocking_edge_rows_split_into_columns(self, analyses):
        """A tag longer than its header never runs into the seconds."""
        _, a = analyses[("shpaths", 4)]
        assert any(len(e.tag) > 14 for e in a.blocking_edges)
        lines = format_analysis(a).splitlines()
        head = lines.index(next(ln for ln in lines if ln.startswith("top blocking")))
        rows = lines[head + 2: head + 2 + len(a.blocking_edges[:8])]
        for row, e in zip(rows, a.blocking_edges):
            cols = row.split(None, 4)
            assert cols[:4] == [f"{e.src}->{e.dst}", str(e.nbytes),
                                f"{e.seconds:.6f}", e.tag], row
            assert cols[4] == e.skeleton


class TestChargingSkeleton:
    @staticmethod
    def _labelled_gauss(p, n):
        """Traced gauss with every interval labelled, as it is emitted,
        with the innermost skeleton open (tracked through begin / end)."""
        from repro.apps.gauss import gauss_simple, random_system

        machine = Machine(p, trace_level=2)
        tracer, tl = machine.tracer, machine.timeline
        stack, labels = [], []
        begin, end = tracer.begin, tracer.end

        def on_begin(name, category="skeleton"):
            stack.append(name if category == "skeleton" else None)
            return begin(name, category)

        def on_end(span=None):
            stack.pop()
            return end(span)

        log = machine.network.log
        append = log.append

        def labelled(entry, size=1):  # every wave the Network logs
            append(entry, size)
            names = [s for s in stack if s is not None]
            labels.extend([names[-1] if names else None]
                          * (len(tl.intervals) - len(labels)))  # drains

        tracer.begin, tracer.end = on_begin, on_end
        log.append = labelled
        gauss_simple(SkilContext(machine, SKIL), *random_system(n, seed=0))
        return machine, labels

    def test_gauss_p64_compute_steps_name_the_charging_skeleton(self):
        machine, labels = self._labelled_gauss(64, 64)
        a = analyze_machine(machine)
        charged = {}
        for iv, name in zip(machine.timeline.intervals, labels):
            if iv.kind == "compute":
                charged.setdefault(iv.rank, []).append((iv.start, iv.end, name))
        computes = [s for s in a.path.steps if s.kind == "compute"]
        assert computes
        for s in computes:
            owners = {name for lo, hi, name in charged[s.rank]
                      if lo <= s.start and s.end <= hi}
            assert owners == {s.skeleton}, (s, owners)

    @pytest.mark.parametrize("app,p", CASES)
    def test_fold_equals_the_backward_walk_per_skeleton(self, app, p):
        from repro.check.tracecheck import watch_charges

        machine = Machine(p, trace_level=2)
        labels = watch_charges(machine)
        ctx = SkilContext(machine, SKIL)
        if app == "gauss":
            from repro.apps.gauss import gauss_simple, random_system

            gauss_simple(ctx, *random_system(-(-48 // p) * p, seed=0))
        else:
            from repro.apps.shortest_paths import random_distance_matrix, shpaths

            side = machine.mesh.rows
            shpaths(ctx, random_distance_matrix(side * 2, density=0.25, seed=0))
        assert invariant_problems(machine, labels) == []
