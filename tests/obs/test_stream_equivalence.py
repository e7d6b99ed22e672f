"""Record-vs-stream equivalence: the bit-identity contract of
``Machine(trace_mode="stream")`` on real workloads, plus the shared
accumulator contracts (``TraceStats.merge``, reset, metrics isolation)
under the sink path."""

import numpy as np
import pytest

from repro.check.tracecheck import compare_folds, compare_observers, fold_recorded, observed
from repro.errors import SkilError
from repro.machine.machine import Machine
from repro.machine.trace import TraceStats
from repro.obs.metrics import global_metrics, isolated_metrics
from repro.obs.stream import StreamConfig
from repro.skeletons import PLUS, SkilContext


def _run_shpaths(machine, n=8, seed=3):
    from repro.apps.shortest_paths import random_distance_matrix, shpaths

    shpaths(SkilContext(machine), random_distance_matrix(n, seed=seed))


def _pair(p=4, **cfg):
    config = StreamConfig(**cfg) if cfg else None
    m_rec = Machine(p, trace_level=2)
    m_str = Machine(p, trace_level=2, trace_mode="stream", stream=config)
    return m_rec, m_str


class TestAppEquivalence:
    def test_shpaths_aggregates_bit_identical(self):
        m_rec, m_str = _pair(4)
        with isolated_metrics():
            _run_shpaths(m_rec)
        with isolated_metrics():
            _run_shpaths(m_str)
        assert np.array_equal(m_rec.network.clocks, m_str.network.clocks)
        assert compare_observers(fold_recorded(m_rec), observed(m_str)) == []

    def test_metrics_registries_identical(self):
        m_rec, m_str = _pair(4)
        with isolated_metrics():
            _run_shpaths(m_rec)
        with isolated_metrics():
            _run_shpaths(m_str)
        assert m_rec.metrics.render_text() == m_str.metrics.render_text()

    def test_engine_workload_bit_identical(self):
        from repro.skeletons.functional import skil_fn as sf

        def run(machine):
            ctx = SkilContext(machine)
            is_trivial = sf(ops=1)(lambda pb: len(pb) <= 2)
            solve = sf(ops=1)(lambda pb: sum(pb))
            split = sf(ops=1)(
                lambda pb: [pb[: len(pb) // 2], pb[len(pb) // 2:]]
            )
            join = sf(ops=1)(lambda rs: sum(rs))
            ctx.divide_and_conquer(
                is_trivial, solve, split, join, list(range(24))
            )
            ctx.farm(sf(ops=2)(lambda t: t + 1), list(range(9)),
                     size_of=lambda t: 1)

        m_rec, m_str = _pair(4)
        with isolated_metrics():
            run(m_rec)
        with isolated_metrics():
            run(m_str)
        assert compare_observers(fold_recorded(m_rec), observed(m_str)) == []


class TestStreamMachineContracts:
    def test_stream_machine_shape(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        assert m.timeline is None  # nothing recorded
        assert m.stream_obs is not None
        assert m.stream_obs.path is m.network.path is not None
        assert m.network.timeline is None  # no interval is kept
        assert m.stream_obs._log is m.network.log is not None
        assert not m.stats.keep_records

    def test_record_machine_has_no_stream(self):
        m = Machine(4, trace_level=2)
        assert m.stream_obs is None
        assert m.network.timeline is m.timeline

    def test_invalid_mode_rejected(self):
        with pytest.raises(SkilError):
            Machine(4, trace_mode="bogus")

    def test_close_closes_the_spill(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with Machine(4, trace_level=2, trace_mode="stream",
                     stream=StreamConfig(spill_path=str(path))) as m:
            m.network.broadcast(0, 64, m.topology())
        spill = m.stream_obs.spill
        assert spill.events_written == 12
        assert spill._fh.closed
        assert len(path.read_text().splitlines()) == spill.events_written
        m.close()  # a second close is a no-op
        # used again after close(), the machine appends to the same file
        with m:
            m.network.broadcast(0, 64, m.topology())
        assert spill.events_written == 24 and spill._fh.closed
        assert len(path.read_text().splitlines()) == 24

    def test_spill_and_export_build_the_same_events(self, tmp_path):
        """One Chrome-event builder: the spans and, per rank track, the
        intervals a stream spills are the ones a recording exports (as
        sets: the spill writes a wave lane by lane, the export message
        by message)."""
        import json

        from repro.obs import write_chrome_trace

        path = tmp_path / "spill.jsonl"
        m_rec, m_str = _pair(4, spill_path=str(path))
        with isolated_metrics():
            _run_shpaths(m_rec)
        with isolated_metrics():
            _run_shpaths(m_str)
        m_str.close()

        def tracks(events):
            out: dict = {}
            for ev in events:  # the simulated tracks (a threads run adds pid 2)
                if (ev["ph"] == "X" and ev["pid"] == 1 and ev["cat"] != "message"
                        and ev["tid"] < 1000):
                    out.setdefault(ev["tid"], []).append(json.dumps(ev))
            return {tid: sorted(evs) for tid, evs in out.items()}

        write_chrome_trace(tmp_path / "trace.json", m_rec)
        exported = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        spilled = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert tracks(spilled) == tracks(exported)
        assert len(tracks(exported)) == 5  # the span track and four ranks

    @pytest.mark.parametrize("owner, name", [
        ("repro.obs", "StreamSpanTracer"),
        ("repro.obs.stream", "StreamSpanTracer"),
        ("repro.obs.stream", "_span_event"),
        ("repro.obs.stream", "_interval_event"),
        # one encoder: no per-event dict on the spill or export path
        ("repro.obs", "chrome_trace_events"),
        ("repro.obs.export", "chrome_trace_events"),
        ("repro.obs.stream", "_message_event"),
        ("repro.obs.stream.StreamTimeline", "wave_api"),
        # one set of O(p) aggregates: the fold and the span tracer's table
        ("repro.obs", "StreamTimeline"),
        ("repro.obs.stream", "StreamTimeline"),
        ("repro.obs.stream", "KINDS"),
        ("repro.obs.stream.StreamObserver", "on_message"),
        ("repro.obs.span", "fold_skeleton"),
        ("repro.machine.trace.TraceStats", "sink"),
        ("repro.obs.span.SpanTracer", "_issue_index"),
        ("repro.obs.span.SpanTracer", "_register"),
        ("repro.obs.span.SpanTracer", "_finalize"),
        ("repro.machine.machine.Machine", "obs_timeline"),
        # the diet: nothing the stream kept without a reader comes back
        ("repro.obs.stream", "ReservoirSampler"),
        ("repro.obs.stream", "SpanRing"),
        ("repro.obs.stream", "ObsSink"),
        ("repro.obs.stream", "fold_recorded"),
        ("repro.obs.stream.StreamObserver", "reservoir"),
        ("repro.obs.analysis", "build_dag"),
        ("repro.obs.analysis.StreamAnalysis", "snapshot"),
        # one critical path: the fold, in both modes
        ("repro.obs.analysis", "analyze_stream"),
        ("repro.obs.analysis", "StreamAnalysis"),
        ("repro.obs.analysis", "format_stream_analysis"),
        ("repro.obs.analysis", "critical_path"),
        ("repro.obs.analysis", "skeleton_imbalance"),
        ("repro.obs", "critical_path"),
        ("repro.obs.metrics", "Gauge"),
        # one wall instrument: the skeleton span
        ("repro.obs", "WallProfiler"),
        ("repro.obs", "prof"),
        ("repro.eval", "profilecmd"),
        ("repro.machine.machine.Machine", "profiler"),
        ("repro.machine.backend.ExecBackend", "profiler"),
        ("repro.eval.cliopts", "validate_profile_flags"),
    ])
    def test_the_second_emission_path_is_gone(self, owner, name):
        """No shim left behind: one tracer class, one event builder, one
        timeline interface nobody has to ask ``wave_api`` about."""
        import importlib

        obj = None
        for part in owner.split("."):
            obj = importlib.import_module(part) if obj is None else (
                getattr(obj, part, None))
            if obj is None:
                return  # the owner itself is gone
        assert not hasattr(obj, name), f"{owner}.{name}"

    def test_the_wall_profiler_is_gone(self):
        """Wall time lives on the spans: no profiler module, command or
        machine switch is left behind."""
        import importlib.util

        assert importlib.util.find_spec("repro.obs.prof") is None
        assert importlib.util.find_spec("repro.eval.profilecmd") is None
        assert not hasattr(Machine(4, trace_level=1), "profiler")

    def test_machine_profile_argument_is_a_type_error(self):
        with pytest.raises(TypeError):
            Machine(4, profile=True)

    def test_reset_clears_stream_state_in_place(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        obs = m.stream_obs
        with isolated_metrics():
            _run_shpaths(m)
        assert obs.messages_seen > 0
        m.reset()
        assert m.stream_obs is obs  # cleared, not replaced
        assert obs.messages_seen == 0
        assert obs.spans_seen == 0 and not m.tracer.skeletons
        # the observer keeps observing after reset
        with isolated_metrics():
            _run_shpaths(m)
        assert obs.messages_seen > 0

    def test_merge_with_sink_attached(self):
        """merge() is counter-level: it must fold numbers without
        routing them through the sink (they were already streamed on
        the other machine)."""
        m = Machine(4, trace_level=2, trace_mode="stream")
        seen_before = m.stream_obs.messages_seen
        other = TraceStats(keep_records=True)
        other.record_message(1.0, 0, 1, 64, 1, "x", depart=0.5)
        other.compute_seconds += 2.0
        m.stats.merge(other)
        assert m.stats.messages == 1
        assert m.stats.compute_seconds == 2.0
        assert m.stats.records == other.records  # records carried over
        assert m.stream_obs.messages_seen == seen_before  # sink untouched
        assert m.stream_obs._log is m.network.log  # wiring survives merge

    def test_clear_keeps_sink_wiring(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        m.stats.clear()
        m.network.broadcast(0, 64, m.topology())
        assert m.stream_obs.messages_seen == m.stats.messages == 3

    def test_isolated_metrics_leak_free_under_sink(self):
        names_before = set(global_metrics().snapshot())
        with isolated_metrics():
            m = Machine(4, trace_level=2, trace_mode="stream")
            _run_shpaths(m)
        assert set(global_metrics().snapshot()) == names_before


class TestAnalyzeStream:
    def test_stream_machine_gets_the_one_analysis(self):
        """Stream mode answers with the record-mode critical path: the
        same fold, bit for bit, minus the steps."""
        from repro.obs.analysis import analyze_machine, format_analysis

        m_rec, m_str = _pair(4)
        for m in (m_rec, m_str):
            with isolated_metrics():
                _run_shpaths(m)
        assert compare_folds(m_rec.network.path, m_str.network.path) == []
        rec, got = analyze_machine(m_rec), analyze_machine(m_str)
        assert got.path.steps == [] and rec.path.steps
        for field in ("makespan", "components", "by_skeleton",
                      "blocking_edges", "loads", "imbalance"):
            assert getattr(got, field) == getattr(rec, field), field
        text = format_analysis(got)
        assert "critical path over 0 step(s)" in text and "stream mode" in text
        assert "top blocking edges" in text and "straggler" in text
        acc = m_str.stream_obs.assert_bounded()
        assert acc["per_rank_cells"] >= m_str.network.path.cells() > 0

    def test_fold_cells_stay_per_rank(self):
        """The fold's state grows with skeleton names, never with the
        run: a second run on the same stream machine keeps its cells."""
        m = Machine(4, trace_level=2, trace_mode="stream")
        with isolated_metrics():
            _run_shpaths(m)
        cells = m.stream_obs.accounting()["per_rank_cells"]
        with isolated_metrics():
            _run_shpaths(m)
        assert m.stream_obs.accounting()["per_rank_cells"] == cells
        m.stream_obs.assert_bounded()

    def test_fold_refuses_stream_machine(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        with pytest.raises(SkilError):
            fold_recorded(m)


class TestStreamTraceReport:
    def test_stream_rows_are_exclusive(self):
        """One per-skeleton table: stream mode fills online what record
        mode folds from its spans, nested skeletons counted once."""
        from repro.eval.trace_report import (
            format_skeleton_breakdowns,
            skeleton_breakdowns,
        )

        def run(machine):
            with isolated_metrics():
                _run_shpaths(machine)
                outer = machine.tracer.begin("outer")
                machine.network.compute(1e-3)
                inner = machine.tracer.begin("inner")
                machine.network.compute(2e-3)
                machine.tracer.end(inner)
                machine.tracer.end(outer)
            return skeleton_breakdowns(machine)

        m_rec, m_str = _pair(4)
        rec, rows = run(m_rec), run(m_str)
        assert rows and rows[0].busy_total >= rows[-1].busy_total

        def sim_columns(rows):
            # the last two columns (19 characters) are wall readings
            return [ln[:-19] for ln in format_skeleton_breakdowns(rows).splitlines()]

        assert sim_columns(rows) == sim_columns(rec)
        by_name = {r.name: r for r in rows}
        assert by_name["outer"].compute_seconds == pytest.approx(4e-3)
        assert by_name["inner"].compute_seconds == pytest.approx(8e-3)
        assert sum(r.messages for r in rows) == m_str.stats.messages
        text = format_skeleton_breakdowns(rows)
        assert "inclusive" not in text and "p99" in text
