"""Record-vs-stream equivalence: the bit-identity contract of
``Machine(trace_mode="stream")`` on real workloads, plus the shared
accumulator contracts (``TraceStats.merge``, reset, metrics isolation)
under the sink path."""

import numpy as np
import pytest

from repro.check.streamcheck import compare_observers, fold_recorded
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
        assert compare_observers(fold_recorded(m_rec), m_str.stream_obs) == []

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
        assert compare_observers(fold_recorded(m_rec), m_str.stream_obs) == []


class TestStreamMachineContracts:
    def test_stream_machine_shape(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        assert m.timeline is None  # DAG analysis must refuse
        assert m.stream_obs is not None
        assert m.network.timeline is m.stream_obs.timeline
        assert m.stats.sink is m.stream_obs
        assert not m.stats.keep_records

    def test_record_machine_has_no_stream(self):
        m = Machine(4, trace_level=2)
        assert m.stream_obs is None
        assert m.stats.sink is None
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

        from repro.obs import chrome_trace_events

        path = tmp_path / "spill.jsonl"
        m_rec, m_str = _pair(4, spill_path=str(path))
        with isolated_metrics():
            _run_shpaths(m_rec)
        with isolated_metrics():
            _run_shpaths(m_str)
        m_str.close()

        def tracks(events):
            out: dict = {}
            for ev in events:
                if ev["ph"] == "X" and ev["cat"] != "message" and ev["tid"] < 1000:
                    out.setdefault(ev["tid"], []).append(json.dumps(ev))
            return {tid: sorted(evs) for tid, evs in out.items()}

        exported = json.loads(json.dumps(
            chrome_trace_events(m_rec.tracer, m_rec.timeline)))
        spilled = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert tracks(spilled) == tracks(exported)
        assert len(tracks(exported)) == 5  # the span track and four ranks

    @pytest.mark.parametrize("owner, name", [
        ("repro.obs", "StreamSpanTracer"),
        ("repro.obs.stream", "StreamSpanTracer"),
        ("repro.obs.stream", "_span_event"),
        ("repro.obs.stream", "_interval_event"),
        ("repro.obs.stream.StreamTimeline", "wave_api"),
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
                getattr(obj, part))
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
        assert obs.timeline.intervals_seen == 0
        assert obs.spans_seen == 0 and not obs.skeletons
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
        assert m.stats.sink is m.stream_obs  # wiring survives merge

    def test_clear_keeps_sink_wiring(self):
        m = Machine(4, trace_level=2, trace_mode="stream")
        m.stats.clear()
        assert m.stats.sink is m.stream_obs

    def test_isolated_metrics_leak_free_under_sink(self):
        names_before = set(global_metrics().snapshot())
        with isolated_metrics():
            m = Machine(4, trace_level=2, trace_mode="stream")
            _run_shpaths(m)
        assert set(global_metrics().snapshot()) == names_before


class TestAnalyzeStream:
    def test_analyze_stream_reports(self):
        from repro.obs.analysis import (
            AnalysisError,
            analyze_machine,
            analyze_stream,
            format_stream_analysis,
        )

        m = Machine(4, trace_level=2, trace_mode="stream")
        with isolated_metrics():
            _run_shpaths(m)
        sa = analyze_stream(m)
        assert sa.p == 4 and sa.makespan == m.time
        assert 0 <= sa.straggler_rank < 4
        assert sa.tags and sa.tags[0][2] >= sa.tags[-1][2]
        text = format_stream_analysis(sa)
        assert "streamed aggregates" in text
        assert "straggler" in text
        assert "(0 still alive)" in text
        # mode guards, both directions
        with pytest.raises(AnalysisError):
            analyze_machine(m)
        m_rec = Machine(4, trace_level=2)
        with pytest.raises(AnalysisError):
            analyze_stream(m_rec)

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
