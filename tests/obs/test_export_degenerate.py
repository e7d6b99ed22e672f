"""Exporters on empty and degenerate traces (repro.check satellite).

The export path must stay structurally valid with zero spans, a single
rank, an untraced machine, and across ``Machine.reset`` transitions —
the edge cases a dashboard hits on a freshly constructed machine.
"""

import json

import numpy as np

from repro.machine.machine import DISTR_DEFAULT, Machine
from repro.obs.export import (
    flame_rollup,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.skeletons import PLUS, SkilContext


def _export(path, machine) -> dict:
    """Write the machine's Chrome trace to *path* and read it back."""
    write_chrome_trace(path, machine)
    return json.loads(path.read_text())


def _do_some_work(machine):
    ctx = SkilContext(machine)
    a = ctx.array_create(
        1, (8,), (0,), (-1,), lambda ix: ix[0], DISTR_DEFAULT, dtype=np.int64
    )
    ctx.array_fold(lambda v, ix: v, PLUS, a)


class TestZeroSpans:
    def test_traced_machine_with_no_work(self, tmp_path):
        m = Machine(4, trace_level=2)
        obj = _export(tmp_path / "empty.json", m)
        assert validate_chrome_trace(obj) == []
        # only metadata events, no complete ('X') events
        assert all(ev["ph"] == "M" for ev in obj["traceEvents"])
        assert obj["otherData"]["makespan_s"] == 0.0

    def test_untraced_machine_exports_metadata_only(self, tmp_path):
        m = Machine(4)  # trace_level=0: tracer and timeline are None
        obj = _export(tmp_path / "untraced.json", m)
        assert validate_chrome_trace(obj) == []
        assert all(ev["ph"] == "M" for ev in obj["traceEvents"])

    def test_events_from_nothing(self, tmp_path):
        events = _export(tmp_path / "nothing.json", Machine(2))["traceEvents"]
        assert len(events) == 2  # process_name + span-track metadata
        assert validate_chrome_trace({"traceEvents": events}) == []

    def test_flame_rollup_empty(self):
        m = Machine(2, trace_level=1)
        text = flame_rollup(m.tracer)
        assert isinstance(text, str)


class TestSingleRank:
    def test_single_rank_trace_valid(self, tmp_path):
        m = Machine(1, trace_level=2)
        _do_some_work(m)
        obj = _export(tmp_path / "p1.json", m)
        assert validate_chrome_trace(obj) == []
        # spans were recorded even though no messages could flow
        assert any(ev["ph"] == "X" for ev in obj["traceEvents"])
        assert m.stats.messages == 0

    def test_single_rank_timeline_single_track(self):
        m = Machine(1, trace_level=2)
        _do_some_work(m)
        assert m.timeline.ranks() == [0]


class TestResetTransitions:
    def test_reset_clears_spans_and_timeline(self, tmp_path):
        m = Machine(2, trace_level=2)
        _do_some_work(m)
        assert len(m.tracer.closed_spans()) > 0
        m.reset()
        assert m.tracer.closed_spans() == []
        assert len(m.timeline) == 0
        assert m.time == 0.0
        obj = _export(tmp_path / "reset.json", m)
        assert validate_chrome_trace(obj) == []
        assert all(ev["ph"] == "M" for ev in obj["traceEvents"])

    def test_work_after_reset_exports_fresh_trace(self, tmp_path):
        m = Machine(2, trace_level=2)
        _do_some_work(m)
        first = _export(tmp_path / "a.json", m)
        m.reset()
        _do_some_work(m)
        second = _export(tmp_path / "b.json", m)
        assert validate_chrome_trace(second) == []
        n_first = sum(1 for ev in first["traceEvents"] if ev["ph"] == "X")
        n_second = sum(1 for ev in second["traceEvents"] if ev["ph"] == "X")
        assert n_first == n_second  # same workload, fresh accumulators

    def test_reset_keeps_stats_object_identity(self):
        m = Machine(2, trace_level=1)
        stats = m.stats
        _do_some_work(m)
        m.reset()
        assert m.stats is stats
        assert m.stats.messages == 0

    def test_metrics_cleared_on_reset(self):
        m = Machine(2, trace_level=1)
        _do_some_work(m)
        assert m.metrics.snapshot()
        m.reset()
        h = m.metrics.histogram("net.message_bytes")
        assert h.count == 0
