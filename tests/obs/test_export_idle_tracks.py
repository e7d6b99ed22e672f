"""Idle-wait tracks in the Chrome export and validate-on-write."""

import json

import numpy as np
import pytest

from repro.errors import SkilError
from repro.machine.machine import DISTR_RING, Machine
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


def _traced_run(p: int = 4, n: int = 12) -> Machine:
    machine = Machine(p, trace_level=2)
    ctx = SkilContext(machine)
    a = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: ix[0] + 1,
                         DISTR_RING, dtype=np.int64)
    b = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: 0,
                         DISTR_RING, dtype=np.int64)
    ctx.array_map(lambda v, ix: v * 2, a, b)
    ctx.array_fold(lambda v, ix: v, PLUS, b)
    return machine


class TestIdleWaitTracks:
    def test_idle_tracks_present_and_named(self, tmp_path):
        m = _traced_run()
        events = _export(tmp_path / "t.json", m)["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(n.endswith("idle-wait") for n in names)
        idle_events = [e for e in events if e.get("cat") == "idle-wait"]
        assert idle_events, "a communicating run has idle gaps"
        for e in idle_events:
            assert e["dur"] > 0
            assert e["args"]["seconds"] > 0

    def test_idle_track_durations_match_timeline_gaps(self, tmp_path):
        m = _traced_run()
        events = _export(tmp_path / "t.json", m)["traceEvents"]
        for r in m.timeline.ranks():
            track = [
                e for e in events
                if e.get("cat") == "idle-wait" and e["tid"] == 1001 + r
            ]
            gaps = m.timeline.idle_gaps(r)
            assert len(track) == len(gaps)
            total_us = sum(e["dur"] for e in track)
            total_s = sum(b - a for a, b in gaps)
            assert total_us == pytest.approx(total_s * 1e6, rel=1e-9)

    def test_flame_rollup_reports_idle_wait(self):
        m = _traced_run()
        text = flame_rollup(m.tracer, timeline=m.timeline)
        assert "per-rank idle-wait" in text
        assert "rank 0" in text


class TestValidateOnEveryExportPath:
    def test_write_validates_analytic_trace(self, tmp_path):
        m = _traced_run()
        obj = _export(tmp_path / "t.json", m)
        assert validate_chrome_trace(obj) == []
        assert validate_chrome_trace(
            json.loads((tmp_path / "t.json").read_text())
        ) == []

    def test_write_validates_engine_mode_trace(self, tmp_path):
        """dc/farm embed the discrete-event Engine; its records and
        intervals land on the machine-absolute axis and must export
        cleanly through the same validated path."""
        from repro.skeletons.dc import divide_and_conquer

        machine = Machine(4, trace_level=2)
        ctx = SkilContext(machine)
        xs = [5, 3, 8, 1, 9, 2, 7, 4]

        def join(parts):
            a, b = parts
            return sorted(a + b)

        got = divide_and_conquer(
            ctx,
            is_trivial=lambda v: len(v) <= 1,
            solve=lambda v: v,
            split=lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
            join=join,
            problem=xs,
        )
        assert got == sorted(xs)
        obj = _export(tmp_path / "dc.json", machine)
        assert validate_chrome_trace(obj) == []
        # engine-mode timelines produce per-rank tracks too
        tids = {e["tid"] for e in obj["traceEvents"] if e["ph"] == "X"}
        assert any(0 < t <= machine.p for t in tids)

    def test_malformed_trace_refused_at_write_time(self, tmp_path, monkeypatch):
        m = _traced_run()
        import repro.obs.export as export

        monkeypatch.setattr(
            export, "span_event",
            lambda span: {"ph": "X", "name": "bad"},  # missing keys
        )
        with pytest.raises(SkilError):
            write_chrome_trace(tmp_path / "bad.json", m)
        assert not (tmp_path / "bad.json").exists()
