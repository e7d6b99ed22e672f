"""Tests for the Chrome trace exporter and the flamegraph rollup."""

import json

import pytest

from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.obs import (
    Timeline,
    chrome_trace_events,
    flame_rollup,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.timeline import COMPUTE, SEND
from repro.skeletons import PLUS, SkilContext, skil_fn

# signature-agnostic kernel: works for create (grids, env) and map/fold
# conversion (block, grids, env) vectorized call shapes alike
IDF = skil_fn(ops=1, vectorized=lambda *a: a[-2][0])(lambda *a: a[-1][0])


def traced_run(p=4):
    ctx = SkilContext(Machine(p, trace_level=2), SKIL)
    a = ctx.array_create(1, (32,), (0,), (-1,), IDF)
    b = ctx.array_create(1, (32,), (0,), (-1,), IDF)
    ctx.array_map(IDF, a, b)
    ctx.array_fold(IDF, PLUS, a)
    return ctx.machine


class TestChromeTraceEvents:
    def test_span_events_on_tid_zero(self):
        m = traced_run()
        events = chrome_trace_events(m.tracer, m.timeline)
        spans = [e for e in events if e["ph"] == "X" and e["tid"] == 0]
        assert {e["name"] for e in spans} >= {
            "array_create", "array_map", "array_fold"
        }
        fold = [e for e in spans if e["name"] == "array_fold"][0]
        assert fold["args"]["compute_s"] > 0
        assert fold["args"]["messages"] > 0

    def test_one_track_per_rank(self):
        m = traced_run(p=4)
        events = chrome_trace_events(m.tracer, m.timeline)
        rank_tids = {
            e["tid"] for e in events
            if e["ph"] == "X" and 0 < e["tid"] <= 4
        }
        assert rank_tids == {1, 2, 3, 4}
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"rank 0", "rank 1", "rank 2", "rank 3"} <= names

    def test_times_are_microseconds(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 0.5, 1.5)
        [ev] = [e for e in chrome_trace_events(timeline=tl) if e["ph"] == "X"]
        assert ev["ts"] == pytest.approx(5e5)
        assert ev["dur"] == pytest.approx(1e6)

    def test_validates_clean(self):
        m = traced_run()
        obj = {"traceEvents": chrome_trace_events(m.tracer, m.timeline)}
        assert validate_chrome_trace(obj) == []


class TestWriteChromeTrace:
    def test_round_trip(self, tmp_path):
        m = traced_run()
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(path, m)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(obj))
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["p"] == m.p
        assert loaded["otherData"]["makespan_s"] == pytest.approx(m.time)

    def test_file_is_the_encoded_object_byte_for_byte(self, tmp_path):
        # written through the C encoder, the same bytes json.dump wrote
        m = traced_run()
        path = tmp_path / "trace.json"
        obj = write_chrome_trace(path, m)
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(obj, fh)
        assert path.read_bytes() == json.dumps(obj).encode()
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"foo": 1}) != []

    def test_rejects_missing_fields(self):
        bad = {"traceEvents": [{"ph": "X", "name": "a", "pid": 1}]}
        assert any("tid" in p for p in validate_chrome_trace(bad))

    def test_rejects_negative_duration(self):
        bad = {"traceEvents": [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0, "ts": 0, "dur": -5}
        ]}
        assert any("negative" in p for p in validate_chrome_trace(bad))

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"ph": "Q", "name": "a", "pid": 1, "tid": 0}]}
        assert any("phase" in p for p in validate_chrome_trace(bad))

    def test_metadata_needs_args(self):
        bad = {"traceEvents": [{"ph": "M", "name": "a", "pid": 1, "tid": 0}]}
        assert any("args" in p for p in validate_chrome_trace(bad))


class TestFlameRollup:
    def test_nested_paths_indented(self):
        m = traced_run()
        text = flame_rollup(m.tracer)
        assert "array_fold" in text
        assert "  fold:local" in text  # phase indented under its skeleton
        assert "  fold:tree" in text

    def test_min_share_filters(self):
        m = traced_run()
        full = flame_rollup(m.tracer)
        filtered = flame_rollup(m.tracer, min_share=0.99)
        assert len(filtered.splitlines()) < len(full.splitlines())

    def test_empty_tracer(self):
        m = Machine(2, trace_level=1)
        text = flame_rollup(m.tracer)
        assert "span" in text  # header only, no crash
