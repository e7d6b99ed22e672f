"""Tests for the Chrome trace exporter and the flamegraph rollup."""

import json

import pytest

from repro.errors import SkilError
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.obs import (
    flame_rollup,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import encode_complete
from repro.obs.timeline import COMPUTE, SEND
from repro.skeletons import PLUS, SkilContext, skil_fn

# signature-agnostic kernel: works for create (grids, env) and map/fold
# conversion (block, grids, env) vectorized call shapes alike
IDF = skil_fn(ops=1, vectorized=lambda *a: a[-2][0])(lambda *a: a[-1][0])


def exported(machine, tmp_path) -> dict:
    """The machine's Chrome trace, written and read back."""
    path = tmp_path / "trace.json"
    write_chrome_trace(path, machine)
    return json.loads(path.read_text())


def traced_run(p=4):
    ctx = SkilContext(Machine(p, trace_level=2), SKIL)
    a = ctx.array_create(1, (32,), (0,), (-1,), IDF)
    b = ctx.array_create(1, (32,), (0,), (-1,), IDF)
    ctx.array_map(IDF, a, b)
    ctx.array_fold(IDF, PLUS, a)
    return ctx.machine


class TestChromeTraceEvents:
    def test_span_events_on_tid_zero(self, tmp_path):
        m = traced_run()
        events = exported(m, tmp_path)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X" and e["tid"] == 0]
        assert {e["name"] for e in spans} >= {
            "array_create", "array_map", "array_fold"
        }
        fold = [e for e in spans if e["name"] == "array_fold"][0]
        assert fold["args"]["compute_s"] > 0
        assert fold["args"]["messages"] > 0

    def test_one_track_per_rank(self, tmp_path):
        m = traced_run(p=4)
        events = exported(m, tmp_path)["traceEvents"]
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

    def test_times_are_microseconds(self, tmp_path):
        m = Machine(1, trace_level=2)
        m.timeline.add(0, COMPUTE, 0.5, 1.5)
        [ev] = [e for e in exported(m, tmp_path)["traceEvents"]
                if e["ph"] == "X" and e["cat"] == COMPUTE]
        assert ev["ts"] == pytest.approx(5e5)
        assert ev["dur"] == pytest.approx(1e6)

    def test_validates_clean(self, tmp_path):
        m = traced_run()
        assert validate_chrome_trace(exported(m, tmp_path)) == []


class TestWriteChromeTrace:
    def test_round_trip(self, tmp_path):
        m = traced_run()
        loaded = exported(m, tmp_path)
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["p"] == m.p
        assert loaded["otherData"]["makespan_s"] == pytest.approx(m.time)

    def test_file_is_the_encoded_object_byte_for_byte(self, tmp_path):
        # written in batches and partly from columns, the same bytes
        # json.dumps gives the whole document
        m = traced_run()
        obj = exported(m, tmp_path)
        assert (tmp_path / "trace.json").read_bytes() == json.dumps(obj).encode()


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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), True, None])
    def test_rejects_non_finite_and_non_numeric_times(self, bad):
        for key in ("ts", "dur"):
            ev = {"ph": "X", "name": "a", "cat": "compute", "pid": 1, "tid": 2,
                  "ts": 0.0, "dur": 1.0}
            ev[key] = bad
            problems = validate_chrome_trace({"traceEvents": [ev]})
            assert len(problems) == 1 and repr(key) in problems[0]
            assert "'compute' on tid 2" in problems[0]

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


class TestStrictJson:
    """Strict JSON has no ``Infinity`` / ``NaN``: a non-finite or
    negative time is refused, naming the event's rank and kind, and
    nothing is written."""

    @pytest.mark.parametrize("start, end", [
        (0.0, float("inf")), (float("nan"), 1.0), (-1.0, 1.0), (1.0, 0.5)])
    def test_encoder_refuses_non_finite_or_negative(self, start, end):
        with pytest.raises(SkilError, match="rank 3 \\(send\\)"):
            encode_complete([2, 3], [0.0, start], [1.0, end],
                            [("a", COMPUTE), ("b", SEND)], [0, 1])
        with pytest.raises(SkilError, match="rank 3 \\(send\\)"):  # a wave of one
            encode_complete([3], [start], [end], [("b", SEND)], jsonl=True)

    def test_export_refuses_infinite_end_added(self, tmp_path):
        m = Machine(2, trace_level=2)
        m.timeline.add(1, COMPUTE, 0.0, float("inf"))
        with pytest.raises(SkilError, match="rank 1 \\(compute\\)"):
            write_chrome_trace(tmp_path / "t.json", m)
        assert not (tmp_path / "t.json").exists()

    def test_spill_refuses_non_finite_interval(self, tmp_path):
        from repro.obs.stream import StreamConfig

        path = tmp_path / "spill.jsonl"
        with Machine(2, trace_level=2, trace_mode="stream",
                     stream=StreamConfig(spill_path=str(path))) as m:
            m.network.timeline.add(0, SEND, 0.5, 1.0)
            with pytest.raises(SkilError, match="rank 1 \\(send\\)"):
                m.network.timeline.add_many([0, 1], SEND, [0.0, 0.0],
                                            [1.0, float("inf")])
        assert [json.loads(ln)["cat"] for ln in path.read_text().splitlines()] == [SEND]

    def test_spill_refuses_non_finite_message(self, tmp_path):
        from repro.obs.stream import StreamConfig

        path = tmp_path / "spill.jsonl"
        with Machine(2, trace_level=2, trace_mode="stream",
                     stream=StreamConfig(spill_path=str(path))) as m:
            with pytest.raises(SkilError, match="rank 1 \\(message\\)"):
                m.stream_obs.on_message(float("nan"), 0, 1, 8, 1, "t", -1.0)


class TestStreamModeExport:
    def test_stream_machine_is_refused_naming_the_spill(self, tmp_path):
        m = Machine(4, trace_level=2, trace_mode="stream")
        with pytest.raises(SkilError, match=r"StreamConfig\(spill_path=\.\.\.\)"):
            write_chrome_trace(tmp_path / "t.json", m)
        assert not (tmp_path / "t.json").exists()
