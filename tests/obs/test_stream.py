"""Unit tests of the streaming observability primitives
(:mod:`repro.obs.stream`): spill writer, stream timeline, accounting
bounds, progress reporter, and the ``__slots__`` memory satellites."""

import json

import numpy as np
import pytest

from repro.errors import SkilError
from repro.machine.machine import Machine
from repro.machine.trace import MessageRecord
from repro.obs.stream import (
    JsonlSpillWriter,
    ProgressReporter,
    StreamConfig,
    StreamObserver,
    StreamTimeline,
)
from repro.obs.timeline import Interval, Timeline


class TestSpillWriter:
    def test_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with JsonlSpillWriter(str(path)) as w:
            for i in range(5):
                w.write_event({"ph": "X", "ts": i})
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(ln)["ph"] == "X" for ln in lines)
        assert w.events_written == 5

    def test_rotation_bounds_each_file(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        with JsonlSpillWriter(str(path), max_bytes=200, keep=2) as w:
            for i in range(100):
                w.write_event({"ph": "X", "ts": i, "pad": "x" * 20})
        assert w.rotations > 0
        assert path.stat().st_size <= 200 + 64  # one line of slack
        assert (tmp_path / "spill.jsonl.1").exists()
        assert (tmp_path / "spill.jsonl.2").exists()
        # keep=2 means nothing older than .2 survives
        assert not (tmp_path / "spill.jsonl.3").exists()


class TestStreamTimeline:
    def test_scalar_add_matches_record_timeline(self):
        st = StreamTimeline(4)
        tl = Timeline()
        ivs = [(0, "compute", 0.0, 1.5), (1, "send", 0.5, 0.75),
               (0, "idle", 1.5, 1.5),  # zero length: dropped by both
               (2, "recv", 1.0, 0.25)]  # negative: dropped by both
        for r, k, s, e in ivs:
            st.add(r, k, s, e)
            tl.add(r, k, s, e)
        assert st.intervals_seen == len(tl)
        assert st.seconds["compute"][0] == 1.5
        assert st.seconds["send"][1] == 0.25
        assert not st.seconds["idle"].any() and not st.seconds["recv"].any()

    def test_add_many_matches_scalar_loop_bitwise(self):
        rng = np.random.default_rng(5)
        p, k = 8, 200
        ranks = rng.integers(0, p, k)
        starts = rng.uniform(0, 1, k)
        ends = starts + rng.uniform(-0.1, 0.3, k)  # some dropped
        scalar, wave = StreamTimeline(p), StreamTimeline(p)
        for r, s, e in zip(ranks, starts, ends):
            scalar.add(int(r), "send", float(s), float(e))
        wave.add_many(ranks, "send", starts, ends)
        assert np.array_equal(scalar.seconds["send"], wave.seconds["send"])
        assert scalar.intervals_seen == wave.intervals_seen

    def test_busy_excludes_idle(self):
        st = StreamTimeline(2)
        st.add(0, "compute", 0.0, 1.0)
        st.add(0, "idle", 1.0, 3.0)
        assert st.busy_seconds_by_rank()[0] == 1.0
        assert st.seconds["idle"][0] == 2.0


class TestScalarMessageSpill:
    @pytest.mark.parametrize("sync", [False, True])
    def test_scalar_p2p_spills_what_record_mode_keeps(self, tmp_path, sync):
        """One ``Network.p2p`` hands the timeline 0-d lanes (send, idle,
        recv); the spill writes them as the record timeline keeps them."""
        from repro.machine.topology import DefaultMapping

        path = tmp_path / "spill.jsonl"
        with Machine(4, trace_level=2, trace_mode="stream",
                     stream=StreamConfig(spill_path=str(path))) as streamed:
            streamed.network.p2p(0, 1, 8, DefaultMapping(streamed.mesh), sync=sync)
        recorded = Machine(4, trace_level=2, trace_mode="record")
        recorded.network.p2p(0, 1, 8, DefaultMapping(recorded.mesh), sync=sync)
        ivs = recorded.timeline.intervals
        assert [iv.kind for iv in ivs] == ["send", "idle", "recv"]
        lines = [ln for ln in path.read_text().splitlines()
                 if json.loads(ln)["cat"] in ("send", "idle", "recv")]
        assert lines == [json.dumps(
            {"ph": "X", "name": iv.detail or iv.kind, "cat": iv.kind, "pid": 1,
             "tid": iv.rank + 1, "ts": iv.start * 1e6,
             "dur": (iv.end - iv.start) * 1e6, "args": {}},
            separators=(",", ":")) for iv in ivs]


class TestAccounting:
    def test_bounded_by_construction(self):
        obs = StreamObserver(16)
        for i in range(5000):
            obs.on_message(float(i), i % 16, (i + 3) % 16, 64, 2, "t", float(i))
        acc = obs.accounting()
        assert acc["messages_seen"] == 5000
        assert acc["spans_retained"] == 0
        assert acc["per_rank_cells"] == 4 * 16
        obs.assert_bounded()  # must not raise

    def test_assert_bounded_raises_on_violation(self):
        """Any closed span something still holds is a leak."""
        m = Machine(4, trace_level=2, trace_mode="stream")
        kept = m.tracer.begin("array_map")
        m.network.compute(1e-3)
        m.tracer.end(kept)
        assert m.stream_obs.accounting()["spans_retained"] == 1
        with pytest.raises(SkilError, match="closed span"):
            m.stream_obs.assert_bounded()
        del kept
        m.stream_obs.assert_bounded()

    def test_assert_bounded_raises_on_per_rank_growth(self):
        obs = StreamObserver(4)
        for k in range(40):  # far more activity kinds than exist
            obs.timeline.add(0, f"kind{k}", 0.0, 1.0)
        with pytest.raises(SkilError, match="per-rank state"):
            obs.assert_bounded()

    def test_trace_memory_stays_o_p_at_scale(self):
        """Acceptance-criterion shape at small scale: message volume
        grows, retained state does not."""
        obs = StreamObserver(64)
        baseline = obs.accounting()["per_rank_cells"]
        k = 20000
        obs.on_message_wave(
            np.arange(k, dtype=np.float64),
            np.arange(k) % 64,
            (np.arange(k) + 1) % 64,
            np.full(k, 256),
            np.ones(k, dtype=np.int64),
            "big",
            None,
        )
        acc = obs.accounting()
        assert acc["messages_seen"] == k
        assert acc["per_rank_cells"] == baseline
        assert not hasattr(obs, "tag_messages")  # no reader, not kept


class TestProgressReporter:
    def test_note_and_heartbeat_lines(self, capsys):
        import io

        buf = io.StringIO()
        clock_t = [0.0]
        rep = ProgressReporter(out=buf, interval=5.0,
                               clock=lambda: clock_t[0])
        rep.note("step one")
        assert "step one" in buf.getvalue()
        assert rep.maybe_report() is True
        clock_t[0] = 1.0
        assert rep.maybe_report() is False  # throttled
        clock_t[0] = 7.0
        assert rep.maybe_report() is True

    def test_machine_line_has_sim_state(self):
        import io

        m = Machine(4, trace_level=2, trace_mode="stream")
        m.network.compute(1e-3)
        buf = io.StringIO()
        rep = ProgressReporter(m, out=buf)
        line = rep.format_line()
        assert "sim=0.001s" in line and "balanced" in line


class TestSlots:
    """Satellite: per-record memory drop via ``__slots__``."""

    def test_message_record_has_no_dict(self):
        rec = MessageRecord(0.0, 0, 1, 8, 1, "t", 0.0)
        assert not hasattr(rec, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            rec.extra = 1

    def test_interval_has_no_dict(self):
        iv = Interval(0, "compute", 0.0, 1.0, "")
        assert not hasattr(iv, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            iv.extra = 1
