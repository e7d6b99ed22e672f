"""Tests for the per-rank activity timeline."""

import numpy as np
import pytest

from repro.obs import Interval, Timeline
from repro.obs.timeline import COMPUTE, IDLE, RECV, SEND


class TestTimeline:
    def test_add_and_query(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 0.0, 1.0)
        tl.add(1, SEND, 0.5, 0.7, detail="p2p")
        assert len(tl) == 2
        assert tl.ranks() == [0, 1]
        assert tl.for_rank(1)[0].detail == "p2p"
        assert tl.for_rank(1)[0].duration == pytest.approx(0.2)

    def test_zero_and_negative_intervals_dropped(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 1.0, 1.0)
        tl.add(0, COMPUTE, 2.0, 1.5)
        assert len(tl) == 0

    def test_busy_excludes_idle(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 0.0, 2.0)
        tl.add(0, IDLE, 2.0, 5.0)
        tl.add(0, SEND, 5.0, 6.0)
        assert tl.coverage(0) == pytest.approx(3.0)

    def test_clear(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 0.0, 1.0)
        tl.clear()
        assert len(tl) == 0

    def test_interval_is_immutable(self):
        iv = Interval(0, COMPUTE, 0.0, 1.0)
        with pytest.raises(AttributeError):
            iv.end = 2.0


def _message_wave():
    """Three messages as lanes; message 1 has no idle wait, message 2
    arrives at a receiver that is already past it (no recv either)."""
    srcs = np.array([0, 1, 2])
    dsts = np.array([1, 2, 0])
    send = (srcs, SEND, np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.5, 2.5]))
    idle = (dsts, IDLE, np.array([0.0, 3.0, 9.0]), np.array([1.0, 3.0, 4.0]))
    recv = (dsts, RECV, np.array([1.0, 3.0, 9.0]), np.array([2.0, 3.5, 4.0]))
    return send, idle, recv


class TestWaves:
    def test_lanes_equal_scalar_adds_in_message_order(self):
        """The order contract: per message ``send, [idle], recv`` — not
        grouped by kind — so rank 1 reads ``idle_0, recv_0, send_1``."""
        lanes = _message_wave()
        wave, scalar = Timeline(), Timeline()
        wave.add_lanes(lanes, "tag")
        for i in range(3):
            for ranks, kind, starts, ends in lanes:
                scalar.add(int(ranks[i]), kind, float(starts[i]), float(ends[i]), "tag")
        assert wave.intervals == scalar.intervals
        assert [iv.kind for iv in wave.intervals] == [
            SEND, IDLE, RECV, SEND, RECV, SEND,
        ]
        assert [iv.kind for iv in wave.for_rank(1)] == [IDLE, RECV, SEND]
        assert all(type(iv.rank) is int and type(iv.start) is float
                   for iv in wave.intervals)

    def test_add_many_equals_scalar_adds(self):
        wave, scalar = Timeline(), Timeline()
        starts, ends = np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.5])
        wave.add_many(np.arange(3), COMPUTE, starts, ends, "d")
        for r in range(3):
            scalar.add(r, COMPUTE, float(starts[r]), float(ends[r]), "d")
        assert wave.intervals == scalar.intervals
        assert len(wave) == 2  # the zero-length entry is dropped

    def test_waves_own_their_data(self):
        tl = Timeline()
        ranks, starts = np.arange(3), np.zeros(3)
        ends = np.ones(3)
        tl.add_many(ranks, COMPUTE, starts, ends)
        lanes = _message_wave()
        tl.add_lanes(lanes)
        for arr in [ranks, starts, ends] + [
            lane[col] for lane in lanes for col in (0, 2, 3)
        ]:
            arr += 7
        fresh = Timeline()
        fresh.add_many(np.arange(3), COMPUTE, np.zeros(3), np.ones(3))
        fresh.add_lanes(_message_wave())
        assert tl.intervals == fresh.intervals

    def test_len_counts_kept_intervals(self):
        tl = Timeline()
        live = tl.intervals  # a plain list: an alias sees every wave
        tl.add(0, COMPUTE, 0.0, 1.0)
        tl.add_lanes(_message_wave())
        assert len(tl) == 7
        assert len(live) == 7 and live is tl.intervals

    def test_wave_dropped_whole(self):
        tl = Timeline()
        tl.add_many(np.arange(4), COMPUTE, np.ones(4), np.ones(4))
        tl.add_lanes(((np.arange(2), SEND, np.ones(2), np.zeros(2)),))
        assert len(tl) == 0 and tl.intervals == [] and tl.ranks() == []

    def test_read_append_read_sees_the_new_tail(self):
        tl = Timeline()
        tl.add_many(np.arange(2), COMPUTE, np.zeros(2), np.ones(2))
        head = list(tl.intervals)
        assert tl.ranks() == [0, 1]
        tl.add_many(np.array([5]), SEND, np.array([1.0]), np.array([2.0]))
        tl.add(6, RECV, 2.0, 3.0)
        assert tl.intervals[:2] == head
        assert tl.intervals[2:] == [
            Interval(5, SEND, 1.0, 2.0), Interval(6, RECV, 2.0, 3.0),
        ]
        assert tl.ranks() == [0, 1, 5, 6]  # the grouping followed
        tl.clear()
        assert len(tl) == 0 and tl.intervals == [] and tl.for_rank(5) == []
        # as many intervals again after a clear: the grouping is rebuilt
        tl.add_many(np.array([7, 7, 8, 8]), SEND, np.zeros(4), np.ones(4))
        assert tl.ranks() == [7, 8]

    def test_scalar_adds_keep_their_place_among_waves(self):
        """Scalar adds wait in a list until the next wave or read, then
        take their emission-order place among the waves' blocks."""
        tl = Timeline()
        tl.add(3, COMPUTE, 0.0, 1.0, "a")
        tl.add(2, SEND, 0.5, 1.5)
        tl.add_many(np.array([0, 1]), RECV, np.zeros(2), np.ones(2))
        tl.add(4, IDLE, 1.0, 2.0)
        ranks, starts, ends, which, labels = tl.columns()
        assert ranks.tolist() == [3, 2, 0, 1, 4]
        assert [labels[w] for w in which.tolist()] == [
            (COMPUTE, "a"), (SEND, ""), (RECV, ""), (RECV, ""), (IDLE, ""),
        ]
        assert [iv.rank for iv in tl.intervals] == [3, 2, 0, 1, 4]
        tl.add(5, COMPUTE, 2.0, 3.0)
        assert tl.ranks() == [0, 1, 2, 3, 4, 5]
        assert tl.intervals[-1] == Interval(5, COMPUTE, 2.0, 3.0)
        assert all(type(iv.start) is float for iv in tl.intervals)

    def test_occupancy_answers_in_python_floats(self):
        tl = Timeline()
        tl.add_many(np.arange(2), COMPUTE, np.array([0.0, 1.0]), np.array([2.0, 3.0]))
        tl.add(0, IDLE, 2.0, 4.0)
        tl.add(0, SEND, 3.0, 4.0)
        assert tl.span(0) == (0.0, 4.0) and tl.idle_gaps(0) == [(2.0, 3.0)]
        values = [*tl.span(0), *tl.idle_gaps(0)[0], *tl.busy_segments(1)[0],
                  tl.busy_fraction(0)]
        assert all(type(v) is float for v in values)


def test_both_timelines_speak_one_emission_interface():
    """Record and stream timelines take the same calls, so the Network
    never asks which one it has (what the ``wave_api`` flag was for)."""
    import inspect

    from repro.obs.stream import StreamTimeline

    for name in ("add", "add_many", "add_lanes"):
        assert inspect.signature(getattr(Timeline, name)) == inspect.signature(
            getattr(StreamTimeline, name)
        ), name
