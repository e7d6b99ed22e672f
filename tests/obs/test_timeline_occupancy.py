"""Property tests for the Timeline occupancy helpers.

The load-bearing identity: for any rank,
``sum(idle gap lengths) + coverage == span length`` — gaps are exactly
the complement of the merged busy segments within the rank's own span.
"""

import random

import pytest

from repro.obs.timeline import COMPUTE, IDLE, RECV, SEND, Timeline


def _random_timeline(seed: int, p: int = 4) -> Timeline:
    rng = random.Random(seed)
    tl = Timeline()
    kinds = [COMPUTE, SEND, RECV, IDLE]
    for _ in range(rng.randint(0, 60)):
        rank = rng.randrange(p)
        start = rng.uniform(0.0, 10.0)
        # include zero/negative lengths: Timeline.add must drop them
        end = start + rng.uniform(-0.5, 2.0)
        tl.add(rank, rng.choice(kinds), start, end)
    return tl


class TestGapIdentity:
    @pytest.mark.parametrize("seed", range(30))
    def test_gaps_plus_coverage_equals_span(self, seed):
        tl = _random_timeline(seed)
        for r in range(4):
            sp = tl.span(r)
            gaps = tl.idle_gaps(r)
            cov = tl.coverage(r)
            if sp is None:
                assert gaps == [] and cov == 0.0
                continue
            gap_total = sum(b - a for a, b in gaps)
            assert gap_total + cov == pytest.approx(sp[1] - sp[0], abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_segments_and_gaps_are_disjoint_sorted_and_interleaved(self, seed):
        tl = _random_timeline(seed)
        for r in range(4):
            segs = tl.busy_segments(r)
            gaps = tl.idle_gaps(r)
            for a, b in segs + gaps:
                assert a < b
            for (_, e1), (s2, _) in zip(segs, segs[1:]):
                assert e1 < s2  # merged: strictly disjoint
            # no gap may overlap any busy segment
            for ga, gb in gaps:
                for sa, sb in segs:
                    assert gb <= sa or ga >= sb

    @pytest.mark.parametrize("seed", range(10))
    def test_busy_fraction_bounds(self, seed):
        tl = _random_timeline(seed)
        for r in range(4):
            f = tl.busy_fraction(r)
            assert 0.0 <= f <= 1.0 + 1e-12
            sp = tl.span(r)
            if sp is not None and sp[1] > sp[0]:
                horizon = 2.0 * (sp[1] - sp[0])
                assert tl.busy_fraction(r, horizon) == pytest.approx(f / 2.0)


class TestEdgeCases:
    def test_empty_timeline(self):
        tl = Timeline()
        assert tl.span(0) is None
        assert tl.busy_segments(0) == []
        assert tl.idle_gaps(0) == []
        assert tl.coverage(0) == 0.0
        assert tl.busy_fraction(0) == 0.0

    def test_all_idle_rank_is_one_big_gap(self):
        tl = Timeline()
        tl.add(2, IDLE, 1.0, 4.0)
        assert tl.span(2) == (1.0, 4.0)
        assert tl.busy_segments(2) == []
        assert tl.idle_gaps(2) == [(1.0, 4.0)]
        assert tl.busy_fraction(2) == 0.0

    def test_overlapping_send_recv_merge(self):
        # a synchronous shift charges send and recv over the same window
        tl = Timeline()
        tl.add(0, SEND, 0.0, 2.0)
        tl.add(0, RECV, 1.0, 3.0)
        assert tl.busy_segments(0) == [(0.0, 3.0)]
        assert tl.coverage(0) == 3.0
        assert tl.idle_gaps(0) == []
        assert tl.busy_fraction(0) == 1.0

    def test_hole_between_intervals_is_a_gap(self):
        tl = Timeline()
        tl.add(1, COMPUTE, 0.0, 1.0)
        tl.add(1, COMPUTE, 3.0, 4.0)
        assert tl.idle_gaps(1) == [(1.0, 3.0)]

    def test_zero_horizon(self):
        tl = Timeline()
        tl.add(0, COMPUTE, 1.0, 2.0)
        assert tl.busy_fraction(0, horizon=0.0) == 0.0
