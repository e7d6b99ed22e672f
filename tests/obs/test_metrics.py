"""Tests for the metrics registry (counters, histograms)."""

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    global_metrics,
)
from repro.obs.metrics import POW2_BUCKETS


class TestCounter:
    def test_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestHistogram:
    def test_inclusive_upper_bounds(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        h.observe(1.0)  # lands in <=1
        h.observe(1.5)  # lands in <=2
        h.observe(100)  # overflow bucket
        assert h.counts == [1, 1, 0, 1]
        assert h.nonzero_buckets() == [("<=1", 1), ("<=2", 1), (">4", 1)]

    def test_stats(self):
        h = Histogram("h", buckets=(10.0,))
        for v in (2.0, 4.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(4.0)
        assert h.min == 2.0
        assert h.max == 6.0

    def test_empty_mean(self):
        assert Histogram("h").mean == 0.0

    def test_default_pow2_buckets(self):
        h = Histogram("bytes")
        assert h.buckets == POW2_BUCKETS
        h.observe(1024)
        assert ("<=1024", 1) in h.nonzero_buckets()

    def test_observe_many_equals_the_scalar_loop_bitwise(self):
        """Waves of any size, values on a bound, below the first and
        past the last: counts, total, min and max match ``observe`` per
        value, in order — the contract the stream pillar's metrics
        comparison leans on."""
        import random

        rng = random.Random(11)
        bounds = (0.5, 1.0, 2.0, 4.0)
        loop, wave = Histogram("h", buckets=bounds), Histogram("h", buckets=bounds)
        for size in (1, 0, 7, 200, 3):
            values = [
                rng.choice([*bounds, 0.0, 1e-9, 8.0, rng.uniform(0.0, 5.0)])
                for _ in range(size)
            ]
            for v in values:
                loop.observe(v)
            wave.observe_many(values)
            assert wave == loop  # every field, floats by ==
        assert sum(wave.counts) == wave.count == 211


class TestRegistry:
    def test_instruments_created_on_demand_and_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_shortcuts(self):
        reg = MetricsRegistry()
        reg.inc("calls")
        reg.inc("calls", 2)
        reg.observe("sizes", 5.0, buckets=(10.0,))
        assert reg.counter("calls").value == 3
        assert reg.histogram("sizes").count == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.observe("h", 3.0, buckets=(4.0,))
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["buckets"] == {"<=4": 1}

    def test_format_lists_every_instrument(self):
        reg = MetricsRegistry()
        reg.inc("net.messages")
        reg.observe("net.bytes", 100.0)
        text = reg.format()
        assert "net.messages" in text
        assert "net.bytes" in text

    def test_clear(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.clear()
        assert reg.snapshot() == {"counters": {}, "histograms": {}}

    def test_global_registry_is_a_singleton(self):
        assert global_metrics() is global_metrics()
