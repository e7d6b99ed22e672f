"""Prometheus text exposition, histogram quantiles, global isolation."""

import math
import random

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    global_metrics,
    isolated_metrics,
)


def _parse_exposition(text: str) -> dict[str, float]:
    """Minimal Prometheus text parser: sample line -> value."""
    samples: dict[str, float] = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestRenderText:
    def test_round_trip_counters_and_gauges(self):
        r = MetricsRegistry()
        r.inc("net.messages", 42)
        r.observe("mem.bytes", 1 << 20)
        samples = _parse_exposition(r.render_text())
        assert samples["net_messages_total"] == 42
        # the only gauges left are a histogram's quantile series
        assert samples['mem_bytes_quantile{quantile="0.5"}'] == float(1 << 20)

    def test_round_trip_histogram(self):
        r = MetricsRegistry()
        values = [1.0, 3.0, 100.0, 5000.0]
        for v in values:
            r.observe("msg.bytes", v)
        samples = _parse_exposition(r.render_text())
        assert samples["msg_bytes_count"] == len(values)
        assert samples["msg_bytes_sum"] == pytest.approx(sum(values))
        assert samples['msg_bytes_bucket{le="+Inf"}'] == len(values)

    def test_buckets_are_cumulative_and_monotone(self):
        r = MetricsRegistry()
        rng = random.Random(7)
        for _ in range(200):
            r.observe("x", rng.uniform(0, 1e6))
        samples = _parse_exposition(r.render_text())
        buckets = [
            (name, v) for name, v in samples.items()
            if name.startswith('x_bucket')
        ]
        counts = [v for _, v in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 200  # +Inf sees everything

    def test_names_are_sanitised(self):
        r = MetricsRegistry()
        r.inc("lang/cache hits:total")
        text = r.render_text()
        assert "lang_cache_hits:total_total" in text

    def test_output_ends_with_newline(self):
        r = MetricsRegistry()
        r.inc("a")
        assert r.render_text().endswith("\n")


class TestQuantiles:
    def test_empty_histogram(self):
        h = Histogram("empty")
        assert h.quantile(0.5) == 0.0

    def test_extremes_are_exact(self):
        h = Histogram("h")
        for v in (3.0, 17.0, 250.0):
            h.observe(v)
        assert h.quantile(0.0) == 3.0
        assert h.quantile(1.0) == 250.0

    def test_quantiles_are_monotone_and_bounded(self):
        h = Histogram("h")
        rng = random.Random(11)
        values = [rng.uniform(1, 1e5) for _ in range(500)]
        for v in values:
            h.observe(v)
        qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert all(min(values) <= q <= max(values) for q in qs)

    def test_median_roughly_right(self):
        h = Histogram("h")
        for v in range(1, 1001):
            h.observe(float(v))
        # bucketed estimate: within the winning power-of-two bucket
        assert 256 <= h.quantile(0.5) <= 1024

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)


class TestIsolation:
    def test_inner_observations_do_not_leak_out(self):
        outer = global_metrics()
        before = outer.snapshot()
        with isolated_metrics() as tmp:
            global_metrics().inc("leak.probe", 7)
            assert tmp is global_metrics()
            assert tmp.counter("leak.probe").value == 7
        assert global_metrics() is outer
        assert outer.snapshot() == before

    def test_outer_values_survive_the_block(self):
        global_metrics().inc("outer.counter", 3)
        with isolated_metrics():
            assert global_metrics().counter("outer.counter").value == 0
        assert global_metrics().counter("outer.counter").value == 3

    def test_restored_even_on_error(self):
        outer = global_metrics()
        with pytest.raises(RuntimeError):
            with isolated_metrics():
                raise RuntimeError("boom")
        assert global_metrics() is outer

    def test_check_trials_do_not_leak_across_each_other(self):
        """Regression test: a full check trial must leave the global
        registry untouched (the leak the ``repro.check`` wrapping
        fixes)."""
        from repro.check.tracecheck import run_trace_raw

        before = global_metrics().snapshot()
        res = run_trace_raw(120, budget=6)  # every family
        assert res.ok and res.trials == 6
        assert global_metrics().snapshot() == before
