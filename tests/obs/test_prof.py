"""Wall time on spans: the one in-process wall instrument.

``SpanTracer.begin``/``end`` take one ``time.perf_counter()`` stamp
each, the execution backend reports every dispatch to the tracer, and
the stamps fold into the tracer's own ``wall`` registry.  Unit tests
drive the tracer with a fake clock so the attribution arithmetic is
exact; the integration tests assert the two invariants the stamps rest
on — no reading of the wall clock can reach anything a bitwise check
compares (two different fake clocks, one answer), and a valid
dual-clock Chrome trace — plus the reset lifecycle.
"""

from __future__ import annotations

import itertools
import json
import time

import numpy as np
import pytest

from repro.machine.machine import Machine
from repro.obs.metrics import isolated_metrics
from repro.obs.span import ATTRIBUTION_TOL, _union_length, attribution_ok
from repro.skeletons import PLUS, SkilContext
from repro.skeletons.functional import skil_fn
from repro.skeletons.fuse import SLAB_BYTES

BACKENDS = ["sim", "threads"]

#: two slab budgets per array: every call is big enough to dispatch on
#: two workers (``fuse.plan``)
SHAPE = (2 * SLAB_BYTES // 8,)


class FakeClock:
    """A settable stand-in for ``time.perf_counter``."""

    def __init__(self, monkeypatch, start=0.0):
        self.now = start
        monkeypatch.setattr(time, "perf_counter", self)

    def __call__(self):
        return self.now

    def set(self, t):
        self.now = t


@pytest.fixture
def tracer():
    return Machine(1, trace_level=1).tracer


def _workload(ctx: SkilContext):
    init = skil_fn(ops=1, vectorized=lambda g, e: (g[0] * 2 + 1).astype(float))(
        lambda i: float(i[0] * 2 + 1)
    )
    square = skil_fn(ops=2, vectorized=lambda b, g, e: b * b + g[0])(
        lambda x, i: x * x + i[0]
    )
    ident = skil_fn(ops=0, vectorized=lambda b, g, e: b)(lambda x, i: x)
    a = ctx.array_create(1, SHAPE, (0,), (-1,), init)
    b = ctx.array_create(1, SHAPE, (0,), (-1,), init)
    ctx.array_map(square, a, b)
    total = ctx.array_fold(ident, PLUS, b)
    return b.global_view(), total


# ---------------------------------------------------------------------------
# attribution arithmetic (fake clock, exact)
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_union_length(self):
        assert _union_length([]) == 0.0
        assert _union_length([(0, 1), (2, 3)]) == 2.0
        assert _union_length([(0, 2), (1, 3)]) == 3.0
        assert _union_length([(0, 5), (1, 2)]) == 5.0
        assert _union_length([(3, 1)]) == 0.0  # degenerate, dropped

    def test_partition_sums_exactly(self, tracer, monkeypatch):
        clock = FakeClock(monkeypatch)
        tracer.begin("map")                 # wall_begin = 0
        # posted at 2, done at 7; the first block starts at 3 -> lag 1;
        # the busy union of [3,5] and [4,6] is 3 seconds
        tracer.dispatch(2.0, 7.0, [(1, 3.0, 5.0), (2, 4.0, 6.0)])
        clock.set(10.0)
        tracer.end()                        # wall = 10
        attr = tracer.wall_attribution()
        assert attr["measured_wall_s"] == 10.0
        assert attr["dispatch_s"] == 1.0
        assert attr["kernel_s"] == 3.0
        assert attr["idle_s"] == 6.0
        assert attr["calls"] == 1 and attr["blocks"] == 2
        assert attribution_ok(attr)

    def test_blocks_clipped_to_dispatch_window(self, tracer, monkeypatch):
        clock = FakeClock(monkeypatch)
        tracer.begin("map")
        # the stamp claims busy [0, 9] but the window is [1, 4]: a bad
        # stamp must not over-attribute kernel time
        tracer.dispatch(1.0, 4.0, [(1, 0.0, 9.0)])
        clock.set(5.0)
        tracer.end()
        attr = tracer.wall_attribution()
        assert attr["kernel_s"] == 3.0  # clipped to [1, 4]
        assert attribution_ok(attr)

    def test_no_dispatch_means_kernel_is_the_wall(self, tracer, monkeypatch):
        clock = FakeClock(monkeypatch)
        tracer.begin("fold")
        clock.set(4.0)
        tracer.end()
        attr = tracer.wall_attribution()
        assert attr["kernel_s"] == attr["measured_wall_s"] == 4.0
        assert attr["idle_s"] == 0.0
        assert attribution_ok(attr)

    def test_over_attribution_fails_the_check(self, tracer, monkeypatch):
        clock = FakeClock(monkeypatch)
        tracer.begin("map")
        clock.set(2.0)
        tracer.end()                        # wall = 2 ...
        tracer.dispatch(0.0, 50.0, [(1, 0.0, 50.0)])  # ... window to 50
        attr = tracer.wall_attribution()
        assert attr["kernel_s"] > attr["measured_wall_s"] * (1 + ATTRIBUTION_TOL)
        assert not attribution_ok(attr)

    def test_nested_skeletons_only_depth0_measured(self, tracer, monkeypatch):
        clock = FakeClock(monkeypatch)
        outer = tracer.begin("outer")
        clock.set(1.0)
        inner = tracer.begin("inner")
        clock.set(3.0)
        tracer.end()
        clock.set(6.0)
        tracer.end()
        assert tracer.wall_attribution()["measured_wall_s"] == 6.0  # outer only
        assert (inner.wall_exclusive, outer.wall_exclusive) == (2.0, 4.0)
        assert (inner.depth, outer.depth) == (1, 0)


class TestWorkerStats:
    def test_utilization_and_imbalance(self, tracer):
        tracer.dispatch(0.0, 8.0, [(11, 0.0, 6.0), (22, 0.0, 2.0)])
        attr = tracer.wall_attribution()
        assert attr["window_s"] == 8.0
        assert attr["workers"] == {"0": 6.0, "1": 2.0}
        assert attr["workers"]["0"] / attr["window_s"] == 0.75

    def test_worker_slot_is_stable(self, tracer):
        tracer.dispatch(0.0, 1.0, [(1234, 0.0, 1.0)])
        tracer.dispatch(1.0, 2.0, [(5678, 1.0, 2.0), (1234, 1.0, 2.0)])
        assert [d.blocks for d in tracer.dispatches] == [
            [(0, 0.0, 1.0)],
            [(1, 1.0, 2.0), (0, 1.0, 2.0)],
        ]
        assert tracer.wall_attribution()["workers"] == {"0": 2.0, "1": 1.0}


class TestCountersAndSnapshot:
    def test_snapshot_schema_and_clear(self, tracer):
        tracer.begin("map")
        tracer.dispatch(0.0, 1.0, [(1234, 0.0, 1.0)])
        tracer.end()
        assert tracer.wall_attribution()["calls"] == 1
        json.dumps(tracer.wall_attribution())  # JSON-serializable as-is
        tracer.clear()
        assert tracer.dispatches == []
        assert tracer.wall.snapshot()["counters"] == {}
        tracer.dispatch(0.0, 1.0, [(5678, 0.0, 1.0)])
        assert tracer.dispatches[0].blocks[0][0] == 0  # slot map restarted


# ---------------------------------------------------------------------------
# the zero-perturbation invariant, per backend
# ---------------------------------------------------------------------------
def _two_clocks(monkeypatch, run):
    """*run()* under two different fake ``perf_counter``s (counters, so
    worker threads may stamp too)."""
    out = []
    for start, step in ((0.0, 1.0), (1e6, 3.0)):
        ticks = itertools.count(start, step)
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        out.append(run())
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiling_is_bitwise_invisible(backend, monkeypatch):
    """Clocks, stats, metrics and results identical under two clocks."""
    def run():
        m = Machine(8, trace_level=1, backend=backend, workers=2)
        try:
            with isolated_metrics():
                view, total = _workload(SkilContext(m))
            return (
                view,
                total,
                m.network.clocks.copy(),
                m.metrics.render_text(),
                m.tracer.wall_attribution()["measured_wall_s"],
            )
        finally:
            m.close()

    (view_a, total_a, clocks_a, metrics_a, wall_a), (
        view_b, total_b, clocks_b, metrics_b, wall_b
    ) = _two_clocks(monkeypatch, run)
    assert np.array_equal(view_a, view_b)
    assert total_a == total_b
    assert np.array_equal(clocks_a, clocks_b)
    assert metrics_a == metrics_b and "wall" not in metrics_a
    assert wall_a != wall_b


def _stats(m):
    s = m.stats
    return (s.messages, s.bytes_sent, s.hops_crossed, s.compute_seconds,
            s.comm_seconds, s.idle_seconds, s.skeleton_calls, s.records)


def test_gauss_record_and_stream_invisible_to_two_clocks(monkeypatch):
    """gauss p = 16, record and stream, each under two fake clocks:
    every simulated reading is bitwise equal, only the wall moves."""
    from repro.check.tracecheck import compare_observers, fold_recorded, observed
    from repro.eval.tracecmd import run_traced

    def run():
        runs = []
        for mode in ("record", "stream"):
            with isolated_metrics():
                runs.append(run_traced("gauss", p=16, n=32, trace_mode=mode))
        for r in runs:
            r.machine.close()
        return [r.machine for r in runs]

    (rec_a, str_a), (rec_b, str_b) = _two_clocks(monkeypatch, run)
    for a, b in ((rec_a, rec_b), (str_a, str_b), (rec_a, str_b)):
        assert np.array_equal(a.network.clocks, b.network.clocks)
        assert a.metrics.render_text() == b.metrics.render_text()
    assert _stats(rec_a) == _stats(rec_b)
    assert _stats(str_a) == _stats(str_b)
    assert compare_observers(fold_recorded(rec_a), observed(str_b)) == []
    assert compare_observers(observed(str_a), observed(str_b)) == []
    aggs_a, aggs_b = str_a.tracer.skeletons, str_b.tracer.skeletons
    assert aggs_a == aggs_b  # every simulated field; the wall is not compared
    assert any(
        aggs_a[k].wall_seconds != aggs_b[k].wall_seconds for k in aggs_a
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiler_collects_on_every_backend(backend):
    m = Machine(8, trace_level=1, backend=backend, workers=2)
    try:
        with isolated_metrics():
            _workload(SkilContext(m))
        attr = m.tracer.wall_attribution()
        assert attr["measured_wall_s"] > 0
        assert attribution_ok(attr)
        if backend != "sim":
            # map kernels are env-free, so they really dispatch
            assert m.tracer.dispatches
            assert any(d.blocks for d in m.tracer.dispatches)
            assert attr["blocks"] <= 2 * attr["calls"]
    finally:
        m.close()


# ---------------------------------------------------------------------------
# dual-clock Chrome export
# ---------------------------------------------------------------------------
class TestDualClockExport:
    def test_wall_tracks_ride_along(self, tmp_path):
        from repro.obs.export import (
            _WALL_PID,
            validate_chrome_trace,
            write_chrome_trace,
        )
        from repro.eval.tracecmd import run_traced

        run = run_traced("gauss", p=8, n=16, backend="threads", workers=2)
        out = tmp_path / "dual.json"
        write_chrome_trace(out, run.machine)
        run.machine.close()
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert _WALL_PID in pids          # wall tracks present
        assert pids - {_WALL_PID}         # simulated tracks still present
        wall = [ev for ev in doc["traceEvents"] if ev["pid"] == _WALL_PID]
        assert any(ev.get("ph") == "X" for ev in wall)
        attr = doc["otherData"]["wall"]
        assert {"dispatch_s", "kernel_s", "idle_s", "calls", "blocks"} <= set(attr)
        assert attribution_ok(attr)

    def test_unprofiled_export_unchanged(self, tmp_path):
        """An untraced machine has no stamps: nothing on the wall pid."""
        from repro.obs.export import _WALL_PID, write_chrome_trace

        m = Machine(4, trace_level=0)
        with isolated_metrics():
            _workload(SkilContext(m))
        write_chrome_trace(tmp_path / "plain.json", m)
        doc = json.loads((tmp_path / "plain.json").read_text())
        m.close()
        assert all(ev["pid"] != _WALL_PID for ev in doc["traceEvents"])
        assert "wall" not in doc["otherData"]

    def test_sim_export_is_byte_identical_under_two_clocks(
        self, tmp_path, monkeypatch
    ):
        """On ``sim`` the export is a function of the simulation alone:
        no wall track and no ``otherData["wall"]``, so two runs under
        different clocks write the same bytes."""
        from repro.eval.tracecmd import run_traced
        from repro.obs.export import write_chrome_trace

        paths = iter([tmp_path / "a.json", tmp_path / "b.json"])

        def run():
            r = run_traced("shpaths", p=4, n=8, backend="sim")
            path = next(paths)
            write_chrome_trace(path, r.machine)
            r.machine.close()
            return path.read_bytes()

        first, second = _two_clocks(monkeypatch, run)
        assert first == second
        assert b'"wall"' not in first

    def test_empty_profiler_yields_no_events(self, tracer):
        from repro.obs.export import wall_trace_events

        assert wall_trace_events(tracer) == []


# ---------------------------------------------------------------------------
# stream mode + lifecycle
# ---------------------------------------------------------------------------
class TestStreamModeIdentity:
    def test_stream_fold_identical_with_profiler(self):
        """Exact stream consumers fold identically to a recorded run,
        and stream mode keeps the wall totals but no stamps."""
        from repro.check.tracecheck import compare_observers, fold_recorded, observed

        m_rec = Machine(4, trace_level=2)
        m_str = Machine(4, trace_level=2, trace_mode="stream")
        try:
            with isolated_metrics():
                _workload(SkilContext(m_rec))
            with isolated_metrics():
                _workload(SkilContext(m_str))
            assert np.array_equal(m_rec.network.clocks, m_str.network.clocks)
            assert compare_observers(fold_recorded(m_rec), observed(m_str)) == []
            assert m_rec.metrics.render_text() == m_str.metrics.render_text()
            assert m_str.tracer.wall_attribution()["measured_wall_s"] > 0
            assert m_str.tracer.dispatches == []
        finally:
            m_rec.close()
            m_str.close()


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_clears_profiler_state(self, backend):
        m = Machine(8, trace_level=1, backend=backend, workers=2)
        try:
            with isolated_metrics():
                _workload(SkilContext(m))
            assert m.tracer.wall_attribution()["measured_wall_s"] > 0
            m.reset()
            assert m.tracer.dispatches == []
            assert m.tracer.wall.snapshot()["counters"] == {}
            assert m.tracer.wall_attribution()["measured_wall_s"] == 0.0
            with isolated_metrics():
                _workload(SkilContext(m))  # collects again after reset
            assert m.tracer.wall_attribution()["measured_wall_s"] > 0
        finally:
            m.close()

    def test_close_keeps_the_wall_data(self):
        """close() releases the workers, not the stamps; a machine used
        again after close() keeps stamping into the same tracer."""
        m = Machine(8, trace_level=1, backend="threads", workers=2)
        with isolated_metrics():
            _workload(SkilContext(m))
        m.close()
        first = m.tracer.wall_attribution()
        assert first["measured_wall_s"] > 0 and first["calls"] > 0
        with isolated_metrics():
            _workload(SkilContext(m))
        m.close()
        assert m.tracer.wall_attribution()["calls"] > first["calls"]

    def test_unprofiled_machine_has_no_profiler(self):
        """Wall stamps exist exactly where spans do."""
        m = Machine(4)
        assert m.tracer is None and m.backend.tracer is None
        m.close()
        m = Machine(4, trace_level=1)
        assert m.backend.tracer is m.tracer
        m.close()
