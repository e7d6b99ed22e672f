"""The wall-clock worker-plane profiler (``Machine(profile=True)``).

Unit tests drive :class:`~repro.obs.prof.WallProfiler` with a fake
clock so the attribution arithmetic is exact; the integration tests
assert the two invariants the profiler is built on — zero perturbation
of the cost model on every backend (bitwise), and a valid dual-clock
Chrome trace — plus the reset/close lifecycle and the stream-mode
identity contract with the profiler attached.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.machine.machine import Machine
from repro.obs.metrics import isolated_metrics
from repro.obs.prof import (
    ATTRIBUTION_TOL,
    PROFILE_SCHEMA,
    WallProfiler,
    _union_length,
)
from repro.skeletons import PLUS, SkilContext
from repro.skeletons.functional import skil_fn

BACKENDS = ["sim", "threads"]


class FakeClock:
    """Deterministic clock: returns queued stamps, then keeps ticking."""

    def __init__(self, start=0.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t

    def set(self, t):
        self.now = t
        return t


def _workload(ctx: SkilContext):
    init = skil_fn(ops=1, vectorized=lambda g, e: (g[0] * 2 + 1).astype(float))(
        lambda i: float(i[0] * 2 + 1)
    )
    square = skil_fn(ops=2, vectorized=lambda b, g, e: b * b + g[0])(
        lambda x, i: x * x + i[0]
    )
    ident = skil_fn(ops=0, vectorized=lambda b, g, e: b)(lambda x, i: x)
    a = ctx.array_create(1, (32,), (0,), (-1,), init)
    b = ctx.array_create(1, (32,), (0,), (-1,), init)
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

    def test_partition_sums_exactly(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        prof.skeleton_begin("map")          # t0 = 0 (clock -> 1)
        clock.set(1.0)
        d = prof.dispatch_begin("threads", "k", 2)  # t_begin = 1
        clock.set(2.0)
        prof.note_post(d)                   # t_post = 2
        # first block starts at 3 -> dispatch lag 1; busy union of
        # [3,5] and [4,6] is 3 seconds
        prof.block(d, 0, 2.0, 3.0, 5.0)
        prof.block(d, 1, 2.0, 4.0, 6.0)
        clock.set(7.0)
        prof.dispatch_end(d)                # t_done = 7
        clock.set(10.0)
        prof.skeleton_end()                 # wall = 10
        attr = prof.attribution()
        assert attr["measured_wall_s"] == 10.0
        assert attr["dispatch_s"] == 1.0
        assert attr["kernel_s"] == 3.0
        assert attr["idle_s"] == 6.0
        assert prof.attribution_ok(attr)

    def test_blocks_clipped_to_dispatch_window(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        prof.skeleton_begin("map")
        clock.set(0.0)
        d = prof.dispatch_begin("threads", "k", 1)
        clock.set(1.0)
        prof.note_post(d)
        # the stamp claims busy [0, 9] but the window is [1, 4]: a bad
        # stamp must not over-attribute kernel time
        prof.block(d, 0, 1.0, 0.0, 9.0)
        clock.set(4.0)
        prof.dispatch_end(d)
        clock.set(5.0)
        prof.skeleton_end()
        attr = prof.attribution()
        assert attr["kernel_s"] == 3.0  # clipped to [1, 4]
        assert prof.attribution_ok(attr)

    def test_no_dispatch_means_kernel_is_the_wall(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        prof.skeleton_begin("fold")
        clock.set(4.0)
        prof.skeleton_end()
        attr = prof.attribution()
        assert attr["kernel_s"] == attr["measured_wall_s"] == 4.0
        assert attr["idle_s"] == 0.0
        assert prof.attribution_ok(attr)

    def test_over_attribution_fails_the_check(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        prof.skeleton_begin("map")
        clock.set(0.0)
        d = prof.dispatch_begin("threads", "k", 1)
        clock.set(0.0)
        prof.note_post(d)
        clock.set(2.0)
        prof.skeleton_end()                 # wall = 2 ...
        prof.block(d, 0, 0.0, 0.0, 50.0)
        clock.set(50.0)
        prof.dispatch_end(d)                # ... but the window runs to 50
        attr = prof.attribution()
        assert attr["kernel_s"] > attr["measured_wall_s"] * (1 + ATTRIBUTION_TOL)
        assert not prof.attribution_ok(attr)

    def test_nested_skeletons_only_depth0_measured(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        prof.skeleton_begin("outer")
        clock.set(1.0)
        prof.skeleton_begin("inner")
        assert prof.current_skeleton() == "inner"
        clock.set(3.0)
        prof.skeleton_end()
        clock.set(6.0)
        prof.skeleton_end()
        assert prof.skeleton_wall_s() == 6.0  # outer only
        per = prof.per_skeleton_wall()
        assert list(per) == ["outer"]
        depths = {sw.name: sw.depth for sw in prof.skeleton_walls}
        assert depths == {"outer": 0, "inner": 1}


class TestWorkerStats:
    def test_utilization_and_imbalance(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        clock.set(0.0)
        d = prof.dispatch_begin("threads", "k", 2)
        clock.set(0.0)
        prof.note_post(d)
        prof.block(d, 0, 0.0, 0.0, 6.0)
        prof.block(d, 1, 0.0, 0.0, 2.0)
        clock.set(8.0)
        prof.dispatch_end(d)
        stats = prof.worker_stats()
        assert stats["window_s"] == 8.0
        by_worker = {w["worker"]: w for w in stats["workers"]}
        assert by_worker[0]["busy_s"] == 6.0
        assert by_worker[0]["utilization"] == 0.75
        assert stats["imbalance"] == 1.5  # max 6 / mean 4

    def test_worker_slot_is_stable(self):
        prof = WallProfiler()
        assert prof.worker_slot(1234) == 0
        assert prof.worker_slot(5678) == 1
        assert prof.worker_slot(1234) == 0


class TestCountersAndSnapshot:
    def test_snapshot_schema_and_clear(self):
        clock = FakeClock()
        prof = WallProfiler(clock=clock)
        prof.skeleton_begin("map")
        prof.skeleton_end()
        snap = prof.snapshot()
        assert snap["schema"] == PROFILE_SCHEMA
        assert snap["clock"] == "monotonic"
        assert snap["schema"] == "repro-profile/2"
        assert set(snap["attribution"]) == {"dispatch_s", "kernel_s", "idle_s"}
        assert snap["attribution_ok"] is True
        json.dumps(snap)  # must be JSON-serializable as-is
        prof.clear()
        assert prof.skeleton_walls == []
        assert prof.dispatches == []
        assert prof.metrics.snapshot()["counters"] == {}
        assert prof.worker_slot(1) == 0  # slot map restarted


# ---------------------------------------------------------------------------
# the zero-perturbation invariant, per backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_profiling_is_bitwise_invisible(backend):
    """Clocks, stats, metrics and results identical with profiling on."""
    def run(profile):
        m = Machine(8, trace_level=1, backend=backend, workers=2,
                    profile=profile)
        try:
            with isolated_metrics():
                view, total = _workload(SkilContext(m))
            return (
                view,
                total,
                m.network.clocks.copy(),
                m.metrics.render_text(),
            )
        finally:
            m.close()

    view_off, total_off, clocks_off, metrics_off = run(False)
    view_on, total_on, clocks_on, metrics_on = run(True)
    assert np.array_equal(view_off, view_on)
    assert total_off == total_on
    assert np.array_equal(clocks_off, clocks_on)
    assert metrics_off == metrics_on


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiler_collects_on_every_backend(backend):
    m = Machine(8, trace_level=1, backend=backend, workers=2, profile=True)
    try:
        with isolated_metrics():
            _workload(SkilContext(m))
        prof = m.profiler
        assert prof is not None
        assert prof.skeleton_wall_s() > 0
        assert prof.attribution_ok()
        if backend != "sim":
            # map kernels are env-free, so they really dispatch
            assert prof.dispatches
            assert all(d.backend == backend for d in prof.dispatches)
            assert any(d.blocks for d in prof.dispatches)
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

        run = run_traced("gauss", p=8, n=16, backend="threads", workers=2,
                         profile=True)
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

    def test_unprofiled_export_unchanged(self, tmp_path):
        from repro.obs.export import _WALL_PID, write_chrome_trace
        from repro.eval.tracecmd import run_traced

        run = run_traced("gauss", p=8, n=16)
        out = tmp_path / "plain.json"
        write_chrome_trace(out, run.machine)
        run.machine.close()
        doc = json.loads(out.read_text())
        assert all(ev["pid"] != _WALL_PID for ev in doc["traceEvents"])

    def test_empty_profiler_yields_no_events(self):
        from repro.obs.export import wall_trace_events

        assert wall_trace_events(WallProfiler()) == []


# ---------------------------------------------------------------------------
# stream mode + lifecycle
# ---------------------------------------------------------------------------
class TestStreamModeIdentity:
    def test_stream_fold_identical_with_profiler(self):
        """Exact stream consumers fold identically under a profiled
        machine — the profiler must be invisible to the sinks too."""
        from repro.check.streamcheck import compare_observers, fold_recorded

        m_rec = Machine(4, trace_level=2)
        m_str = Machine(4, trace_level=2, trace_mode="stream", profile=True)
        try:
            with isolated_metrics():
                _workload(SkilContext(m_rec))
            with isolated_metrics():
                _workload(SkilContext(m_str))
            assert np.array_equal(m_rec.network.clocks, m_str.network.clocks)
            assert compare_observers(
                fold_recorded(m_rec), m_str.stream_obs) == []
            assert m_rec.metrics.render_text() == m_str.metrics.render_text()
            assert m_str.profiler.skeleton_wall_s() > 0
        finally:
            m_rec.close()
            m_str.close()


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_clears_profiler_state(self, backend):
        m = Machine(8, trace_level=1, backend=backend, workers=2,
                    profile=True)
        try:
            with isolated_metrics():
                _workload(SkilContext(m))
            assert m.profiler.skeleton_walls
            m.reset()
            assert m.profiler.skeleton_walls == []
            assert m.profiler.dispatches == []
            assert m.profiler.metrics.snapshot()["counters"] == {}
            with isolated_metrics():
                _workload(SkilContext(m))  # collects again after reset
            assert m.profiler.skeleton_wall_s() > 0
        finally:
            m.close()

    def test_close_detaches_but_keeps_data(self):
        m = Machine(8, trace_level=1, backend="threads", workers=2,
                    profile=True)
        with isolated_metrics():
            _workload(SkilContext(m))
        prof = m.profiler
        m.close()
        # data still readable after close ...
        assert prof.skeleton_wall_s() > 0
        # ... but the backend no longer holds a reference
        assert m.backend.profiler is None

    def test_unprofiled_machine_has_no_profiler(self):
        m = Machine(4)
        assert m.profiler is None
        assert m.backend.profiler is None
        m.close()
