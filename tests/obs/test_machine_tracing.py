"""Machine-level tracing: zero-cost-when-off, reset contract, engine hooks."""

import numpy as np
import pytest

from repro.apps.gauss import gauss_full, random_system
from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.errors import MachineError
from repro.machine.costmodel import SKIL, T800_PARSYTEC
from repro.machine.machine import Machine
from repro.machine.trace import TraceStats
from repro.obs.timeline import COMPUTE, RECV, SEND
from repro.skeletons import PLUS, SkilContext, skil_fn

# signature-agnostic kernel: works for create (grids, env) and map/fold
# conversion (block, grids, env) vectorized call shapes alike
IDF = skil_fn(ops=1, vectorized=lambda *a: a[-2][0])(lambda *a: a[-1][0])


class TestTraceLevels:
    def test_invalid_level_rejected(self):
        with pytest.raises(MachineError):
            Machine(4, trace_level=3)

    def test_level_one_has_tracer_and_metrics(self):
        m = Machine(4, trace_level=1)
        assert m.tracer is not None and m.metrics is not None
        assert m.timeline is None

    def test_level_two_adds_timeline_and_records(self):
        m = Machine(4, trace_level=2)
        assert m.timeline is not None
        assert m.stats.keep_records

    def test_network_shares_machine_instruments(self):
        m = Machine(4, trace_level=2)
        assert m.network.metrics is m.metrics
        assert m.network.timeline is m.timeline


class TestDeterminism:
    """Tracing must never perturb the simulated clocks (bit-identical)."""

    def test_shpaths_makespan_identical(self):
        dist = random_distance_matrix(16, seed=3)
        times = {}
        for level in (0, 2):
            ctx = SkilContext(Machine(4, trace_level=level), SKIL)
            _, rep = shpaths(ctx, dist)
            times[level] = rep.seconds
        assert times[0] == times[2]  # bit-identical, no tolerance

    def test_gauss_full_makespan_identical(self):
        a_mat, rhs = random_system(16, seed=3)
        times = {}
        for level in (0, 2):
            ctx = SkilContext(Machine(4, trace_level=level), SKIL)
            _, rep = gauss_full(ctx, a_mat, rhs)
            times[level] = rep.seconds
        assert times[0] == times[2]


class TestResetContract:
    """Satellite: reset must keep the shared TraceStats object alive."""

    def test_stats_object_survives_reset(self):
        m = Machine(4)
        stats_before = m.stats
        m.network.compute(1.0)
        m.reset()
        assert m.stats is stats_before
        assert m.network.stats is m.stats
        assert m.time == 0.0

    def test_network_keeps_observing_after_reset(self):
        """The bug this guards against: reset() replacing self.stats with
        a fresh object while the network kept the old one — post-reset
        traffic would vanish from machine.stats."""
        m = Machine(4)
        from repro.machine.topology import DefaultMapping

        topo = DefaultMapping(m.mesh)
        m.network.p2p(0, 1, 100, topo)
        m.reset()
        assert m.stats.messages == 0
        m.network.p2p(0, 1, 100, topo)
        assert m.stats.messages == 1

    def test_engine_captured_stats_survive_reset(self):
        """An Engine built from the machine before reset() must still
        report into machine.stats afterwards (dc/farm construction)."""
        from repro.machine.engine import Compute, Engine, ISend, Recv

        m = Machine(2)
        m.reset()
        eng = Engine(m.cost, m.topology(), m.network)

        def prog(rank, p):
            if rank == 0:
                yield Compute(1.0)
                yield ISend(1, nbytes=64)
            else:
                yield Recv(0)

        for r in range(2):
            eng.spawn(r, prog(r, 2))
        eng.run()
        assert m.stats.messages == 1
        assert m.stats.compute_seconds == pytest.approx(1.0)

    def test_reset_clears_obs_instruments(self):
        ctx = SkilContext(Machine(4, trace_level=2), SKIL)
        a = ctx.array_create(1, (8,), (0,), (-1,), IDF)
        ctx.array_fold(IDF, PLUS, a)
        m = ctx.machine
        assert m.tracer.spans and len(m.timeline) > 0
        m.reset()
        assert m.tracer.spans == []
        assert len(m.timeline) == 0
        assert m.metrics.snapshot()["counters"] == {}


class TestMergeFix:
    """Satellite: merge() must not drop the other side's records."""

    def test_records_merge_into_recordless_stats(self):
        a = TraceStats(keep_records=False)
        b = TraceStats(keep_records=True)
        from repro.machine.network import Network

        net = Network(T800_PARSYTEC, 2, stats=b)
        from repro.machine.topology import DefaultMapping, Mesh2D

        net.p2p(0, 1, 64, DefaultMapping(Mesh2D(1, 2)), tag="x")
        assert len(b.records) == 1
        a.merge(b)
        assert len(a.records) == 1
        assert a.messages == 1

    def test_wave_records_merge_into_recordless_stats(self):
        a = TraceStats(keep_records=False)
        b = TraceStats(keep_records=True)
        b.record_message(0.5, 3, 4, 8, 1, "first", depart=0.25)
        b.record_messages(*_wave(), "x", departs=np.array([0.5, 1.5]))
        a.merge(b)
        assert a.records == b.records and len(a.records) == 3
        assert a.messages == 3

    def test_clear_zeroes_in_place(self):
        s = TraceStats(keep_records=True)
        s.compute_seconds = 1.0
        s.record_message(1.0, 0, 1, 64, 1, "x", depart=0.5)
        s.record_messages(*_wave(), "x")
        assert len(s.records) == 3
        alias = s
        s.clear()
        assert alias.messages == 0
        assert alias.compute_seconds == 0.0
        assert alias.records == []


def _wave():
    """times, srcs, dsts, nbytes, hops of two messages."""
    return (np.array([1.0, 2.0]), np.array([0, 1]), np.array([1, 2]),
            np.array([64, 32]), np.array([1, 2]))


class TestRecordWaves:
    """``record_messages`` appends the same objects, in the same order,
    as one ``record_message`` per entry."""

    def test_wave_equals_scalar_records(self):
        wave, scalar = (TraceStats(keep_records=True) for _ in range(2))
        departs = np.array([0.5, 1.5])
        wave.record_messages(*_wave(), "x", departs=departs)
        wave.record_messages(*_wave(), "late")  # departure unknown
        for tag, deps in (("x", departs), ("late", [-1.0, -1.0])):
            for t, s, d, nb, h, dep in zip(*_wave(), deps):
                scalar.record_message(
                    float(t), int(s), int(d), int(nb), int(h), tag, float(dep)
                )
        assert wave.records == scalar.records
        assert wave.summary() == scalar.summary()
        rec = wave.records[0]
        assert type(rec.src) is int and type(rec.time) is float

    def test_wave_owns_its_data(self):
        s = TraceStats(keep_records=True)
        columns, departs = _wave(), np.array([0.5, 1.5])
        s.record_messages(*columns, "x", departs=departs)
        for arr in (*columns, departs):
            arr += 7
        fresh = TraceStats(keep_records=True)
        fresh.record_messages(*_wave(), "x", departs=np.array([0.5, 1.5]))
        assert s.records == fresh.records

    def test_nothing_kept_without_keep_records(self):
        s = TraceStats()
        s.record_messages(*_wave(), "x")
        assert s.messages == 2 and s.records == []

    def test_read_record_read_sees_the_new_tail(self):
        s = TraceStats(keep_records=True)
        s.record_messages(*_wave(), "x")
        head = list(s.records)
        s.record_message(3.0, 2, 0, 16, 1, "y", depart=2.5)
        s.record_messages(*_wave(), "z")
        assert s.records[:2] == head
        assert [r.tag for r in s.records[2:]] == ["y", "z", "z"]


class TestNetworkTimeline:
    def test_collectives_record_intervals(self):
        ctx = SkilContext(Machine(4, trace_level=2), SKIL)
        a = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        ctx.array_fold(IDF, PLUS, a)
        tl = ctx.machine.timeline
        kinds = {iv.kind for iv in tl.intervals}
        assert {COMPUTE, SEND, RECV} <= kinds
        assert tl.ranks() == [0, 1, 2, 3]
        # intervals never run backwards
        assert all(iv.end > iv.start for iv in tl.intervals)

    def test_message_histograms_fed(self):
        ctx = SkilContext(Machine(4, trace_level=1), SKIL)
        a = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        ctx.array_fold(IDF, PLUS, a)
        snap = ctx.machine.metrics.snapshot()
        h = snap["histograms"]
        assert h["net.message_bytes"]["count"] == ctx.machine.stats.messages
        assert h["net.message_hops"]["count"] == ctx.machine.stats.messages
        assert any(
            k.startswith("net.messages.") for k in snap["counters"]
        )


class TestEngineTimeline:
    def test_dc_records_engine_intervals_with_offset(self):
        from repro.skeletons.functional import skil_fn as sf

        ctx = SkilContext(Machine(4, trace_level=2), SKIL)
        # advance the clocks so the engine's t0 offset matters
        ctx.machine.network.compute(1.0)
        t0 = ctx.machine.time
        tl = ctx.machine.timeline
        n_before = len(tl)
        is_trivial = sf(ops=1)(lambda pb: len(pb) <= 2)
        solve = sf(ops=1)(lambda pb: sum(pb))
        split = sf(ops=1)(lambda pb: [pb[: len(pb) // 2], pb[len(pb) // 2 :]])
        join = sf(ops=1)(lambda rs: sum(rs))
        out = ctx.divide_and_conquer(
            is_trivial, solve, split, join, list(range(32))
        )
        assert out == sum(range(32))
        dc_intervals = tl.intervals[n_before:]
        assert dc_intervals
        # engine intervals are shifted onto the machine timeline
        assert all(iv.start >= t0 - 1e-12 for iv in dc_intervals)
        kinds = {iv.kind for iv in dc_intervals}
        assert COMPUTE in kinds and SEND in kinds

    def test_farm_runs_traced(self):
        from repro.skeletons.functional import skil_fn as sf

        ctx = SkilContext(Machine(4, trace_level=2), SKIL)
        worker = sf(ops=2)(lambda t: t * 2)
        res = ctx.farm(worker, list(range(10)), size_of=lambda t: 1)
        assert res == [t * 2 for t in range(10)]
        assert len(ctx.machine.timeline) > 0
        assert ctx.machine.tracer.open_depth == 0
        names = {s.name for s in ctx.machine.tracer.spans}
        assert "farm" in names
