"""Tests for the span tracer: pairing, nesting, attribution."""

import numpy as np
import pytest

from repro.errors import SkeletonError
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.obs import SpanTracer
from repro.obs.span import SpanError
from repro.skeletons import PLUS, SkilContext, skil_fn


def traced_ctx(p=4, level=1):
    return SkilContext(Machine(p, trace_level=level), SKIL)


# signature-agnostic kernel: works for create (grids, env) and map/fold
# conversion (block, grids, env) vectorized call shapes alike
IDF = skil_fn(ops=1, vectorized=lambda *a: a[-2][0])(lambda *a: a[-1][0])


class TestPairing:
    def test_begin_end_records_metrics(self):
        m = Machine(4, trace_level=1)
        s = m.tracer.begin("work")
        m.network.compute(2.0)
        closed = m.tracer.end(s)
        assert closed is s
        assert s.closed
        assert s.compute_seconds == pytest.approx(8.0)  # 4 ranks x 2 s
        assert s.duration == pytest.approx(2.0)
        assert s.ranks == (0, 1, 2, 3)

    def test_participating_ranks_from_clock_movement(self):
        m = Machine(4, trace_level=1)
        s = m.tracer.begin("one-rank")
        m.network.compute_at(2, 1.0)
        m.tracer.end(s)
        assert s.ranks == (2,)

    def test_end_without_begin_raises(self):
        m = Machine(2, trace_level=1)
        with pytest.raises(SpanError):
            m.tracer.end()

    def test_out_of_order_end_raises(self):
        m = Machine(2, trace_level=1)
        outer = m.tracer.begin("outer")
        m.tracer.begin("inner")
        with pytest.raises(SpanError):
            m.tracer.end(outer)

    def test_end_through_closes_nested(self):
        m = Machine(2, trace_level=1)
        outer = m.tracer.begin("outer")
        m.tracer.begin("inner")
        m.tracer.end_through(outer)
        assert m.tracer.open_depth == 0
        assert all(s.closed for s in m.tracer.spans)

    def test_end_through_unopened_raises(self):
        m = Machine(2, trace_level=1)
        s = m.tracer.begin("x")
        m.tracer.end(s)
        with pytest.raises(SpanError):
            m.tracer.end_through(s)

    def test_contextmanager_closes_on_error(self):
        m = Machine(2, trace_level=1)
        with pytest.raises(RuntimeError):
            with m.tracer.span("failing"):
                raise RuntimeError("boom")
        assert m.tracer.open_depth == 0
        assert m.tracer.spans[0].closed


class TestNesting:
    def test_parent_depth_path(self):
        m = Machine(2, trace_level=1)
        a = m.tracer.begin("a")
        b = m.tracer.begin("b", category="phase")
        m.tracer.end(b)
        m.tracer.end(a)
        assert b.parent == a.index
        assert (a.depth, b.depth) == (0, 1)
        assert m.tracer.path(b) == ("a", "b")
        assert [s for s in m.tracer.spans if s.parent == a.index] == [b]
        assert m.tracer.roots() == [a]

    def test_child_metrics_are_inclusive_in_parent(self):
        m = Machine(2, trace_level=1)
        a = m.tracer.begin("a")
        b = m.tracer.begin("b")
        m.network.compute(1.0)
        m.tracer.end(b)
        m.tracer.end(a)
        assert a.compute_seconds == pytest.approx(b.compute_seconds)


class TestSkeletonIntegration:
    def test_skeleton_run_leaves_no_open_spans(self):
        ctx = traced_ctx()
        a = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        b = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        ctx.array_map(IDF, a, b)
        ctx.array_fold(IDF, PLUS, a)
        tracer = ctx.machine.tracer
        assert tracer.open_depth == 0
        names = {s.name for s in tracer.closed_spans()}
        assert {"array_create", "array_map", "array_fold"} <= names

    def test_fold_has_phase_children(self):
        ctx = traced_ctx()
        a = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        ctx.array_fold(IDF, PLUS, a)
        tracer = ctx.machine.tracer
        fold = [s for s in tracer.spans if s.name == "array_fold"][0]
        kids = [s for s in tracer.spans if s.parent == fold.index]
        assert {s.name for s in kids} == {"fold:local", "fold:tree"}
        assert all(s.category == "phase" for s in kids)

    def test_failing_skeleton_still_closes_its_span(self):
        ctx = traced_ctx()
        a = ctx.array_create(1, (16,), (0,), (-1,), IDF)
        with pytest.raises(SkeletonError):
            ctx.array_copy(a, a)  # same array: rejected after begin
        tracer = ctx.machine.tracer
        assert tracer.open_depth == 0
        copies = [s for s in tracer.spans if s.name == "array_copy"]
        assert copies and copies[0].closed

    def test_gen_mult_records_nested_phases(self):
        from repro.machine.machine import DISTR_TORUS2D
        from repro.skeletons import MIN

        ctx = traced_ctx(p=4)
        mk = skil_fn(
            ops=1, vectorized=lambda grids, env: np.ones(1)
        )(lambda ix: 1.0)
        a = ctx.array_create(2, (8, 8), (0, 0), (-1, -1), mk, DISTR_TORUS2D)
        b = ctx.array_create(2, (8, 8), (0, 0), (-1, -1), mk, DISTR_TORUS2D)
        c = ctx.array_create(2, (8, 8), (0, 0), (-1, -1), mk, DISTR_TORUS2D)
        ctx.array_gen_mult(a, b, MIN, PLUS, c)
        tracer = ctx.machine.tracer
        gm = [s for s in tracer.spans if s.name == "array_gen_mult"][0]
        phases = {s.name for s in tracer.spans if s.parent == gm.index}
        assert {"genmult:skew", "genmult:multiply", "genmult:rotate"} <= phases

    def test_tracer_absent_at_level_zero(self):
        m = Machine(4)
        assert m.tracer is None and m.metrics is None and m.timeline is None


class TestClear:
    def test_clear_empties_spans_and_stack(self):
        m = Machine(2, trace_level=1)
        m.tracer.begin("x")
        m.tracer.clear()
        assert m.tracer.open_depth == 0
        assert m.tracer.spans == []

    def test_standalone_tracer(self):
        m = Machine(2)
        tracer = SpanTracer(m.stats, m.network)
        s = tracer.begin("manual")
        m.network.compute(1.0)
        tracer.end(s)
        assert s.compute_seconds > 0

    def test_on_close_hands_spans_over_instead_of_retaining_them(self):
        """The stream mode of the one tracer: closed spans go to the
        callback in close order, and carry the indices a recording
        tracer gives them — also after ``clear``."""
        m = Machine(2)
        closed: list = []
        streamed = SpanTracer(m.stats, m.network, on_close=closed.append)
        recorded = SpanTracer(m.stats, m.network)
        for tracer in (streamed, recorded, streamed, recorded):
            tracer.clear()
            a = tracer.begin("a")
            b = tracer.begin("b", category="phase")
            m.network.compute_at(1, 1.0)
            tracer.end(b)
            tracer.end(a)
            c = tracer.begin("c")
            tracer.end(c)
        assert streamed.spans == [] and streamed.open_depth == 0
        assert [s.name for s in closed] == ["b", "a", "c"] * 2
        shape = lambda s: (s.index, s.name, s.parent, s.depth)  # noqa: E731
        assert sorted(map(shape, closed[3:])) == [shape(s) for s in recorded.spans]
        assert closed[0].ranks == (1,) and type(closed[0].ranks[0]) is int
