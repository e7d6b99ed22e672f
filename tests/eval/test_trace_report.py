"""Tests for the trace-report breakdowns."""

import pytest

from repro.apps import random_distance_matrix, shpaths
from repro.eval.trace_report import (
    CostBreakdown,
    breakdown,
    format_breakdowns,
    format_skeleton_breakdowns,
    skeleton_breakdowns,
)
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.machine.trace import TraceStats
from repro.obs.span import SkeletonAgg
from repro.skeletons import SkilContext


class TestBreakdown:
    def test_shares_sum_to_one(self):
        b = CostBreakdown("x", 1.0, 6.0, 3.0, 1.0, 10, 1000, 5)
        assert b.compute_share + b.comm_share + b.idle_share == pytest.approx(1.0)
        assert b.compute_share == pytest.approx(0.6)

    def test_empty_run(self):
        b = breakdown("empty", 0.0, TraceStats())
        assert b.compute_share == 0.0
        assert b.busy_total == 0.0

    def test_from_real_run(self):
        ctx = SkilContext(Machine(16), SKIL)
        dist = random_distance_matrix(32, seed=1)
        _, rep = shpaths(ctx, dist)
        b = breakdown("shpaths-16", rep.seconds, ctx.machine.stats)
        assert b.makespan == rep.seconds
        assert b.compute_share > 0.5  # compute-dominated at this size
        assert b.messages == ctx.machine.stats.messages

    def test_small_partitions_shift_to_comm(self):
        """The paper's efficiency-cliff explanation, quantitatively:
        shrinking the partitions grows the communication+idle share."""
        shares = {}
        for p in (4, 64):
            ctx = SkilContext(Machine(p), SKIL)
            dist = random_distance_matrix(32, seed=2)
            _, rep = shpaths(ctx, dist)
            b = breakdown(f"p{p}", rep.seconds, ctx.machine.stats)
            shares[p] = b.comm_share + b.idle_share
        assert shares[64] > shares[4]

    def test_format_table(self):
        rows = [
            CostBreakdown("skil", 1.5, 8.0, 1.0, 1.0, 42, 2e6, 10),
            CostBreakdown("dpfl", 9.0, 55.0, 6.0, 2.0, 42, 12e6, 10),
        ]
        text = format_breakdowns(rows)
        assert "skil" in text and "dpfl" in text
        assert "80%" in text  # skil compute share
        assert "2.00" in text  # MB sent

    def test_format_empty_row_list_is_header_only(self):
        text = format_breakdowns([])
        assert text.splitlines() == [text]  # a single header line
        assert "run" in text

    def test_zero_busy_total_shares_are_zero(self):
        b = CostBreakdown("idle-machine", 0.0, 0.0, 0.0, 0.0, 0, 0, 0)
        assert b.compute_share == 0.0
        assert b.comm_share == 0.0
        assert b.idle_share == 0.0
        # and formatting a zero row must not divide by zero
        assert "idle-machine" in format_breakdowns([b])


class TestSkeletonBreakdowns:
    def test_zero_busy_shares(self):
        r = SkeletonAgg("noop", calls=1)
        assert r.busy_total == 0.0
        # formatting a zero row must not divide by zero
        assert "noop" in format_skeleton_breakdowns([r])

    def test_format_empty(self):
        text = format_skeleton_breakdowns([])
        assert text.splitlines() == [text]
        assert "skeleton" in text

    def test_exclusive_attribution_of_nested_skeletons(self):
        """A skeleton invoked inside another must not be double-counted:
        its cost is subtracted from the enclosing skeleton's row."""
        m = Machine(4, trace_level=1)
        tracer = m.tracer
        outer = tracer.begin("outer", category="skeleton")
        m.network.compute(1.0)  # 4 s exclusive to outer
        with tracer.span("phase", category="phase"):
            inner = tracer.begin("inner", category="skeleton")
            m.network.compute(2.0)  # 8 s belong to inner, not outer
            tracer.end(inner)
        tracer.end(outer)
        rows = {r.name: r for r in skeleton_breakdowns(m)}
        assert rows["inner"].compute_seconds == pytest.approx(8.0)
        assert rows["outer"].compute_seconds == pytest.approx(4.0)
        total = sum(r.compute_seconds for r in rows.values())
        assert total == pytest.approx(m.stats.compute_seconds)

    def test_rows_sorted_by_busy_time(self):
        m = Machine(2, trace_level=1)
        a = m.tracer.begin("small")
        m.network.compute(0.1)
        m.tracer.end(a)
        b = m.tracer.begin("big")
        m.network.compute(5.0)
        m.tracer.end(b)
        rows = skeleton_breakdowns(m)
        assert [r.name for r in rows] == ["big", "small"]

    def test_gauss_full_per_skeleton_costs(self):
        """Acceptance: the Gauss breakdown shows nonzero compute AND comm
        for array_map, array_fold and array_broadcast_part."""
        from repro.apps.gauss import gauss_full, random_system

        ctx = SkilContext(Machine(4, trace_level=1), SKIL)
        a_mat, rhs = random_system(16, seed=0)
        gauss_full(ctx, a_mat, rhs)
        rows = {r.name: r for r in skeleton_breakdowns(ctx.machine)}
        for name in ("array_map", "array_fold", "array_broadcast_part"):
            assert name in rows, f"missing {name} row"
            assert rows[name].compute_seconds > 0, name
        for name in ("array_fold", "array_broadcast_part"):
            assert rows[name].comm_seconds > 0, name
        # array_map is purely local; its communication must stay zero
        assert rows["array_map"].comm_seconds == 0.0
        # call counts: one fold + one broadcast per elimination step
        assert rows["array_fold"].calls == 16
        assert rows["array_broadcast_part"].calls == 16
        text = format_skeleton_breakdowns(list(rows.values()))
        assert "array_broadcast_part" in text
