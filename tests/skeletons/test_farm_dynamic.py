"""Tests for the farm skeleton."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.machine import Machine
from repro.skeletons import SkilContext, skil_fn

from .conftest import make_ctx


@skil_fn(ops=20)
def square(t):
    return t * t


class TestFarm:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_results_in_task_order(self, p):
        ctx = make_ctx(p)
        tasks = list(range(23))
        out = ctx.farm(square, tasks, size_of=lambda t: 1)
        assert out == [t * t for t in tasks]

    def test_empty_tasks(self, ctx4):
        assert ctx4.farm(square, [], size_of=lambda t: 1) == []

    def test_fewer_tasks_than_workers(self, ctx16):
        out = ctx16.farm(square, [1, 2], size_of=lambda t: 1)
        assert out == [1, 4]

    def test_irregular_tasks_balance(self):
        """Demand-driven farming beats static assignment on skewed
        costs: total time ~ max(single biggest task, work/p)."""
        heavy = skil_fn(ops=1000)(lambda t: t)
        sizes = [100 if i == 0 else 1 for i in range(31)]
        ctx = make_ctx(4)
        ctx.farm(heavy, sizes, size_of=lambda t: t)
        # static block split would put task 0 + 7 small ones on worker 1;
        # demand-driven should approach (100 + 30/3) * unit
        unit = 1000 * ctx.charge.elem_time()
        assert ctx.machine.time < 130 * unit

    def test_messages_carry_their_tags(self):
        """Records, metrics and the timeline name each message by the
        tag the program gave it."""
        m = Machine(4, trace_level=2, keep_message_records=True)
        SkilContext(m).farm(square, list(range(23)), size_of=lambda t: 1 + t % 4)
        tags = {}
        for r in m.stats.records:
            tags[r.tag] = tags.get(r.tag, 0) + 1
        assert tags == {"task": 26, "done": 23}  # 23 tasks, 3 stops, 23 results
        counters = m.metrics.snapshot()["counters"]
        assert {t: counters[f"net.messages.{t}"] for t in tags} == tags
        sends = {iv.detail for iv in m.timeline.intervals if iv.kind == "send"}
        assert sends == {"task", "done"}

    def test_none_results_allowed(self, ctx4):
        out = ctx4.farm(skil_fn(ops=1)(lambda t: None), [1, 2, 3],
                        size_of=lambda t: 1)
        assert out == [None, None, None]

    def test_parallel_speedup(self):
        tasks = [10] * 64
        heavy = skil_fn(ops=500)(lambda t: t)
        t = {}
        for p in (1, 8):
            ctx = make_ctx(p)
            ctx.farm(heavy, tasks, size_of=lambda x: x)
            t[p] = ctx.machine.time
        assert t[8] < t[1] / 3

    @given(st.lists(st.integers(0, 100), max_size=40))
    @settings(max_examples=15, deadline=None)
    def test_property_order_preserved(self, tasks):
        ctx = make_ctx(4)
        out = ctx.farm(square, tasks, size_of=lambda t: 1)
        assert out == [t * t for t in tasks]
