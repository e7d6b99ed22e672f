"""Tests for array_map, array_zip, array_fold and array_scan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SkeletonError
from repro.machine.costmodel import DPFL, SKIL
from repro.machine.machine import DISTR_TORUS2D, Machine
from repro.skeletons import MAX, MIN, PLUS, SkilContext, skil_fn
from repro.skeletons.base import current_context

from .conftest import create_1d, create_2d, make_ctx, zero


@skil_fn(ops=1, vectorized=lambda blk, grids, env: blk * 2.0)
def double(v, ix):
    return v * 2.0


@skil_fn(ops=0)
def ident_conv(v, ix):
    return v


class TestArrayMap:
    def test_elementwise(self, ctx4):
        a = create_2d(ctx4, 8)
        b = create_2d(ctx4, 8, init=zero)
        ctx4.array_map(double, a, b)
        np.testing.assert_array_equal(b.global_view(), a.global_view() * 2)

    def test_in_situ(self, ctx4):
        a = create_2d(ctx4, 8)
        before = a.global_view().copy()
        ctx4.array_map(double, a, a)
        np.testing.assert_array_equal(a.global_view(), before * 2)

    def test_scalar_path_matches_vectorized(self, ctx4):
        a = create_2d(ctx4, 8)
        b1 = create_2d(ctx4, 8, init=zero)
        b2 = create_2d(ctx4, 8, init=zero)
        ctx4.array_map(double, a, b1)
        ctx4.array_map(lambda v, ix: v * 2.0, a, b2)
        np.testing.assert_array_equal(b1.global_view(), b2.global_view())

    def test_index_dependent_function(self, ctx4):
        """The paper's above_thresh takes the element AND its index."""
        a = create_2d(ctx4, 8)
        b = create_2d(ctx4, 8, init=zero)
        thresh = skil_fn(
            ops=1,
            vectorized=lambda blk, grids, env: (blk >= 3000).astype(float),
        )(lambda v, ix: float(v >= 3000))
        ctx4.array_map(thresh, a, b)
        expect = (a.global_view() >= 3000).astype(float)
        np.testing.assert_array_equal(b.global_view(), expect)

    def test_different_element_types(self, ctx4):
        """Source float, target int (the above_thresh example)."""
        a = create_2d(ctx4, 8, dtype=np.float64)
        b = create_2d(ctx4, 8, init=zero, dtype=np.int32)
        ctx4.array_map(double, a, b)
        assert b.global_view().dtype == np.int32

    def test_shape_mismatch_rejected(self, ctx4):
        a = create_2d(ctx4, 8)
        b = create_2d(ctx4, 8, 12, init=zero)
        with pytest.raises(SkeletonError):
            ctx4.array_map(double, a, b)

    def test_proc_id_available(self, ctx4):
        a = create_1d(ctx4, 8)
        b = create_1d(ctx4, 8, init=zero)
        ranks = skil_fn(ops=1)(lambda v, ix: float(ctx4.proc_id()))
        ctx4.array_map(ranks, a, b)
        np.testing.assert_array_equal(
            b.global_view(), [0, 0, 1, 1, 2, 2, 3, 3]
        )

    def test_proc_id_outside_skeleton_raises(self, ctx4):
        with pytest.raises(SkeletonError):
            ctx4.proc_id()

    def test_proc_id_reset_when_the_function_raises(self, ctx4):
        """A failing map function must not leave a stale procId behind."""
        a = create_1d(ctx4, 8)
        b = create_1d(ctx4, 8, init=zero)

        def fails_on_rank_2(v, ix):
            if ix[0] == 5:
                raise ValueError("boom")
            return v

        with pytest.raises(ValueError):
            ctx4.array_map(fails_on_rank_2, a, b)
        with pytest.raises(SkeletonError):
            ctx4.proc_id()

    def test_proc_id_reset_when_a_stencil_raises(self, ctx4):
        """``array_map_overlap`` must not leave a stale procId either."""
        a = create_1d(ctx4, 8)
        b = create_1d(ctx4, 8, init=zero)

        def fails_on_rank_2(get, ix):
            if ix[0] == 5:
                raise ValueError("boom")
            return get(0)

        with pytest.raises(ValueError):
            ctx4.array_map_overlap(fails_on_rank_2, a, b)
        with pytest.raises(SkeletonError):
            ctx4.proc_id()

    def test_current_context_only_inside_a_skeleton(self, ctx4):
        """``current_context()`` is the executing skeleton's context and
        raises, as documented, once the skeleton has returned."""
        a = create_1d(ctx4, 8)
        seen = []
        spy = skil_fn(ops=1)(lambda v, ix: seen.append(current_context()) or v)
        ctx4.array_map(spy, a, a)
        assert seen and all(c is ctx4 for c in seen)
        with pytest.raises(SkeletonError, match="inside a skeleton"):
            current_context()

    def test_current_context_restored_after_a_nested_call(self, ctx4):
        """A skeleton called from inside an argument function hands the
        outer context back when it returns (also when it raises)."""
        inner = make_ctx(2)
        inner_arr = create_1d(inner, 4)
        a = create_1d(ctx4, 8)
        seen = []

        def nested(v, ix):
            inner.array_fold(ident_conv, PLUS, inner_arr)
            with pytest.raises(SkeletonError):
                inner.array_scan(PLUS, inner_arr, create_2d(inner, 4))
            seen.append(current_context())
            return v

        ctx4.array_map(skil_fn(ops=1)(nested), a, a)
        assert seen and all(c is ctx4 for c in seen)
        with pytest.raises(SkeletonError):
            current_context()

    def test_finished_run_does_not_pin_its_machine(self):
        """No module global keeps the last context (and through it the
        machine's clocks, plan store and arrays) alive."""
        import gc
        import weakref

        from repro.apps.shortest_paths import random_distance_matrix, shpaths

        ctx = make_ctx(4)
        shpaths(ctx, random_distance_matrix(8, density=0.25, seed=0))
        ref = weakref.ref(ctx.machine)
        del ctx
        gc.collect()
        assert ref() is None

    def test_dpfl_map_costs_more(self):
        """copy_on_update (functional host) pays for the temporary."""
        times = {}
        for profile in (SKIL, DPFL):
            ctx = make_ctx(4, profile)
            a = create_2d(ctx, 16)
            b = create_2d(ctx, 16, init=zero)
            ctx.machine.reset()
            ctx.array_map(double, a, b)
            times[profile.name] = ctx.machine.time
        assert times["dpfl"] > times["skil"]


class TestArrayZip:
    def test_elementwise_sum(self, ctx4):
        a = create_2d(ctx4, 8)
        b = create_2d(ctx4, 8)
        c = create_2d(ctx4, 8, init=zero)
        plus = skil_fn(
            ops=1, vectorized=lambda x, y, grids, env: x + y
        )(lambda x, y, ix: x + y)
        ctx4.array_zip(plus, a, b, c)
        np.testing.assert_array_equal(c.global_view(), a.global_view() * 2)

    def test_scalar_path(self, ctx4):
        a = create_1d(ctx4, 8)
        b = create_1d(ctx4, 8)
        c = create_1d(ctx4, 8, init=zero)
        ctx4.array_zip(lambda x, y, ix: x - y + ix[0], a, b, c)
        np.testing.assert_array_equal(c.global_view(), np.arange(8.0))

    def test_shape_mismatch(self, ctx4):
        a = create_2d(ctx4, 8)
        b = create_2d(ctx4, 8, 12)
        with pytest.raises(SkeletonError):
            ctx4.array_zip(lambda x, y, ix: x, a, b, a)


class TestArrayFold:
    def test_sum(self, ctx4):
        a = create_2d(ctx4, 8)
        s = ctx4.array_fold(ident_conv, PLUS, a)
        assert s == pytest.approx(a.global_view().sum())

    def test_min_max(self, ctx4):
        a = create_2d(ctx4, 8)
        assert ctx4.array_fold(ident_conv, MIN, a) == 0
        assert ctx4.array_fold(ident_conv, MAX, a) == 7007

    def test_conversion_function_applied(self, ctx4):
        a = create_2d(ctx4, 8)
        conv = skil_fn(ops=1, vectorized=lambda blk, grids, env: blk * 0 + 1)(
            lambda v, ix: 1.0
        )
        assert ctx4.array_fold(conv, PLUS, a) == pytest.approx(64.0)

    def test_structured_fold_like_gauss(self, ctx4):
        """Fold to an (value, row) record — the pivot search pattern."""
        a = create_2d(ctx4, 8, distr="DISTR_DEFAULT")

        def make_rec(v, ix):
            return (float(v), ix[0])

        make_rec = skil_fn(ops=2)(make_rec)

        def max_first(x, y):
            return x if x[0] >= y[0] else y

        max_first = skil_fn(ops=2, commutative_associative=True)(max_first)
        val, row = ctx4.array_fold(make_rec, max_first, a)
        assert (val, row) == (7007.0, 7)

    def test_non_assoc_warns(self, ctx4):
        a = create_1d(ctx4, 8)
        with pytest.warns(UserWarning, match="non-deterministic") as caught:
            ctx4.array_fold(ident_conv, lambda x, y: x - y, a)
        # attributed to the caller, not to the skeleton_span wrapper
        (w,) = caught
        assert w.filename == __file__

    def test_result_independent_of_p(self):
        for p in (1, 2, 4, 16):
            ctx = make_ctx(p)
            a = create_2d(ctx, 16)
            assert ctx.array_fold(ident_conv, PLUS, a) == pytest.approx(
                a.global_view().sum()
            )

    def test_single_processor(self, ctx1):
        a = create_1d(ctx1, 5)
        assert ctx1.array_fold(ident_conv, PLUS, a) == pytest.approx(10.0)

    @given(st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=4, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_fold_equals_sequential_reduce(self, values):
        """Property: distributed fold == sequential reduce for an
        associative+commutative operator, regardless of partitioning."""
        from repro.arrays.darray import DistArray

        ctx = make_ctx(4)
        data = np.asarray(values, dtype=np.int64)
        a = DistArray.from_global(ctx.machine, data)
        got = ctx.array_fold(ident_conv, PLUS, a)
        assert got == data.sum()


class TestArrayScan:
    def test_prefix_sum(self, ctx4):
        a = create_1d(ctx4, 16)
        b = create_1d(ctx4, 16, init=zero)
        ctx4.array_scan(PLUS, a, b)
        np.testing.assert_allclose(b.global_view(), np.cumsum(np.arange(16.0)))

    def test_single_proc(self, ctx1):
        a = create_1d(ctx1, 8)
        b = create_1d(ctx1, 8, init=zero)
        ctx1.array_scan(PLUS, a, b)
        np.testing.assert_allclose(b.global_view(), np.cumsum(np.arange(8.0)))

    def test_2d_rejected(self, ctx4):
        a = create_2d(ctx4, 8)
        with pytest.raises(SkeletonError):
            ctx4.array_scan(PLUS, a, a)

    def test_max_scan(self, ctx4):
        from repro.arrays.darray import DistArray

        data = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        ctx = make_ctx(4)
        a = DistArray.from_global(ctx.machine, data)
        b = DistArray.from_global(ctx.machine, np.zeros(8))
        ctx.array_scan(MAX, a, b)
        np.testing.assert_allclose(b.global_view(), np.maximum.accumulate(data))

    @staticmethod
    def _two_pass_scan(data, p, out_dtype):
        """The fused scan as it was written before it accumulated into the
        target: a fresh accumulate of the (p, block) rows, exclusive
        offsets folded left to right, one broadcast add, then a cast."""
        rows = np.add.accumulate(data.reshape(p, -1), axis=1)
        offsets, running = [], None
        for r in range(p):
            offsets.append(running)
            running = rows[r, -1] if running is None else running + rows[r, -1]
        out = rows.copy()
        out[1:] = np.add(np.asarray(offsets[1:])[:, None], rows[1:])
        return out.reshape(-1).astype(out_dtype)

    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_in_situ_scan_bitwise(self, p, fused):
        """``array_scan(PLUS, a, a)`` accumulates over its own source."""
        from repro.arrays.darray import DistArray

        data = np.sin(np.arange(160.0)) * 1e3 + 1.0 / 3.0
        ctx = SkilContext(Machine(p), fused=fused)
        a = DistArray.from_global(ctx.machine, data)
        ctx.array_scan(PLUS, a, a)
        want = self._two_pass_scan(data, p, float)
        assert a.global_view().tobytes() == want.tobytes()

    @pytest.mark.parametrize("fused", [True, False])
    def test_int_to_float_scan_keeps_exact_integer_sums(self, fused):
        """Sums past 2**53 are exact in the integer scan and rounded once
        by the cast; accumulating in the target's float would round at
        every step and differ."""
        from repro.arrays.darray import DistArray

        data = (np.arange(64, dtype=np.int64) * 7 + 1) * (2**46 + 3)
        ctx = SkilContext(Machine(4), fused=fused)
        a = DistArray.from_global(ctx.machine, data)
        b = DistArray.from_global(ctx.machine, np.zeros(64))
        ctx.array_scan(PLUS, a, b)
        want = self._two_pass_scan(data, 4, float)
        assert b.global_view().tobytes() == want.tobytes()
        assert want.tobytes() != np.add.accumulate(data.astype(float)).tobytes()
