"""Tests for the divide&conquer skeleton and the functional plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.quicksort import quicksort
from repro.errors import SkeletonError
from repro.skeletons import MIN, PLUS, TIMES, papply, section, skil_fn
from repro.skeletons.functional import Section

from .conftest import make_ctx


def run_quicksort(ctx, data):
    """The paper's quicksort, driven through the application module."""
    return quicksort(ctx, data)[0]


class TestDivideAndConquer:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_quicksort_correct(self, p):
        ctx = make_ctx(p)
        data = [5, 3, 8, 1, 9, 2, 7, 7, 0, 4, 6]
        assert run_quicksort(ctx, data) == sorted(data)

    def test_empty_and_singleton(self, ctx4):
        assert run_quicksort(ctx4, []) == []
        assert run_quicksort(ctx4, [42]) == [42]

    def test_numeric_reduction_tree(self, ctx4):
        """Summation as d&c: split halves, join adds."""
        res = ctx4.divide_and_conquer(
            is_trivial=lambda l: len(l) <= 2,
            solve=lambda l: sum(l),
            split=lambda l: [l[: len(l) // 2], l[len(l) // 2 :]],
            join=lambda rs: rs[0] + rs[1],
            problem=list(range(100)),
        )
        assert res == sum(range(100))

    def test_charges_time(self, ctx4):
        ctx4.machine.reset()
        run_quicksort(ctx4, list(range(64, 0, -1)))
        assert ctx4.machine.time > 0.0

    def test_parallel_speedup_compute_bound(self):
        """More processors -> less simulated time when leaves are
        compute-heavy (quicksort itself is communication-bound at
        transputer link speeds, so we use an expensive solve)."""
        heavy_solve = skil_fn(ops=500)(lambda l: sum(x * x for x in l))
        times = {}
        data = list(range(1024))
        for p in (1, 16):
            ctx = make_ctx(p)
            res = ctx.divide_and_conquer(
                is_trivial=lambda l: len(l) <= 64,
                solve=heavy_solve,
                split=lambda l: [l[: len(l) // 2], l[len(l) // 2 :]],
                join=lambda rs: rs[0] + rs[1],
                problem=data,
                nbytes_of=lambda pb: 8 * max(1, len(pb)),
            )
            assert res == sum(x * x for x in data)
            times[p] = ctx.machine.time
        assert times[16] < times[1]

    def test_quicksort_communication_bound_on_many_procs(self):
        """Documented behaviour: shipping list halves over T800 links
        costs more than sorting them locally, so plain quicksort does
        not speed up — the motivation for compute-heavy d&c uses."""
        rng = np.random.default_rng(3)
        data = rng.integers(0, 10**6, size=2048).tolist()
        for p in (1, 16):
            ctx = make_ctx(p)
            assert run_quicksort(ctx, data) == sorted(data)

    def test_split_returning_nothing_rejected(self, ctx4):
        with pytest.raises(SkeletonError):
            ctx4.divide_and_conquer(
                is_trivial=lambda l: False,
                solve=lambda l: l,
                split=lambda l: [],
                join=lambda rs: rs,
                problem=[1, 2, 3],
            )

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=60))
    @settings(max_examples=20, deadline=None)
    def test_property_sorts_any_list(self, data):
        ctx = make_ctx(4)
        assert run_quicksort(ctx, data) == sorted(data)


class TestOperatorSections:
    def test_full_application(self):
        assert PLUS(2, 3) == 5
        assert TIMES(4, 5) == 20
        assert MIN(7, 3) == 3

    def test_partial_application(self):
        """The paper's map((*)(2), lst2) idiom."""
        double = TIMES(2)
        assert double(21) == 42

    def test_section_lookup(self):
        assert section("+") is PLUS
        assert section("min") is MIN

    def test_unknown_section(self):
        with pytest.raises(SkeletonError):
            section("@@")

    def test_repr(self):
        assert repr(PLUS) == "(+)"

    def test_numpy_kernels_attached(self):
        assert PLUS.np_op is np.add
        assert MIN.np_reduce == np.minimum.reduce

    def test_commutative_flags(self):
        assert PLUS.commutative_associative
        assert not section("-").commutative_associative


class TestPapply:
    def test_preserves_ops(self):
        f = skil_fn(ops=3)(lambda a, b, c: a + b + c)
        g = papply(f, 1, 2)
        assert g.ops == 3
        assert g(4) == 7

    def test_preserves_vectorized(self):
        f = skil_fn(
            ops=1, vectorized=lambda k, blk, grids, env: blk * k
        )(lambda k, v, ix: v * k)
        g = papply(f, 10)
        out = g.vectorized(np.arange(4.0), None, None)
        np.testing.assert_array_equal(out, [0, 10, 20, 30])

    def test_chained(self):
        f = lambda a, b, c: (a, b, c)  # noqa: E731
        assert papply(papply(f, 1), 2)(3) == (1, 2, 3)


class TestSkilFn:
    def test_defaults(self):
        f = skil_fn()(lambda x: x)
        assert f.ops == 1.0
        assert not f.commutative_associative

    def test_annotations(self):
        f = skil_fn(ops=2.5, commutative_associative=True)(lambda x, y: x + y)
        assert f.ops == 2.5
        assert f.commutative_associative
