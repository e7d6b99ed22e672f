"""Tests for the divide&conquer skeleton and the functional plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.quicksort import quicksort
from repro.errors import MachineError, SkeletonError
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

    def test_balanced_compute_what_if_is_refused(self, ctx4):
        ctx4.machine.network.balance_compute = True
        with pytest.raises(MachineError, match="balanced-compute what-if"):
            run_quicksort(ctx4, list(range(64, 0, -1)))

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

    def test_unsized_problem_counts_as_one(self, ctx4):
        """An int has no ``len``: d&c charges and ships it as size 1, the
        rule farm applies to a task."""

        def run(ctx, **kw):
            return ctx.divide_and_conquer(
                lambda n: n <= 1, lambda n: n, lambda n: [n // 2, n - n // 2],
                sum, 10, **kw)

        assert run(ctx4) == 10
        ref = make_ctx(4)
        assert run(ref, size_of=lambda n: 1) == 10
        assert ctx4.machine.time == ref.machine.time > 0.0
        assert ctx4.machine.stats.bytes_sent == ref.machine.stats.bytes_sent

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

    @pytest.mark.parametrize("ops", [-5, -0.5, float("nan"), float("inf")])
    def test_bad_ops_refused_when_decorated(self, ops):
        """A negative or non-finite count would run the simulated clock
        backwards (or to nan) on the first call."""
        with pytest.raises(SkeletonError, match="ops must be a finite number"):
            skil_fn(ops=ops)(lambda x, ix: x)


def _closure_over_env(b, g, env):
    return [env for _ in b]


def _calls_locals(b, g, env):
    return locals()["b"]


def _loads_env(b, g, env):
    return b + env.rank


def _rebinds_env(b, g, env):
    env = 0
    return b + env


class TestEnvVerdict:
    """``skil_fn`` judges once, from the kernel's code, whether it may
    read its env: the last positional parameter without a default."""

    @pytest.mark.parametrize(
        "kernel,env_free",
        [
            (lambda b, g, env: b * 2.0 + g[0], True),
            (lambda g, e: g[0] * 1.0, True),
            (lambda b, g, e, _k=3.0: b * _k, True),  # bound constants after env
            (lambda b, g, e, _k=3.0: b * _k + e.rank, False),
            (_loads_env, False),
            (_rebinds_env, False),
            (_closure_over_env, False),
            (_calls_locals, False),
            (lambda *args: args[0], False),
            (lambda b=1.0: b, False),  # no parameter without a default
        ],
        ids=["map", "create", "bound_constant", "bound_constant_reads_env",
             "reads_env", "rebinds_env", "closure", "locals", "varargs",
             "all_defaults"],
    )
    def test_verdict_from_code(self, kernel, env_free):
        skil_fn(vectorized=kernel)(lambda v, ix: v)
        assert kernel.env_free is env_free

    def test_a_stated_verdict_wins(self):
        def kernel(b, g, env):
            return b + env.rank

        kernel.env_free = True  # what lang/codegen.py and bench/env.py do
        skil_fn(vectorized=kernel)(lambda v, ix: v)
        assert kernel.env_free is True

    def test_callables_without_code_read_the_env(self):
        class Kernel:
            def __call__(self, b, g, env):
                return b

            def method(self, b, g, env):
                return b

        obj = Kernel()
        skil_fn(vectorized=obj)(lambda v, ix: v)
        assert obj.env_free is False
        f = skil_fn(vectorized=obj.method)(lambda v, ix: v)  # rejects attributes
        assert getattr(f.vectorized, "env_free", False) is False

    def test_partial_applications_copy_the_verdict(self):
        from repro.lang.runtime import make_kernel

        for vec, env_free in ((lambda k, b, g, e: b * k, True),
                              (lambda k, b, g, e: b * e.rank, False)):
            f = skil_fn(vectorized=vec)(lambda k, v, ix: v)
            assert papply(f, 2.0).vectorized.env_free is env_free
            assert make_kernel(f, (2.0,)).vectorized.env_free is env_free

        def unjudged(k, b, g, e):
            return b * k

        f = lambda k, v, ix: v  # noqa: E731
        f.vectorized = unjudged
        assert papply(f, 2.0).vectorized.env_free is False
        assert make_kernel(f, (2.0,)).vectorized.env_free is False
