"""Tests for array_broadcast_part, array_permute_rows and array_gen_mult."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.machine.machine import DISTR_DEFAULT, DISTR_TORUS2D, Machine
from repro.skeletons import MIN, PLUS, TIMES, SkilContext, skil_fn

from .conftest import create_2d, make_ctx, zero


class TestBroadcastPart:
    def test_overwrites_all_partitions(self, ctx4):
        # p x m array, one row per processor (the gauss piv layout)
        a = create_2d(ctx4, 4, 6, distr=DISTR_DEFAULT)
        ctx4.array_broadcast_part(a, (2, 0))
        g = a.global_view()
        for r in range(4):
            np.testing.assert_array_equal(g[r], g[2])

    def test_owner_selected_by_index(self, ctx4):
        a = create_2d(ctx4, 4, 6, distr=DISTR_DEFAULT)
        row3 = a.global_view()[3].copy()
        ctx4.array_broadcast_part(a, (3, 5))
        np.testing.assert_array_equal(a.global_view()[0], row3)

    def test_communication_happened(self, ctx4):
        a = create_2d(ctx4, 4, 6, distr=DISTR_DEFAULT)
        ctx4.machine.reset()
        ctx4.array_broadcast_part(a, (0, 0))
        assert ctx4.machine.stats.messages == 3  # binomial tree, p-1

    def test_unequal_partitions_rejected(self, ctx4):
        a = create_2d(ctx4, 6, 6, distr=DISTR_DEFAULT)  # 6 rows on 4 procs
        with pytest.raises(SkeletonError):
            ctx4.array_broadcast_part(a, (0, 0))


class TestPermuteRows:
    def test_identity(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        ctx4.array_permute_rows(a, lambda i: i, b)
        np.testing.assert_array_equal(b.global_view(), a.global_view())

    def test_swap_two_rows(self, ctx4):
        """The gauss switch_rows pattern."""
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)

        def switch(i, r1=1, r2=6):
            return r2 if i == r1 else (r1 if i == r2 else i)

        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        ctx4.array_permute_rows(a, switch, b)
        g, h = a.global_view(), b.global_view()
        np.testing.assert_array_equal(h[6], g[1])
        np.testing.assert_array_equal(h[1], g[6])
        np.testing.assert_array_equal(h[0], g[0])

    def test_reversal(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        ctx4.array_permute_rows(a, lambda i: 7 - i, b)
        np.testing.assert_array_equal(b.global_view(), a.global_view()[::-1])

    def test_non_bijective_is_runtime_error(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        with pytest.raises(SkeletonError, match="bijection"):
            ctx4.array_permute_rows(a, lambda i: 0, b)

    def test_1d_rejected(self, ctx4):
        from .conftest import create_1d

        a = create_1d(ctx4, 8)
        b = create_1d(ctx4, 8)
        with pytest.raises(SkeletonError):
            ctx4.array_permute_rows(a, lambda i: i, b)

    def test_same_array_rejected(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        with pytest.raises(SkeletonError):
            ctx4.array_permute_rows(a, lambda i: i, a)

    def test_works_on_torus_grid(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_TORUS2D)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_TORUS2D)
        ctx4.array_permute_rows(a, lambda i: 7 - i, b)
        np.testing.assert_array_equal(b.global_view(), a.global_view()[::-1])

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_bijections(self, seed):
        """Property: any bijection is realized exactly."""
        rng = np.random.default_rng(seed)
        perm = rng.permutation(8)
        ctx = make_ctx(4)
        a = create_2d(ctx, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx, 8, init=zero, distr=DISTR_DEFAULT)
        ctx.array_permute_rows(a, lambda i: int(perm[i]), b)
        g = a.global_view()
        h = b.global_view()
        for i in range(8):
            np.testing.assert_array_equal(h[perm[i]], g[i])


class TestRotateRows:
    def test_rotate_down(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        ctx4.array_rotate_rows(a, 3, b)
        np.testing.assert_array_equal(b.global_view(), np.roll(a.global_view(), 3, 0))

    def test_rotate_up(self, ctx4):
        a = create_2d(ctx4, 8, distr=DISTR_DEFAULT)
        b = create_2d(ctx4, 8, init=zero, distr=DISTR_DEFAULT)
        ctx4.array_rotate_rows(a, -2, b)
        np.testing.assert_array_equal(b.global_view(), np.roll(a.global_view(), -2, 0))


class TestGenMult:
    def _three(self, ctx, n, fill_c=0.0, dtype=np.float64):
        rng = np.random.default_rng(7)
        A = rng.integers(0, 9, size=(n, n)).astype(dtype)
        B = rng.integers(0, 9, size=(n, n)).astype(dtype)
        a = DistArray.from_global(ctx.machine, A, DISTR_TORUS2D)
        b = DistArray.from_global(ctx.machine, B, DISTR_TORUS2D)
        c = DistArray.from_global(
            ctx.machine, np.full((n, n), fill_c, dtype=dtype), DISTR_TORUS2D
        )
        return a, b, c, A, B

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_classical_matmul(self, p):
        ctx = make_ctx(p)
        a, b, c, A, B = self._three(ctx, 8)
        ctx.array_gen_mult(a, b, PLUS, TIMES, c)
        np.testing.assert_allclose(c.global_view(), A @ B)

    def test_arguments_unchanged(self, ctx4):
        """shpaths reuses a right after the call, so a and b must be
        observably untouched."""
        a, b, c, A, B = self._three(ctx4, 8)
        ctx4.array_gen_mult(a, b, PLUS, TIMES, c)
        np.testing.assert_array_equal(a.global_view(), A)
        np.testing.assert_array_equal(b.global_view(), B)

    def test_min_plus_semiring(self, ctx4):
        """The shortest-paths composition (min, +)."""
        a, b, c, A, B = self._three(ctx4, 8, fill_c=np.inf)
        ctx4.array_gen_mult(a, b, MIN, PLUS, c)
        expect = np.min(A[:, :, None] + B[None, :, :], axis=1)
        np.testing.assert_allclose(c.global_view(), expect)

    def test_initial_c_seeds_accumulator(self, ctx4):
        a, b, c, A, B = self._three(ctx4, 8, fill_c=100.0)
        ctx4.array_gen_mult(a, b, PLUS, TIMES, c)
        np.testing.assert_allclose(c.global_view(), A @ B + 100.0)

    def test_scalar_fallback_matches(self, ctx4):
        a, b, c, A, B = self._three(ctx4, 4)
        add = skil_fn(ops=1)(lambda x, y: x + y)
        mul = skil_fn(ops=1)(lambda x, y: x * y)
        ctx4.array_gen_mult(a, b, add, mul, c)
        np.testing.assert_allclose(c.global_view(), A @ B)

    def test_proc_id_reset_when_gen_mult_raises(self, ctx4):
        """A failing gen_mult must not leave procId pinned to its rank."""
        a, b, c, A, B = self._three(ctx4, 4)
        add = skil_fn(ops=1)(lambda x, y: x + y)

        @skil_fn(ops=1)
        def mul(x, y):
            if ctx4.proc_id() == 2:
                raise ValueError("boom")
            return x * y

        with pytest.raises(ValueError):
            ctx4.array_gen_mult(a, b, add, mul, c)
        assert ctx4.current_rank is None
        with pytest.raises(SkeletonError):
            ctx4.proc_id()

    def test_aliased_arguments_rejected(self, ctx4):
        a, b, c, A, B = self._three(ctx4, 8)
        with pytest.raises(SkeletonError):
            ctx4.array_gen_mult(a, a, PLUS, TIMES, c)
        with pytest.raises(SkeletonError):
            ctx4.array_gen_mult(a, b, PLUS, TIMES, a)

    def test_requires_torus(self, ctx4):
        n = 8
        A = np.zeros((n, n))
        a = DistArray.from_global(ctx4.machine, A, DISTR_DEFAULT)
        b = DistArray.from_global(ctx4.machine, A, DISTR_DEFAULT)
        c = DistArray.from_global(ctx4.machine, A, DISTR_DEFAULT)
        with pytest.raises(SkeletonError, match="TORUS"):
            ctx4.array_gen_mult(a, b, PLUS, TIMES, c)

    def test_non_square_grid_rejected(self):
        ctx = make_ctx(8)  # 2x4 mesh -> non-square torus
        A = np.zeros((8, 8))
        a = DistArray.from_global(ctx.machine, A, DISTR_TORUS2D)
        b = DistArray.from_global(ctx.machine, A, DISTR_TORUS2D)
        c = DistArray.from_global(ctx.machine, A, DISTR_TORUS2D)
        with pytest.raises(SkeletonError, match="square"):
            ctx.array_gen_mult(a, b, PLUS, TIMES, c)

    def test_rotations_counted(self, ctx16):
        a, b, c, A, B = self._three(ctx16, 8)
        ctx16.machine.reset()
        ctx16.array_gen_mult(a, b, PLUS, TIMES, c)
        # skew (2) + 2*(g-1) rotations (6) + unskew (2) shifts; each
        # moves up to p partitions
        assert ctx16.machine.stats.messages > 16

    @given(
        n=st.sampled_from([4, 8, 12]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_semiring_vs_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.integers(0, 50, size=(n, n)).astype(float)
        B = rng.integers(0, 50, size=(n, n)).astype(float)
        ctx = make_ctx(4)
        a = DistArray.from_global(ctx.machine, A, DISTR_TORUS2D)
        b = DistArray.from_global(ctx.machine, B, DISTR_TORUS2D)
        c = DistArray.from_global(
            ctx.machine, np.full((n, n), np.inf), DISTR_TORUS2D
        )
        ctx.array_gen_mult(a, b, MIN, PLUS, c)
        expect = np.min(A[:, :, None] + B[None, :, :], axis=1)
        np.testing.assert_allclose(c.global_view(), expect)
