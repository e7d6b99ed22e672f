"""Tests for the Gaussian elimination and matmul applications."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gauss import (
    ELEMREC,
    MaxAbsInCol,
    gauss_full,
    gauss_simple,
    make_elemrec,
    random_system,
    switch_rows,
)
from repro.apps.matmul import matmul
from repro.errors import SkilError, SkilRuntimeError
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext


def make_ctx(p):
    return SkilContext(Machine(p), SKIL)


class TestArgumentFunctions:
    def test_make_elemrec_scalar(self):
        rec = make_elemrec(3.5, (2, 7))
        assert rec["val"] == 3.5
        assert rec["row"] == 2 and rec["col"] == 7

    def test_make_elemrec_vectorized(self):
        import numpy as np

        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        grids = (np.array([[5], [6]]), np.array([[0, 1]]))
        out = make_elemrec.vectorized(block, grids, None)
        assert out.dtype == ELEMREC
        assert out["row"][1, 0] == 6
        assert out["val"][0, 1] == 2.0

    def test_max_abs_in_col_scalar(self):
        f = MaxAbsInCol(1)
        a = np.zeros((), ELEMREC)
        b = np.zeros((), ELEMREC)
        a["val"], a["row"], a["col"] = -9.0, 2, 1
        b["val"], b["row"], b["col"] = 5.0, 3, 1
        assert f(a, b)["row"] == 2  # |−9| beats |5|

    def test_max_abs_ignores_other_columns(self):
        f = MaxAbsInCol(1)
        a = np.zeros((), ELEMREC)
        b = np.zeros((), ELEMREC)
        a["val"], a["col"] = 100.0, 0  # wrong column
        b["val"], b["col"], b["row"] = 1.0, 1, 1
        assert f(a, b)["val"] == 1.0

    def test_max_abs_ignores_done_rows(self):
        """Rows < k already served as pivots and must not be re-picked."""
        f = MaxAbsInCol(2)
        a = np.zeros((), ELEMREC)
        b = np.zeros((), ELEMREC)
        a["val"], a["col"], a["row"] = 100.0, 2, 0  # row < k
        b["val"], b["col"], b["row"] = 1.0, 2, 3
        assert f(a, b)["row"] == 3

    def test_reduce_all_matches_pairwise(self):
        f = MaxAbsInCol(0)
        recs = np.zeros(6, ELEMREC)
        recs["val"] = [3, -7, 2, 5, -7, 1]
        recs["row"] = np.arange(6)
        recs["col"] = 0
        best = f.reduce_all(recs)
        from functools import reduce

        pairwise = reduce(f, list(recs))
        assert best["row"] == pairwise["row"] == 1  # first of the |−7| tie

    def test_switch_rows(self):
        assert switch_rows(2, 5, 2) == 5
        assert switch_rows(2, 5, 5) == 2
        assert switch_rows(2, 5, 3) == 3


class TestGaussSimple:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_correct(self, p):
        a, b = random_system(16, seed=1)
        x, rep = gauss_simple(make_ctx(p), a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b))
        assert rep.n == 16

    def test_rejects_indivisible(self):
        a, b = random_system(10, seed=1)
        with pytest.raises(SkilError, match="divisible"):
            gauss_simple(make_ctx(4), a, b)

    def test_zero_pivot_raises(self):
        a, b = random_system(8, seed=1)
        a[0, 0] = 0.0
        a[0, 1:] = 0.0  # make row 0 otherwise harmless
        with pytest.raises(SkilRuntimeError, match="pivot"):
            gauss_simple(make_ctx(4), a, b)

    def test_memory_freed(self):
        ctx = make_ctx(4)
        a, b = random_system(8, seed=1)
        gauss_simple(ctx, a, b)
        assert ctx.machine.max_memory_used() == 0


class TestGaussFull:
    def test_correct_with_pivoting(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1, 1, (16, 16))
        a[0, 0] = 0.0
        b = rng.uniform(-1, 1, 16)
        x, _ = gauss_full(make_ctx(4), a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-8, atol=1e-10)

    def test_singular_matrix_raises(self):
        a = np.zeros((8, 8))
        b = np.ones(8)
        with pytest.raises(SkilRuntimeError, match="singular"):
            gauss_full(make_ctx(4), a, b)

    def test_rank_deficient_detected(self):
        a, b = random_system(8, seed=3)
        a[7] = 0.0  # an all-zero row survives elimination untouched
        with pytest.raises(SkilRuntimeError, match="singular"):
            gauss_full(make_ctx(4), a, b)

    def test_full_costs_more_than_simple(self):
        """§5.2: 'the run-times were here about twice as long'."""
        a, b = random_system(32, seed=4)
        _, r_simple = gauss_simple(make_ctx(4), a, b)
        _, r_full = gauss_full(make_ctx(4), a, b)
        assert 1.5 < r_full.seconds / r_simple.seconds < 3.5

    @given(seed=st.integers(0, 200))
    @settings(max_examples=10, deadline=None)
    def test_property_random_permuted_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        a, b = random_system(n, seed=seed)
        perm = rng.permutation(n)
        a = a[perm]  # destroys diagonal dominance ordering
        b = b[perm]
        x, _ = gauss_full(make_ctx(4), a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("solve", [gauss_simple, gauss_full])
def test_paper_shaped_scalar_bodies_equal_the_kernels(solve, monkeypatch):
    """Without their kernels, copy_pivot, eliminate and normalize run the
    paper's scalar bodies element by element (procId, get_elem): the
    solution and the simulated seconds are the kernel path's, bitwise."""
    from repro.apps import gauss

    rng = np.random.default_rng(6)
    a, b = random_system(8, seed=6)
    perm = rng.permutation(8)  # gauss_full exchanges rows
    a, b = a[perm], b[perm]
    want_x, want = solve(make_ctx(4), a, b)
    for fn in (gauss.copy_pivot, gauss.eliminate, gauss.normalize):
        monkeypatch.delattr(fn, "vectorized")
    got_x, got = solve(make_ctx(4), a, b)
    assert got_x.tobytes() == want_x.tobytes()
    assert repr(got.seconds) == repr(want.seconds)


class TestMatmul:
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_correct(self, p):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (16, 16))
        b = rng.uniform(-1, 1, (16, 16))
        c, rep = matmul(make_ctx(p), a, b)
        np.testing.assert_allclose(c, a @ b)

    def test_rejects_rectangular(self):
        with pytest.raises(SkilError):
            matmul(make_ctx(4), np.zeros((4, 6)), np.zeros((6, 4)))

    def test_rejects_indivisible(self):
        with pytest.raises(SkilError, match="divisible"):
            matmul(make_ctx(4), np.zeros((7, 7)), np.zeros((7, 7)))

    def test_scales_with_processors(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(size=(32, 32))
        b = rng.uniform(size=(32, 32))
        times = {}
        for p in (1, 16):
            _, rep = matmul(make_ctx(p), a, b)
            times[p] = rep.seconds
        assert times[16] < times[1] / 4  # decent parallel efficiency
