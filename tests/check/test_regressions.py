"""Regression anchors for the latent bugs surfaced by ``repro.check``.

Two bug families came out of the first oracle/fuzzer runs:

1. the block-coordinate skeletons (``array_scan``,
   ``array_permute_rows``, ``array_broadcast_part``) accepted cyclic
   distributions and silently corrupted data (or crashed with an
   ``IndexError`` deep in the write-back);
2. the kernel vectorizer translated integer ``%`` and ``/`` to numpy's
   *floored* operators while the scalar code path (and the language
   semantics) use C's *truncating* ``c_div``/``c_mod`` — vectorized and
   scalar runs of the same Skil program disagreed on negative operands.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.arrays.distribution import BlockCyclicDistribution, CyclicDistribution
from repro.errors import SkeletonError
from repro.lang.compiler import compile_skil
from repro.lang.runtime import c_div, c_mod
from repro.machine.machine import DISTR_DEFAULT, Machine
from repro.skeletons import MIN, PLUS, SkilContext


def _cyclic_pair(ctx, data):
    grid = (ctx.p,) + (1,) * (data.ndim - 1)
    out = []
    for _ in range(2):
        arr = DistArray(
            ctx.machine, CyclicDistribution(data.shape, grid), data.dtype,
            DISTR_DEFAULT,
        )
        arr.fill_from_global(data)
        out.append(arr)
    return out


class TestCyclicGuards:
    """Found by the skeleton oracle (seeds 4, 6, 7 of the first run)."""

    def test_scan_rejects_cyclic(self):
        ctx = SkilContext(Machine(2))
        a, b = _cyclic_pair(ctx, np.arange(8, dtype=np.int64))
        with pytest.raises(SkeletonError, match="block distribution"):
            ctx.array_scan(PLUS, a, b)

    def test_scan_rejects_block_cyclic(self):
        ctx = SkilContext(Machine(2))
        data = np.arange(8, dtype=np.int64)
        arrs = []
        for _ in range(2):
            arr = DistArray(
                ctx.machine,
                BlockCyclicDistribution((8,), (2,), (2,)),
                data.dtype,
                DISTR_DEFAULT,
            )
            arr.fill_from_global(data)
            arrs.append(arr)
        with pytest.raises(SkeletonError, match="block distribution"):
            ctx.array_scan(MIN, arrs[0], arrs[1])

    def test_permute_rows_rejects_cyclic(self):
        ctx = SkilContext(Machine(2))
        a, b = _cyclic_pair(ctx, np.arange(12, dtype=np.int64).reshape(4, 3))
        with pytest.raises(SkeletonError, match="block distribution"):
            ctx.array_permute_rows(a, lambda i: (i + 1) % 4, b)

    def test_broadcast_part_rejects_cyclic(self):
        ctx = SkilContext(Machine(2))
        a, _ = _cyclic_pair(ctx, np.arange(8, dtype=np.int64))
        with pytest.raises(SkeletonError, match="block distribution"):
            ctx.array_broadcast_part(a, (0,))

    def test_block_arrays_still_accepted(self):
        ctx = SkilContext(Machine(2))
        data = np.arange(8, dtype=np.int64)
        a = DistArray.from_global(ctx.machine, data)
        b = DistArray.from_global(ctx.machine, np.zeros(8, np.int64))
        ctx.array_scan(PLUS, a, b)
        np.testing.assert_array_equal(b.global_view(), np.cumsum(data))


# minimized from fuzzer seed 4 of the first run: element 5 takes the
# negative branch, and (1 - 5) % 9973 is -4 in C but 9969 under numpy's
# floored modulo, which the vectorizer used to emit
_NEG_MOD_SRC = """
int init1 (Index ix) { return ix[0]; }
int mapk1 (int c0, int c1, int v, Index ix) {
  return ((ix[0] <= 4) ? ((ix[0] * 4 + c1) % 9973) : ((c0 - ix[0]) % 9973));
}
int convk0 (int v, Index ix) { return v; }

int entry () {
  array<int> a1;
  int f0;
  a1 = array_create (1, {6}, {0}, {-1}, init1, DISTR_DEFAULT);
  array_map (mapk1 (1, 6), a1, a1);
  f0 = array_fold (convk0, (+), a1);
  return (f0);
}
"""

_NEG_DIV_SRC = """
int init1 (Index ix) { return 3 - ix[0] * 2; }
int mapk1 (int v, Index ix) { return (v / 2 + v % 3); }
int convk0 (int v, Index ix) { return v; }

int entry () {
  array<int> a1;
  int f0;
  a1 = array_create (1, {7}, {0}, {-1}, init1, DISTR_DEFAULT);
  array_map (mapk1, a1, a1);
  f0 = array_fold (convk0, (+), a1);
  return (f0);
}
"""


class TestTruncatingDivMod:
    """Found by the fuzzer's interpreter/compiled differential run."""

    def test_vectorized_mod_matches_c_semantics(self):
        mod = compile_skil(_NEG_MOD_SRC)
        got = mod.run("entry", ctx=SkilContext(Machine(1)))
        # 6+10+14+18+22 from the uniform branch, plus C's (1-5)%9973 = -4
        assert int(got) == 70 - 4

    def test_vectorized_div_matches_scalar_interpreter(self):
        from repro.check.interp import Interp
        from repro.lang.parser import parse
        from repro.lang.typecheck import check

        mod = compile_skil(_NEG_DIV_SRC)
        compiled = int(mod.run("entry", ctx=SkilContext(Machine(1))))
        interp = int(Interp(check(parse(_NEG_DIV_SRC))).run("entry"))
        assert compiled == interp
        # hand-computed with C's truncating / and %
        assert compiled == -12

    @pytest.mark.parametrize("a", [-9, -4, -1, 0, 1, 4, 9, 2**40, -(2**40)])
    @pytest.mark.parametrize("b", [3, -3, 7, 9973])
    def test_array_cdiv_cmod_match_scalar(self, a, b):
        va = np.array([a], dtype=np.int64)
        vb = np.array([b], dtype=np.int64)
        assert int(c_div(va, vb)[0]) == c_div(a, b)
        assert int(c_mod(va, vb)[0]) == c_mod(a, b)
        # and the scalar path is C's truncating division
        assert c_div(a, b) == int(np.fix(a / b))
        assert c_mod(a, b) == a - c_div(a, b) * b

    @pytest.mark.parametrize("a", [2**53 + 1, -(2**53 + 1), 2**62 + 7, -(2**63) + 5])
    @pytest.mark.parametrize("b", [1, 3, -3, 7, 2**31 - 1])
    def test_boxed_equals_vectorized_beyond_double_precision(self, a, b):
        """The scalar path once divided in floating point: above 2**53 it
        disagreed with the array path, e.g. ``c_mod(2**53 + 1, 1) == 1``."""
        va = np.array([a], dtype=np.int64)
        vb = np.array([b], dtype=np.int64)
        for x in (a, np.int64(a)):
            q, r = c_div(x, b), c_mod(x, b)
            assert q == int(c_div(va, vb)[0])
            assert r == int(c_mod(va, vb)[0])
            # exact C semantics in integers: truncation toward zero
            assert q * b + r == a and abs(r) < abs(b) and (r == 0 or (r < 0) == (a < 0))
