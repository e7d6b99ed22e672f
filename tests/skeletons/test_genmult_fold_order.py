"""``array_gen_mult``'s fold order is a contract.

Every ``c[i, j]`` folds *gen_add* over ``k = 0 … n - 1`` in ascending
order, seeded by ``c``'s initial value, whichever path computes it: the
pooled whole-matrix fold, the per-rank blocks of ``fused=False`` and the
``threads`` backend.  Float inputs holding signed zeros, NaNs (two
payloads) and infinities make that visible: ``min(-0.0, +0.0)`` keeps
one of the two, and ``inf + -inf`` or a NaN operand decides which NaN
propagates, so only one fold order matches bit for bit.

A NaN meets a NaN only inside the fold, never inside one ``gen_mult``:
which payload ``NaN + NaN`` carries is left open by IEEE 754, and numpy's
SIMD and scalar loops (chosen by length and alignment) answer it
differently.  So one operand of every ``+`` holds no NaN.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.machine.machine import DISTR_TORUS2D, Machine
from repro.skeletons import MAX, MIN, PLUS, SkilContext, semiring_block_product

#: ``inf + -inf`` is one of the NaNs the draws are for
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

#: a NaN whose payload and sign differ from ``np.nan``'s
_OTHER_NAN = np.uint64(0xFFF8_0000_0000_0001).view(np.float64)
_SPECIALS = np.array([-0.0, 0.0, np.nan, _OTHER_NAN, np.inf, -np.inf, 1.0, 2.0])
_NO_NAN = _SPECIALS[~np.isnan(_SPECIALS)]


def _draw(n: int, seed: int, square: bool):
    """``(a, b, c)``: NaNs in ``a`` (unless squared) and ``c``, none in ``b``."""
    rng = np.random.default_rng(seed)
    a = rng.choice(_NO_NAN if square else _SPECIALS, (n, n))
    return a, a if square else rng.choice(_NO_NAN, (n, n)), rng.choice(_SPECIALS, (n, n))


def _ascending_fold(add, mul, a, b, c):
    out = c.copy()
    for k in range(a.shape[1]):
        out = add.np_op(out, mul.np_op(a[:, k, None], b[None, k, :]))
    return out


def _run(p, mode, square, add, da, db, dc):
    machine = Machine(p, backend="threads", workers=2) if mode == "threads" else Machine(p)
    with machine:
        ctx = SkilContext(machine, fused=mode != "per-rank")
        a = DistArray.from_global(machine, da, DISTR_TORUS2D)
        c = DistArray.from_global(machine, dc, DISTR_TORUS2D)
        if square:
            ctx.array_gen_mult_square(a, add, PLUS, c)
        else:
            b = DistArray.from_global(machine, db, DISTR_TORUS2D)
            ctx.array_gen_mult(a, b, add, PLUS, c)
            assert b.global_view().tobytes() == db.tobytes()
        assert a.global_view().tobytes() == da.tobytes()
        return c.global_view()


@pytest.mark.parametrize("square", [False, True], ids=["gen_mult", "square"])
@pytest.mark.parametrize("add", [MIN, MAX], ids=["min", "max"])
@pytest.mark.parametrize("p", [1, 4, 9, 16])
def test_every_path_folds_in_ascending_k(p, add, square):
    g = int(p ** 0.5)
    for n in (g, 3 * g):  # 1 x 1 blocks, and 3 x 3
        da, db, dc = _draw(n, 10 * p + n, square)
        want = _ascending_fold(add, PLUS, da, db, dc).view(np.uint64)
        for mode in ("fused", "per-rank", "threads"):
            got = _run(p, mode, square, add, da, db, dc)
            np.testing.assert_array_equal(got.view(np.uint64), want, err_msg=mode)


def test_signed_zero_ties_pick_the_last_k():
    """``np.minimum`` keeps its second operand on a ``±0`` tie, so the
    ascending fold ends on the sign of the last tied ``k`` (``x + -0.0``
    is ``x``): a Gentleman rotation order would end on another one."""
    a = np.array([[0.0, -0.0], [-0.0, 0.0]])
    b = np.full((2, 2), -0.0)
    c = np.full((2, 2), np.inf)
    want = np.array([[-0.0, -0.0], [0.0, 0.0]])
    for mode in ("fused", "per-rank"):
        got = _run(4, mode, False, MIN, a, b, c)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m,k,n", [(1, 5, 1), (3000, 3, 1), (1, 40, 3000), (70, 40, 1100)])
@pytest.mark.parametrize("add", [MIN, MAX], ids=["min", "max"])
def test_block_product_is_a_left_fold_at_any_tiling(m, k, n, add):
    """Row and k tiles, one-column and 1 x 1 results: still the fold."""
    rng = np.random.default_rng(m + k + n)
    a, b, c = (rng.choice(pool, shape) for pool, shape in
               ((_SPECIALS, (m, k)), (_NO_NAN, (k, n)), (_SPECIALS, (m, n))))
    want = _ascending_fold(add, PLUS, a, b, c)
    got = semiring_block_product(add, PLUS, a, b, c)
    assert got.tobytes() == want.tobytes()
