"""``array_gen_mult`` — generic matrix multiplication (Gentleman).

.. code-block:: c

   void array_gen_mult (array<$t> a, array<$t> b,
                        $t gen_add ($t, $t), $t gen_mult ($t, $t),
                        array<$t> c);

For each element of the result matrix the skeleton computes the "dot
product" of the corresponding row of *a* and column of *b*, with scalar
multiplication replaced by *gen_mult* and scalar addition by *gen_add* —
the classical multiplication with ``(+), (*)``, shortest paths with
``min, (+)`` (Section 4.1).

**The charged schedule.**  The implementation is "Gentleman's
distributed matrix multiplication algorithm, in which local partition
multiplications alternate with partition rotations among the
processors; these rotations are done horizontally for the first matrix
and vertically for the second one, while the mapping of the result
matrix remains unchanged."  On a ``g x g`` torus the skeleton states
exactly that data flow to its :class:`~repro.machine.charge.Charge`:

1. skew: the *a*-partition of grid position ``(i, j)`` is replaced by the
   one from ``(i, (j + i) mod g)``, the *b*-partition by the one from
   ``((i + j) mod g, j)``;
2. ``g`` rounds of: a local block product, then *a* rotates one step
   west and *b* one step north (skipped after the last round);
3. unskew, so the argument arrays are observably unchanged (the paper's
   shortest-paths program reuses ``a`` right after the call).

The rank pairs of every move are memoized on the torus
(:meth:`~repro.machine.topology.Torus2D.gentleman_pairs`).

**The computed product.**  The arithmetic does not replay that data
flow: every ``c[i, j]`` folds *gen_add* over ``k = 0 … n - 1`` in
ascending order, seeded by ``c``'s initial value::

    c[i, j] = gen_add(… gen_add(c[i, j], gen_mult(a[i, 0], b[0, j])) …,
                      gen_mult(a[i, n-1], b[n-1, j]))

A numpy semiring (*gen_add* with a numpy op and reduction) folds the
whole pools at once, in cache-sized tiles; the classical ``(+), (*)`` adds
one BLAS block product ``A(i, kb) · B(kb, j)`` per k-block, ``kb``
ascending (the sum inside a block product is BLAS's own); anything else
runs per rank and per k-block, element by element.
``SkilContext(fused=False)`` runs every semiring per rank on the same
kernels, so all paths agree bit for bit, signed-zero ties and NaNs
included (only the payload of ``NaN ⊗ NaN`` inside one *gen_mult* is
numpy's: its SIMD and scalar loops differ on it).

Because the skeleton cannot know the neutral element of *gen_add*, the
**initial contents of c seed the accumulation** — this is why the
shortest-paths program creates ``c`` filled with "infinity" (the neutral
element of ``min``) and the classical use case fills it with zero.

The matrices must be distinct ("calls of the form array_gen_mult(a, a,
...) and array_gen_mult(a, ..., a) are not allowed") and distributed on
a square torus grid with equal square partitions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.machine.topology import Torus2D
from repro.skeletons.base import ops_of, skeleton_span
from repro.skeletons.fuse import interleaved_view

__all__ = ["array_gen_mult", "array_gen_mult_square",
           "semiring_block_product", "pooled_product"]

#: a tile folds ``_K_TILE`` terms into as many accumulator rows as keep
#: it under ``_TILE_ELEMS`` (512 KiB of float64): the tile, its rows of
#: the accumulator and the operand rows stay in a 2 MiB L2 at any n
_TILE_ELEMS = 1 << 16
_K_TILE = 32


def _kind(gen_add, gen_mult, dtype) -> str | None:
    """``"blas"`` for the classical ``(+), (*)`` on numbers, ``"fold"``
    for any other numpy semiring, ``None`` for element-by-element."""
    add = getattr(gen_add, "np_op", None)
    mul = getattr(gen_mult, "np_op", None)
    if add is np.add and mul is np.multiply and dtype.kind in "fiu":
        return "blas"
    if add is not None and getattr(gen_add, "np_reduce", None) and mul is not None:
        return "fold"
    return None


def _fold(gen_add, gen_mult, A: np.ndarray, B: np.ndarray, acc: np.ndarray):
    """*acc* folded with ``gen_add`` over ``k`` ascending of
    ``gen_mult(A[:, k], B[k, :])``.

    A tile stacks rows of the accumulator on their terms, ``(1 + kt,
    rows, n)``, and reduces over axis 0: numpy reduces a non-innermost
    axis as one elementwise ufunc call per ``k``, in order — a left fold,
    whatever the tile.  A contiguous reduction is no left fold (numpy
    regroups it, and ties then pick other operands), so a ``1 x 1``
    result folds one ``k`` at a time and a one-column result is not cut
    into row tiles.
    """
    add, mul, reduce = gen_add.np_op, gen_mult.np_op, gen_add.np_reduce
    m, K = A.shape
    n = B.shape[1]
    if m * n == 1:
        for k in range(K):
            acc = add(acc, mul(A[:, k, None], B[None, k, :]))
        return acc
    kt = min(_K_TILE, K)
    rows = m if n == 1 else min(m, max(1, _TILE_ELEMS // (kt * n)))
    buf = np.empty((1 + kt, rows, n), dtype=acc.dtype)
    out = np.empty_like(acc)
    At = A.T
    for r0 in range(0, m, rows):
        r1 = min(r0 + rows, m)
        part = acc[r0:r1]
        for k0 in range(0, K, kt):
            k1 = min(k0 + kt, K)
            tile = buf[: 1 + k1 - k0, : r1 - r0]
            tile[0] = part
            if isinstance(mul, np.ufunc):
                mul(At[k0:k1, r0:r1, None], B[k0:k1, None, :], out=tile[1:])
            else:
                tile[1:] = mul(At[k0:k1, r0:r1, None], B[k0:k1, None, :])
            part = reduce(tile, axis=0)
        out[r0:r1] = part
    return out


def semiring_block_product(gen_add, gen_mult, A: np.ndarray, B: np.ndarray,
                           acc: np.ndarray) -> np.ndarray:
    """*acc* with the generic product of two local blocks folded in.

    ``acc + A @ B`` for the classical ``(+), (*)``, the ascending-k fold
    of :func:`_fold` for any other numpy semiring, and a Python triple
    loop over ``k`` ascending otherwise (tiny test problems only).
    """
    kind = _kind(gen_add, gen_mult, np.result_type(A, B, acc))
    if kind == "blas":
        return np.add(acc, A @ B)
    if kind == "fold":
        return _fold(gen_add, gen_mult, A, B, acc)
    m, k = A.shape
    n = B.shape[1]
    out = acc.copy()
    for i in range(m):
        for j in range(n):
            v = out[i, j]
            for kk in range(k):
                v = gen_add(v, gen_mult(A[i, kk], B[kk, j]))
            out[i, j] = v
    return out


def pooled_product(gen_add, gen_mult, A: np.ndarray, B: np.ndarray,
                   C: np.ndarray, g: int) -> np.ndarray | None:
    """The product of whole matrices blocked ``g x g``, folded into a
    copy of *C*, or ``None`` when the semiring has no whole-matrix form.

    Bitwise what the per-rank blocks compute: a numpy fold is one left
    fold at any tiling; the classical case adds the ``g x g`` block
    products of k-block ``kb`` as one broadcast ``matmul``, which makes
    the same BLAS call per block as a per-block ``@``.
    """
    acc_dtype = np.result_type(A, B, C)
    kind = _kind(gen_add, gen_mult, acc_dtype)
    if kind == "fold":
        return _fold(gen_add, gen_mult, A, B, C.astype(acc_dtype))
    if kind != "blas":
        return None
    # (g, m, g, k) views: A4[i, :, kb] is block (i, kb)
    A4 = interleaved_view(A, (g, g))
    B4 = interleaved_view(B, (g, g))
    acc = interleaved_view(C, (g, g)).transpose(0, 2, 1, 3).astype(acc_dtype)
    for kb in range(g):
        acc = np.add(acc, A4[:, None, :, kb] @ B4[kb].transpose(1, 0, 2)[None])
    return acc.transpose(0, 2, 1, 3).reshape(C.shape)


def _uniform_partition_shape(arr: DistArray) -> tuple[int, ...] | None:
    """Common partition shape of *arr*, ``None`` if partitions differ.

    Block distributions answer closed-form from their split points
    (O(grid) instead of an O(p) per-rank shape walk); anything else
    falls back to walking the local blocks.
    """
    probe = getattr(arr.dist, "uniform_block_shape", None)
    if probe is not None:
        return probe()
    shapes = {arr.local(r).shape for r in range(arr.dist.p)}
    return shapes.pop() if len(shapes) == 1 else None


def _require_square_torus(ctx, arr: DistArray, name: str) -> Torus2D:
    topo = ctx.machine.topology(arr.distr)
    if not isinstance(topo, Torus2D):
        raise SkeletonError(
            f"{name}: arrays must be distributed onto DISTR_TORUS2D "
            f"(got {arr.distr})"
        )
    if topo.grid_rows != topo.grid_cols:
        raise SkeletonError(
            f"{name}: Gentleman's algorithm needs a square processor grid, "
            f"got {topo.grid_rows}x{topo.grid_cols}"
        )
    return topo


@skeleton_span("array_gen_mult")
def array_gen_mult(
    ctx,
    a: DistArray,
    b: DistArray,
    gen_add: Callable,
    gen_mult: Callable,
    c: DistArray,
) -> None:
    """Compose *a* and *b* with the matrix-multiplication pattern into *c*."""
    ctx.check_distinct("array_gen_mult", a, b, c)
    _gen_mult_impl(ctx, a, b, gen_add, gen_mult, c)


@skeleton_span("array_gen_mult_square")
def array_gen_mult_square(
    ctx,
    a: DistArray,
    gen_add: Callable,
    gen_mult: Callable,
    c: DistArray,
) -> None:
    """Generic product of *a* with itself, accumulated into *c*.

    The paper forbids ``array_gen_mult(a, a, ...)`` because the real
    machine rotates the argument partitions in place; this entry point is
    the fusion pass's target for the ``array_copy(a, b);
    array_gen_mult(a, b, ...)`` idiom (shortest paths squares the
    adjacency matrix every iteration).  It is safe here because the
    product only reads its arguments and writes *c*, so ``b is a``
    observes exactly the values the fresh copy would — the copy's round
    and the second matrix vanish from the schedule while the result
    stays bit-equal.
    """
    ctx.check_distinct("array_gen_mult_square", a, c)
    _gen_mult_impl(ctx, a, a, gen_add, gen_mult, c)


def _product(ctx, a: DistArray, b: DistArray, gen_add, gen_mult,
             c: DistArray, g: int) -> None:
    """Write the ascending-k product into *c* (module docstring)."""
    if ctx.fused and all(x.pool is not None for x in (a, b, c)):
        out = pooled_product(gen_add, gen_mult, a.pool, b.pool, c.pool, g)
        if out is not None:
            c.pool[...] = out
            return
    acc_dtype = np.result_type(a.dtype, b.dtype, c.dtype)
    accs = []
    try:
        for r in range(ctx.p):
            ctx.current_rank = r
            i, j = divmod(r, g)
            acc = c.local(r).astype(acc_dtype)
            for kb in range(g):
                acc = semiring_block_product(
                    gen_add, gen_mult, a.local(i * g + kb), b.local(kb * g + j), acc
                )
            accs.append(acc)
    finally:
        # also when gen_add/gen_mult raise: no stale procId
        ctx.current_rank = None
    for r, acc in enumerate(accs):
        c.local(r)[...] = acc


def _gen_mult_impl(
    ctx,
    a: DistArray,
    b: DistArray,
    gen_add: Callable,
    gen_mult: Callable,
    c: DistArray,
) -> None:
    for arr in (a, b, c):
        if arr.dim != 2:
            raise SkeletonError("array_gen_mult applies only to 2-dimensional arrays")
    if a.shape[1] != b.shape[0] or c.shape != (a.shape[0], b.shape[1]):
        raise SkeletonError(
            f"array_gen_mult: incompatible shapes {a.shape} x {b.shape} -> {c.shape}"
        )
    topo = _require_square_torus(ctx, a, "array_gen_mult")
    g = topo.grid_rows
    if a.dist.grid != (g, g) or b.dist.grid != (g, g) or c.dist.grid != (g, g):
        raise SkeletonError("array_gen_mult: arrays must live on the torus grid")
    ua = _uniform_partition_shape(a)
    ub = _uniform_partition_shape(b)
    if ua is None or ua != ub:
        raise SkeletonError(
            "array_gen_mult: partitions must be equally sized (pad the matrix "
            "up to a multiple of the grid, as the paper does)"
        )
    nbytes_a = a.local(0).nbytes
    nbytes_b = b.local(0).nbytes

    # -- 1. skew ---------------------------------------------------------
    with ctx.phase("genmult:skew"):
        for mat, nbytes in (("a", nbytes_a), ("b", nbytes_b)):
            srcs, dsts = topo.gentleman_pairs((mat, +1))
            if srcs.size:
                ctx.charge.shift_batch(srcs, dsts, nbytes, topo, tag=f"genmult-skew-{mat}")

    # -- 2. multiply / rotate rounds --------------------------------------
    # one round: every (i, j, k) of the local block product pays one
    # gen_mult and one gen_add; the whole product is computed in the first
    m_loc, k_loc = ua
    round_work = (m_loc * ub[1] * k_loc, ops_of(gen_mult), ops_of(gen_add))
    for step in range(g):
        with ctx.phase("genmult:multiply"):
            if step == 0:
                _product(ctx, a, b, gen_add, gen_mult, c, g)
            ctx.charge.work(round_work)
        if step < g - 1:
            with ctx.phase("genmult:rotate"):
                ctx.charge.shift_batch(
                    *topo.gentleman_pairs("west"), nbytes_a, topo, tag="genmult-rot-a"
                )
                ctx.charge.shift_batch(
                    *topo.gentleman_pairs("north"), nbytes_b, topo, tag="genmult-rot-b"
                )

    # -- 3. unskew (restore a and b on the real machine) ------------------
    # after the initial skew and g-1 unit rotations the blocks sit one
    # position past their skew origin; realignment is one permutation
    # shift per matrix, same cost class as the skew
    if g > 1:
        with ctx.phase("genmult:unskew"):
            ctx.charge.shift_batch(
                *topo.gentleman_pairs(("a", -1)), nbytes_a, topo, tag="genmult-unskew-a"
            )
            ctx.charge.shift_batch(
                *topo.gentleman_pairs(("b", -1)), nbytes_b, topo, tag="genmult-unskew-b"
            )
