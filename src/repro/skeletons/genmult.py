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

The implementation is "Gentleman's distributed matrix multiplication
algorithm, in which local partition multiplications alternate with
partition rotations among the processors; these rotations are done
horizontally for the first matrix and vertically for the second one,
while the mapping of the result matrix remains unchanged."  Concretely
(Cannon/Gentleman on a ``g x g`` torus):

1. skew: the *a*-partition of grid position ``(i, j)`` is replaced by the
   one from ``(i, (j + i) mod g)``, the *b*-partition by the one from
   ``((i + j) mod g, j)``;
2. ``g`` rounds of: local generic block multiply accumulated into *c*,
   then rotate *a* one step west and *b* one step north (skipped after
   the last round);
3. unskew, so the argument arrays are observably unchanged (the paper's
   shortest-paths program reuses ``a`` right after the call).

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
from repro.skeletons.fuse import interleaved_view, stacked_blocks

__all__ = ["array_gen_mult", "array_gen_mult_square",
           "semiring_block_product", "semiring_stacked_product"]

#: cap on the temporary ``(m, k_chunk, n)`` tensor built by the generic
#: vectorized path, in elements
_CHUNK_ELEMS = 1 << 21

#: cap on the batched ``(ranks, m, k_chunk, n)`` temporary of the fused
#: path; the k-chunking must stay identical to the per-rank path (it
#: decides reduction boundaries), so the fused path sub-batches over
#: ranks instead when the whole stack would not fit
_BATCH_ELEMS = 1 << 24


def semiring_block_product(gen_add, gen_mult, A: np.ndarray, B: np.ndarray,
                           acc: np.ndarray) -> np.ndarray:
    """Accumulate the generic product of two local blocks into *acc*.

    Uses ``A @ B`` for the classical ``(+), (*)`` case, a chunked
    broadcast-reduce when both operators carry numpy kernels, and a
    Python triple loop otherwise (tiny test problems only).
    """
    add_np = getattr(gen_add, "np_op", None)
    add_reduce = getattr(gen_add, "np_reduce", None)
    mul_np = getattr(gen_mult, "np_op", None)

    if add_np is np.add and mul_np is np.multiply and A.dtype.kind in "fiu":
        return add_np(acc, A @ B)

    if add_np is not None and add_reduce is not None and mul_np is not None:
        m, k = A.shape
        n = B.shape[1]
        chunk = max(1, _CHUNK_ELEMS // max(1, m * n))
        out = acc
        for k0 in range(0, k, chunk):
            part = mul_np(A[:, k0 : k0 + chunk, None], B[None, k0 : k0 + chunk, :])
            out = add_np(out, add_reduce(part, axis=1))
        return out

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


def _can_batch_products(gen_add, gen_mult, dtype) -> bool:
    """Whether the stacked-block product path applies (numpy kernels)."""
    add_np = getattr(gen_add, "np_op", None)
    add_reduce = getattr(gen_add, "np_reduce", None)
    mul_np = getattr(gen_mult, "np_op", None)
    if add_np is np.add and mul_np is np.multiply and dtype.kind in "fiu":
        return True
    return add_np is not None and add_reduce is not None and mul_np is not None


def semiring_stacked_product(gen_add, gen_mult, SA, SB, SC):
    """All-ranks :func:`semiring_block_product` over stacked blocks.

    ``SA``/``SB``/``SC`` stack every rank's block along axis 0.  The
    result is bit-identical per block to the per-rank function: the
    classical case is the same per-slice gemm, and the generic case uses
    the *same k-chunk boundaries* (they decide the reduce partitioning),
    only sub-batching over ranks — elementwise multiplies and the
    per-output reductions over the same axis length are unaffected by
    how many ranks share a numpy call.
    """
    add_np = getattr(gen_add, "np_op", None)
    add_reduce = getattr(gen_add, "np_reduce", None)
    mul_np = getattr(gen_mult, "np_op", None)

    if add_np is np.add and mul_np is np.multiply and SA.dtype.kind in "fiu":
        return add_np(SC, SA @ SB)

    ranks, m, k = SA.shape
    n = SB.shape[2]

    if (
        add_np in (np.minimum, np.maximum)
        and isinstance(mul_np, np.ufunc)
        and k > 0
    ):
        # min/max reductions are sequential left folds (ufunc.reduce does
        # no pairwise regrouping for them), so an in-place fold over k in
        # index order reproduces the chunked reduce bit for bit — ties
        # between signed zeros and NaN propagation included — while the
        # (ranks, m, n) temporaries stay cache-resident instead of
        # materialising the (ranks, m, k, n) tensor
        SA_t = np.ascontiguousarray(SA.transpose(0, 2, 1))
        term = np.empty((ranks, m, n), dtype=np.result_type(SA, SB))
        mul_np(SA_t[:, 0, :, None], SB[:, 0, None, :], out=term)
        out = add_np(SC, term)
        for kk in range(1, k):
            mul_np(SA_t[:, kk, :, None], SB[:, kk, None, :], out=term)
            add_np(out, term, out=out)
        return out
    chunk = max(1, _CHUNK_ELEMS // max(1, m * n))  # same as per-rank
    per_rank_tmp = m * min(chunk, k) * n
    rank_chunk = max(1, _BATCH_ELEMS // max(1, per_rank_tmp))
    out = SC
    for k0 in range(0, k, chunk):
        pieces = []
        for r0 in range(0, ranks, rank_chunk):
            r1 = r0 + rank_chunk
            part = mul_np(
                SA[r0:r1, :, k0 : k0 + chunk, None],
                SB[r0:r1, None, k0 : k0 + chunk, :],
            )
            pieces.append(add_reduce(part, axis=2))
        red = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)
        out = add_np(out, red)
    return out


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
    implementation only ever reads private copies of the argument blocks,
    so ``b is a`` observes exactly the values the fresh copy would — the
    copy's round and the second matrix vanish from the schedule while the
    result stays bit-equal.
    """
    ctx.check_distinct("array_gen_mult_square", a, c)
    _gen_mult_impl(ctx, a, a, gen_add, gen_mult, c)


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

    # fused fast path (see docs/PERFORMANCE.md): stack every rank's
    # block into contiguous (p, ·, ·) arrays, run the semiring products
    # batched, and realise rotations as np.roll on the (g, g, ·, ·)
    # views — same charging calls in the same order as the per-rank path
    fused = (
        ctx.fused
        and a.pool is not None
        and b.pool is not None
        and c.pool is not None
        and _can_batch_products(gen_add, gen_mult, a.pool.dtype)
    )
    grid = (g, g)
    if fused:
        # stacked copies of the blocks — the fused equivalent of the
        # per-rank working copies below
        sa = stacked_blocks(a.pool, grid)
        sb = stacked_blocks(b.pool, grid)
        sc = stacked_blocks(c.pool, grid)
        ablk = bblk = accum = None
        nbytes_a = sa[0].nbytes
        nbytes_b = sb[0].nbytes
    else:
        # working copies: the real machine rotates partitions in place and
        # re-aligns afterwards; we keep a/b untouched and charge the
        # alignment communication explicitly below
        ablk = [a.local(r).copy() for r in range(ctx.p)]
        bblk = [b.local(r).copy() for r in range(ctx.p)]
        accum = [c.local(r).astype(c.dtype, copy=True) for r in range(ctx.p)]
        nbytes_a = ablk[0].nbytes
        nbytes_b = bblk[0].nbytes

    ranks = np.arange(ctx.p, dtype=np.int64)
    row_of, col_of = np.divmod(ranks, g)

    def skew_pairs(kind: str, direction: int) -> tuple[np.ndarray, np.ndarray]:
        """(srcs, dsts) rank arrays moving blocks by their skew distance
        (vectorized ``grid_coords``/``grid_rank`` arithmetic, same rank
        order and self-pair filter as the scalar loop)."""
        if kind == "a":
            dst = row_of * g + (col_of - direction * row_of) % g
        else:
            dst = ((row_of - direction * col_of) % g) * g + col_of
        keep = dst != ranks
        return ranks[keep], dst[keep]

    def apply_block_perm(blocks: list[np.ndarray], pairs):
        srcs, dsts = pairs
        moved = {d: blocks[s] for s, d in zip(srcs.tolist(), dsts.tolist())}
        for d, blk in moved.items():
            blocks[d] = blk

    def perm_order(pairs) -> np.ndarray:
        """``order[d] = s`` gather indices equivalent to apply_block_perm."""
        srcs, dsts = pairs
        order = np.arange(ctx.p)
        order[dsts] = srcs
        return order

    # -- 1. skew ---------------------------------------------------------
    with ctx.phase("genmult:skew"):
        pa = skew_pairs("a", +1)
        pb = skew_pairs("b", +1)
        if pa[0].size:
            ctx.charge.shift_batch(pa[0], pa[1], nbytes_a, topo, tag="genmult-skew-a")
            if fused:
                sa = sa[perm_order(pa)]
            else:
                apply_block_perm(ablk, pa)
        if pb[0].size:
            ctx.charge.shift_batch(pb[0], pb[1], nbytes_b, topo, tag="genmult-skew-b")
            if fused:
                sb = sb[perm_order(pb)]
            else:
                apply_block_perm(bblk, pb)

    # -- 2. multiply / rotate rounds --------------------------------------
    if fused:
        m_loc, k_loc = sa.shape[1:]
        n_loc = sb.shape[2]
    else:
        m_loc, k_loc = ablk[0].shape
        n_loc = bblk[0].shape[1]
    # one round: every (i, j, k) of the local block product pays one
    # gen_mult and one gen_add
    round_work = (m_loc * n_loc * k_loc, ops_of(gen_mult), ops_of(gen_add))
    west_dst = row_of * g + (col_of - 1) % g
    north_dst = ((row_of - 1) % g) * g + col_of
    west_pairs = (ranks[west_dst != ranks], west_dst[west_dst != ranks])
    north_pairs = (ranks[north_dst != ranks], north_dst[north_dst != ranks])
    for step in range(g):
        with ctx.phase("genmult:multiply"):
            if fused:
                sc = semiring_stacked_product(gen_add, gen_mult, sa, sb, sc)
            else:
                try:
                    for r in range(ctx.p):
                        ctx.current_rank = r
                        accum[r] = semiring_block_product(
                            gen_add, gen_mult, ablk[r], bblk[r], accum[r]
                        )
                finally:
                    # also when gen_add/gen_mult raise: no stale procId
                    ctx.current_rank = None
            ctx.charge.work(round_work)
        if step < g - 1:
            with ctx.phase("genmult:rotate"):
                ctx.charge.shift_batch(
                    west_pairs[0], west_pairs[1], nbytes_a, topo, tag="genmult-rot-a"
                )
                if fused:
                    # dst (i, j-1) takes the block of (i, j): one column roll
                    sag = sa.reshape(g, g, m_loc, k_loc)
                    sa = np.concatenate(
                        (sag[:, 1:], sag[:, :1]), axis=1
                    ).reshape(ctx.p, m_loc, k_loc)
                else:
                    apply_block_perm(ablk, west_pairs)
                ctx.charge.shift_batch(
                    north_pairs[0], north_pairs[1], nbytes_b, topo, tag="genmult-rot-b"
                )
                if fused:
                    # dst (i-1, j) takes the block of (i, j): one row roll
                    sbg = sb.reshape(g, g, k_loc, n_loc)
                    sb = np.concatenate(
                        (sbg[1:], sbg[:1]), axis=0
                    ).reshape(ctx.p, k_loc, n_loc)
                else:
                    apply_block_perm(bblk, north_pairs)

    # -- 3. unskew (restore a and b on the real machine) ------------------
    # after the initial skew and g-1 unit rotations the blocks sit one
    # position past their skew origin; realignment is one permutation
    # shift per matrix, same cost class as the skew
    if g > 1:
        with ctx.phase("genmult:unskew"):
            ua = skew_pairs("a", -1)
            ub = skew_pairs("b", -1)
            ctx.charge.shift_batch(ua[0], ua[1], nbytes_a, topo, tag="genmult-unskew-a")
            ctx.charge.shift_batch(ub[0], ub[1], nbytes_b, topo, tag="genmult-unskew-b")

    if fused:
        m_c, n_c = sc.shape[1:]
        c_view = interleaved_view(c.pool, grid)
        c_view[...] = sc.reshape(g, g, m_c, n_c).transpose(0, 2, 1, 3)
    else:
        for r in range(ctx.p):
            c.local(r)[...] = accum[r].astype(c.dtype, copy=False)
