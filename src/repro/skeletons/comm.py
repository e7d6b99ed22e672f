"""Communication skeletons: ``array_broadcast_part`` and
``array_permute_rows`` (plus an ``array_rotate_rows`` convenience).

.. code-block:: c

   void array_broadcast_part (array<$t> a, Index ix);
   void array_permute_rows (array<$t> from, int perm_f (int), array<$t> to);

``array_broadcast_part`` broadcasts the partition containing element
*ix*; "each processor overwrites his partition with the broadcasted one".
The paper's Gaussian elimination shapes the ``piv`` array as ``p x (n+1)``
so each partition is exactly one row, turning row broadcast into
partition broadcast.

``array_permute_rows`` applies only to 2-dimensional arrays and requires
a *bijective* function on ``{0, ..., n-1}``, "otherwise a run-time error
occurs" — reproduced here as :class:`~repro.errors.SkeletonError`.

Fused data movement (see docs/PERFORMANCE.md): on pooled block arrays
the broadcast is one broadcasting slice assignment over the
grid-interleaved pool view, and the row permutation is one fancy-index
gather ``to.pool[perm] = from.pool`` with the per-(src, dst) message
sizes histogrammed vectorized.  Both state the identical messages (same
pair order, same byte counts) to ``ctx.charge``, so simulated seconds,
per-rank clocks and trace spans are bit-identical to the per-rank loops.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.skeletons.base import ops_of, skeleton_span
from repro.skeletons.fuse import interleaved_view

__all__ = ["array_broadcast_part", "array_permute_rows", "array_rotate_rows"]


@skeleton_span("array_broadcast_part")
def array_broadcast_part(ctx, a: DistArray, ix) -> None:
    """Broadcast the partition owning element *ix* to all processors."""
    ctx.check_block_distribution("array_broadcast_part", a)
    owner = a.owner(tuple(int(i) for i in ix))
    block = a.local(owner)
    view = None
    if ctx.fused and a.pool is not None:
        # equal partitions iff every dimension divides evenly over the
        # grid, which is exactly when the interleaved view exists
        view = interleaved_view(a.pool, a.dist.grid)
    if view is not None:
        src = block.copy()  # the owner slot is part of the target view
        expand = tuple(
            s for b in src.shape for s in (1, b)
        )
        view[...] = src.reshape(expand)
    else:
        for r in range(ctx.p):
            if r == owner:
                continue
            if a.local(r).shape != block.shape:
                raise SkeletonError(
                    "array_broadcast_part requires equally sized partitions "
                    f"(rank {r} holds {a.local(r).shape}, owner holds {block.shape})"
                )
            a.local(r)[...] = block
    topo = ctx.machine.topology(a.distr)
    ctx.charge.broadcast(owner, block.nbytes, topo, tag="bcast-part")


def _row_segment_owner(arr: DistArray, row: int, col_lo: int) -> int:
    """Rank owning the segment of *row* starting at column *col_lo*."""
    return arr.owner((row, col_lo))


def _evaluate_perm(ctx, perm_f, n_rows: int) -> np.ndarray:
    """Evaluate the permutation function over every row index.

    Functions may opt into vectorized evaluation by carrying a
    ``perm_vectorized`` attribute (an array→array version of
    themselves); plain functions are applied row by row exactly as
    before.  The bijection check is the same either way.
    """
    pv = getattr(perm_f, "perm_vectorized", None)
    if ctx.fused and pv is not None:
        perm = np.asarray(pv(np.arange(n_rows)), dtype=np.intp)
        if perm.shape != (n_rows,):
            raise SkeletonError(
                "array_permute_rows: perm_vectorized returned shape "
                f"{perm.shape}, expected ({n_rows},)"
            )
    else:
        perm = np.fromiter(
            (int(perm_f(i)) for i in range(n_rows)), dtype=np.intp, count=n_rows
        )
    if not np.array_equal(np.sort(perm), np.arange(n_rows)):
        raise SkeletonError(
            "array_permute_rows: the permutation function is not a bijection "
            f"on {{0,...,{n_rows - 1}}} (run-time error, as in the paper)"
        )
    return perm


def _pair_bytes_fused(
    from_arr: DistArray, to_arr: DistArray, perm: np.ndarray, p: int
) -> list[tuple[tuple[int, int], int]]:
    """Vectorized per-(src, dst) message-byte histogram.

    Reproduces the per-row accumulation loop exactly: every
    ``(row, source column block)`` segment contributes its byte count to
    the pair ``(owner of the source segment, owner of the permuted
    destination segment)``.  Integer sums are order-free, so the totals
    —and the set of pairs, including zero-byte ones — match the scalar
    dict bit for bit.
    """
    g1f = from_arr.dist.grid[1]
    g1t = to_arr.dist.grid[1]
    from_ov0 = from_arr.dist.owner_vectors()[0]
    to_ov0, to_ov1 = to_arr.dist.owner_vectors()
    col_lo = np.empty(g1f, dtype=np.int64)
    col_hi = np.empty(g1f, dtype=np.int64)
    for b in range(g1f):
        bb = from_arr.part_bounds(b)  # grid coords (0, b) -> rank b
        col_lo[b] = bb.lower[1]
        col_hi[b] = bb.upper[1]
    seg_bytes = (col_hi - col_lo) * from_arr.dtype.itemsize
    blocks = np.arange(g1f)
    src = np.asarray(from_ov0, dtype=np.int64)[:, None] * g1f + blocks[None, :]
    dst = (
        np.asarray(to_ov0, dtype=np.int64)[perm][:, None] * g1t
        + np.asarray(to_ov1, dtype=np.int64)[col_lo][None, :]
    )
    # compact the (src, dst) pairs through one sorted unique pass — an
    # O(segments log segments) histogram instead of dense (p, p)
    # scatter/argwhere arrays (32 GiB at p = 65536).  np.unique sorts,
    # so the pair order is the same (src, dst)-lexicographic order the
    # dense row-major argwhere produced, and the integer byte sums are
    # order-free — outputs match the dense version bit for bit.
    keys = (src * np.int64(p) + dst).ravel()
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(
        sums, inv.ravel(), np.broadcast_to(seg_bytes[None, :], src.shape).ravel()
    )
    return uniq // p, uniq % p, sums


def _charge_pairs(ctx, srcs, dsts, nbs, topo) -> None:
    """Charge the (src, dst)-sorted messages, given as three int64 arrays.

    The list is cut at every local (src == dst) pair — a memory copy on
    the owner — and each remote stretch is one ``p2p_batch`` charge,
    which is bit-identical to a per-pair ``p2p`` loop.
    """
    loc = np.flatnonzero(srcs == dsts)
    start = 0
    for li in loc.tolist():
        if li > start:
            ctx.charge.p2p_batch(
                srcs[start:li], dsts[start:li], nbs[start:li], topo,
                tag="permute-rows",
            )
        ctx.charge.memcpy_at(int(srcs[li]), int(nbs[li]))
        start = li + 1
    if start < int(srcs.size):
        ctx.charge.p2p_batch(
            srcs[start:], dsts[start:], nbs[start:], topo, tag="permute-rows"
        )


@skeleton_span("array_permute_rows")
def array_permute_rows(
    ctx, from_arr: DistArray, perm_f: Callable[[int], int], to_arr: DistArray
) -> None:
    """Permute the rows of a 2-D array: ``to[perm_f(i), :] = from[i, :]``."""
    if from_arr.dim != 2:
        raise SkeletonError("array_permute_rows applies only to 2-dimensional arrays")
    ctx.check_same_shape("array_permute_rows", from_arr, to_arr)
    ctx.check_block_distribution("array_permute_rows", from_arr, to_arr)
    if from_arr is to_arr:
        raise SkeletonError("array_permute_rows: source and target must differ")

    n_rows = from_arr.shape[0]
    perm_arr = _evaluate_perm(ctx, perm_f, n_rows)
    # evaluating the permutation function costs one application per row
    # it is evaluated on (at least) the processors whose rows move
    ctx.charge.work((n_rows / ctx.p, ops_of(perm_f)))

    if ctx.fused and from_arr.pool is not None and to_arr.pool is not None:
        # whole-array gather on the pools + vectorized byte histogram
        to_arr.pool[perm_arr] = from_arr.pool
        pairs = _pair_bytes_fused(from_arr, to_arr, perm_arr, ctx.p)
    else:
        # the per-row reference: group row segments into per-(src, dst)
        # messages while moving them
        perm = perm_arr.tolist()
        itemsize = from_arr.dtype.itemsize
        pair_bytes: dict[tuple[int, int], int] = defaultdict(int)
        for src_rank in range(ctx.p):
            b = from_arr.part_bounds(src_rank)
            col_lo, col_hi = b.lower[1], b.upper[1]
            seg_bytes = (col_hi - col_lo) * itemsize
            for row in range(b.lower[0], b.upper[0]):
                dst_rank = _row_segment_owner(to_arr, perm[row], col_lo)
                segment = from_arr.local(src_rank)[row - b.lower[0], :]
                db = to_arr.part_bounds(dst_rank)
                to_arr.local(dst_rank)[perm[row] - db.lower[0], :] = segment
                pair_bytes[(src_rank, dst_rank)] += seg_bytes
        # rows (src, dst, nbytes) in (src, dst) order -> three columns
        pairs = np.array(
            [(s, d, nb) for (s, d), nb in sorted(pair_bytes.items())],
            dtype=np.int64,
        ).T
    _charge_pairs(ctx, *pairs, ctx.machine.topology(from_arr.distr))


def array_rotate_rows(ctx, from_arr: DistArray, shift: int, to_arr: DistArray) -> None:
    """Rotate rows downward by *shift* (negative: upward).

    Convenience wrapper over :func:`array_permute_rows` with the rotation
    bijection ``i -> (i + shift) mod n``.
    """
    n = from_arr.shape[0]

    def rot(i: int) -> int:
        return (i + shift) % n

    rot.ops = 1.0
    rot.perm_vectorized = rot
    array_permute_rows(ctx, from_arr, rot, to_arr)
