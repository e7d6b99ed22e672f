"""``array_fold`` (and the ``array_scan`` extension).

.. code-block:: c

   $t2 array_fold ($t2 conv_f ($t1, Index), $t2 fold_f ($t2, $t2),
                   array<$t1> a);

Three phases, exactly as in the paper:

1. every processor converts the elements of its partition with *conv_f*
   ("in a map-like way ... but our solution is more efficient" than a
   preliminary ``array_map`` — no temporary array is materialised);
2. each processor folds its converted partition locally with *fold_f*;
3. the per-partition results are folded together "along the edges of a
   virtual tree topology, with the result finally collected at the root"
   and then "broadcasted from the root along the tree edges to all other
   processors" — so every processor returns the same value.

*fold_f* must be associative and commutative, "otherwise the result is
non-deterministic"; the library emits a :class:`UserWarning` when a
folding function does not carry that promise (see
:func:`repro.skeletons.functional.skil_fn`).

A *fold_f* may carry ``reduce_all``: it reduces along the last axis, and
``reduce_all(x) == functools.reduce(fold_f, x)`` for 1-D ``x`` (up to a
neutral element).  On equal row blocks the local phase is one call per
slab, on its stack of whole ``m``-element blocks, and the tree phase one
on the ``p`` partials.
"""

from __future__ import annotations

import warnings
from functools import reduce
from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.skeletons import fuse
from repro.skeletons.base import ops_of, skeleton_span

__all__ = ["array_fold", "array_scan"]


def _local_fold(fold_f, values: np.ndarray):
    flat = values.ravel()
    reducer = getattr(fold_f, "reduce_all", None)
    if reducer is not None:
        return reducer(flat)
    np_reduce = getattr(fold_f, "np_reduce", None)
    if np_reduce is not None and flat.dtype != object:
        return np_reduce(flat)
    return reduce(fold_f, flat.tolist())


def _rank_blocks(slabs: list, dist) -> list:
    """Each rank's block, out of the slab that holds it whole (slabs
    end at partition boundaries; ranks ascend along axis 0)."""
    blocks, rest_slabs = [], iter(slabs)
    held, out = next(rest_slabs)
    for r in range(dist.p):
        part = dist.part_slices(r)
        if part[0].start >= held.stop:
            held, out = next(rest_slabs)
        if held.start:  # rows of the pool -> rows of the slab
            rows = slice(part[0].start - held.start, part[0].stop - held.start)
            part = (rows, *part[1:])
        blocks.append(out[part])
    return blocks


@skeleton_span("array_fold")
def array_fold(ctx, conv_f: Callable, fold_f: Callable, a: DistArray):
    """Fold all elements of *a* into one value, known on all processors."""
    if not getattr(fold_f, "commutative_associative", False):
        warnings.warn(
            "array_fold: the folding function does not declare itself "
            "associative and commutative; the result is non-deterministic "
            "on a real machine (annotate it with skil_fn(...))",
            UserWarning,
            stacklevel=3,  # past the skeleton_span wrapper, to the caller
        )

    with ctx.phase("fold:local"):
        # the local folds stay in the main process whichever way the
        # conversion ran: cheap, and each must be the sequential
        # left-to-right reduce.  Ravel order inside a slice of a
        # converted slab matches a converted block, so every path folds
        # the elements in the identical sequence
        slabs, blocks, _ = fuse.run_elementwise(ctx, conv_f, (a,), a)
        reducer = getattr(fold_f, "reduce_all", None)
        rows = a.dist.grid == (ctx.p,) + (1,) * (a.dim - 1) and a.shape[0] % ctx.p == 0
        stacked = reducer is not None and slabs is not None and rows
        if stacked:  # each slab a stack of whole blocks, each in ravel order
            m = a.pool.size // ctx.p
            partials = np.concatenate([reducer(out.reshape(-1, m)) for _, out in slabs])
        else:
            if slabs is not None:
                blocks = _rank_blocks(slabs, a.dist)
            partials = [_local_fold(fold_f, block) for block in blocks]
        sizes = a.dist.part_sizes()
        ctx.charge.work(
            (sizes, ops_of(conv_f)), (np.maximum(0, sizes - 1), ops_of(fold_f))
        )

    # combine along the binomial tree and broadcast the result back
    with ctx.phase("fold:tree"):
        result = reducer(partials) if stacked else reduce(fold_f, partials)
        probe = np.asarray(partials[0])
        nbytes = probe.nbytes if probe.dtype != object else 64
        topo = ctx.machine.topology(a.distr)
        ctx.charge.allreduce(nbytes, topo, combine_ops=ops_of(fold_f))
    return result


@skeleton_span("array_scan")
def array_scan(ctx, scan_f: Callable, a: DistArray, to_arr: DistArray) -> None:
    """Extension skeleton: inclusive prefix combination along dimension 0.

    For 1-D arrays distributed block-wise: ``to[i] = scan_f(a[0], ...,
    a[i])``.  Local scan, exclusive tree-propagated offsets, local
    correction — the textbook distributed scan.  *scan_f* must be
    associative (commutativity is not required).
    """
    if a.dim != 1:
        raise SkeletonError("array_scan currently supports 1-D arrays")
    ctx.check_same_shape("array_scan", a, to_arr)
    ctx.check_block_distribution("array_scan", a, to_arr)

    ops = ops_of(scan_f)
    sizes = a.dist.part_sizes()
    np_op = getattr(scan_f, "np_op", None)
    # fused fast path (see docs/PERFORMANCE.md): with equal pooled
    # partitions the p local scans are one batched accumulate over the
    # (p, block) pool views, straight into the target — each row is
    # scanned in the identical left-to-right element order, so contents
    # are bit-identical.  A dtype-changing scan takes the per-rank loop:
    # accumulating in the target's dtype would round differently
    fused = (
        ctx.fused
        and np_op is not None
        and a.pool is not None
        and to_arr.pool is not None
        and a.pool.dtype != object
        and to_arr.dtype == a.dtype
        and a.shape[0] % ctx.p == 0
    )
    if fused:
        scanned = to_arr.pool.reshape(ctx.p, -1)
        np_op.accumulate(a.pool.reshape(ctx.p, -1), axis=1, out=scanned)
        locals_ = list(scanned)  # views: the target holds the local scans
    else:
        locals_ = []
        for r in range(ctx.p):
            src = a.local(r)
            if np_op is not None and src.dtype != object:
                scanned = np_op.accumulate(src)
            else:
                out = list(src)
                for i in range(1, len(out)):
                    out[i] = scan_f(out[i - 1], out[i])
                scanned = np.asarray(out, dtype=to_arr.dtype)
            locals_.append(scanned)
    ctx.charge.work((np.maximum(0, sizes - 1), ops))

    # exclusive offsets: fold of the last local elements of lower ranks
    offsets = [None] * ctx.p
    running = None
    for r in range(ctx.p):
        offsets[r] = running
        last = locals_[r][-1]
        running = last if running is None else scan_f(running, last)
    # communication: a (log p)-round tree carrying one element up+down,
    # modelled with the same allreduce pattern as fold
    probe = np.asarray(locals_[0][:1])
    topo = ctx.machine.topology(a.distr)
    ctx.charge.allreduce(probe.nbytes, topo, combine_ops=ops)

    off_col = np.asarray(offsets[1:]) if fused else None
    # mixed promotion could differ from the per-rank scalar case
    if off_col is not None and (off_col.dtype, off_col.shape) == (
        scanned.dtype, (ctx.p - 1,)
    ):
        np_op(off_col[:, None], scanned[1:], out=scanned[1:])
    else:
        for r in range(ctx.p):
            if offsets[r] is None:
                to_arr.local(r)[...] = locals_[r]
            elif np_op is not None and locals_[r].dtype != object:
                to_arr.local(r)[...] = np_op(offsets[r], locals_[r])
            else:
                to_arr.local(r)[...] = [scan_f(offsets[r], v) for v in locals_[r]]
    # correction pass costs one op per element
    ctx.charge.work((sizes, ops))
