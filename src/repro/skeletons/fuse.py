"""The elementwise executor and the fused whole-array helpers.

``array_map``, ``array_zip``, ``array_fold`` and ``array_create`` are the
same act — apply a customizing function to every element of every
partition — so they share one executor, :func:`run_elementwise`.  Its
path is a pure function of facts known before the call: ``ctx.fused``,
the kernel's ``env_free`` verdict, whether every array is pooled, the
bytes the call touches and the backend.

1. **the pooled call** — ``ctx.fused``, the vectorized kernel is
   env-free and every array is pooled (block-distributed: all partitions
   are views into one contiguous
   :attr:`~repro.arrays.darray.DistArray.pool`).  The kernel is applied
   to axis-0 **slabs** of whole partitions with the matching slices of
   the global index grids, and is handed no env (``None``): rank
   boundaries mean nothing to a kernel that never reads it (only the
   cost vector reads them).  How many slabs, and whether they are
   dispatched to the backend's workers, is :func:`plan`'s slab rule.
2. **the per-rank loop** — everything else: strided layouts, kernels
   that may read the env, scalar-only functions (applied element by
   element).  ``SkilContext(fused=False)`` forces it on every backend:
   that is the reference switch of ``repro.check`` and ``tests/check``,
   which hold the pooled call bit-equal to this one.

Where ``env_free`` comes from: generated kernels (``lang/codegen.py``)
carry it from the vectorizer, which knows statically whether the Skil
source used ``procId``, ``array_part_bounds`` or ``array_get_elem``;
:func:`~repro.skeletons.functional.skil_fn` decides it for hand-written
kernels from their code when they are decorated; partial applications
copy it.  A kernel without a verdict counts as env-reading.

The executor never touches a clock.  Callers charge one cost vector
computed from ``dist.part_sizes()``, so simulated seconds cannot depend
on the path taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

import numpy as np

from repro.errors import SkeletonError

#: the bytes one slab of a pooled call touches, sources and result
#: together: half of a 2 MiB per-core L2 (the sweep is in
#: docs/PERFORMANCE.md)
SLAB_BYTES = 1 << 20

__all__ = [
    "SLAB_BYTES",
    "plan",
    "run_elementwise",
    "interleaved_view",
    "stacked_blocks",
]


@dataclass
class MapEnv:
    """Per-rank environment handed to kernels by the per-rank loop."""

    ctx: Any  # repro.skeletons.base.SkilContext
    rank: int
    bounds: Any  # repro.arrays.distribution.Bounds


def _boxed_block(f: Callable, ins: list, like, rank: int) -> np.ndarray:
    """Apply a scalar-only *f* to one partition, element by element.

    The walk is C-level: ``map`` over the flat iterators of the sources
    and one ``itertools.product`` of the global index vectors (Python
    ints, C order — the partition's ravel order), stored by ``fromiter``
    so that whatever *f* returns (a tuple, an array) is one object.
    """
    shape = like.local(rank).shape
    indices = product(*(v.tolist() for v in like.local_index_vectors(rank)))
    results = map(f, *(a.flat for a in ins), indices)
    return np.fromiter(results, dtype=object, count=math.prod(shape)).reshape(shape)


def _fit(kernel: Callable, out, shape: tuple) -> np.ndarray:
    """*out* broadcast to the *shape* of the piece it was computed for."""
    out = np.asarray(out)
    if out.shape == shape:
        return out
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise SkeletonError(
            f"kernel {getattr(kernel, '__name__', kernel)!r} returned shape "
            f"{out.shape}, which does not broadcast to its {shape} piece"
        ) from None


def plan(backend, nbytes: int, rows: int) -> tuple[int, bool]:
    """The slab rule: ``(pieces, dispatch)`` for a pooled call touching
    *nbytes* (sources and result) over a grid of *rows* rows.

    ``k = min(nbytes // SLAB_BYTES, rows)`` cache-sized pieces.  A
    parallel backend dispatches ``d = min(workers, rows)`` slabs — one
    per worker, at most one per grid row — once ``k >= d >= 2``: below
    that, a dispatch costs more than it saves (the sweep is in
    docs/PERFORMANCE.md).  Every other call runs its ``k`` pieces (at
    least one) inline.
    """
    k = min(nbytes // SLAB_BYTES, rows)
    if backend.parallel:
        d = min(backend.workers, rows)
        if 2 <= d <= k:
            return d, True
    return max(k, 1), False


def run_elementwise(ctx, f: Callable, srcs: tuple, like) -> tuple:
    """Evaluate *f* on every element; the one executor behind map, zip,
    fold's conversion and create (path conditions: module docstring).

    *srcs* are the input arrays (none for create, two for zip); *like*
    is the array whose layout the result has.  Returns ``(slabs, None,
    dispatch)`` — ``(rows, out)`` pairs covering axis 0 of the pool in
    order, *out* of ``pool[rows].shape``, and whether they were
    dispatched (a store follows the same decision) — or ``(None, blocks,
    False)`` — the partitions in rank order, each of its
    ``local(r).shape``.

    Bit-identity across the paths: every kernel call sees the same
    elements, index values and element arithmetic, and the backend
    returns results in task order.  Any exception a kernel raises
    **propagates** from whichever path ran it — never a fallback.
    """
    vec = getattr(f, "vectorized", None)
    arrays = (*srcs, like)
    if (
        ctx.fused
        and getattr(vec, "env_free", False)
        and all(a.pool is not None for a in arrays)
    ):
        backend = ctx.machine.backend
        dist = like.dist
        pieces, dispatch = plan(
            backend, sum(a.pool.nbytes for a in arrays), dist.grid[0]
        )
        slabs = dist.slab_rows(pieces)
        grids = dist.global_index_grids()
        tasks = [
            (*(a.pool[rows] for a in srcs), (grids[0][rows], *grids[1:]), None)
            for rows in slabs
        ]
        if dispatch:
            outs = backend.run_blocks(vec, tasks)
        else:
            outs = [vec(*t) for t in tasks]
        return [
            (rows, _fit(vec, out, like.pool[rows].shape))
            for rows, out in zip(slabs, outs)
        ], None, dispatch

    blocks = []
    try:
        for r in range(ctx.p):
            # user functions read it as procId while they are mapped
            ctx.current_rank = r
            ins = [s.local(r) for s in srcs]
            if vec is None:
                blocks.append(_boxed_block(f, ins, like, r))
                continue
            env = MapEnv(ctx, r, like.part_bounds(r))
            out = vec(*ins, like.index_grids(r), env)
            blocks.append(_fit(vec, out, like.local(r).shape))
    finally:
        # also when f raises: proc_id() must not answer outside a skeleton
        ctx.current_rank = None
    return None, blocks, False


def interleaved_view(pool: np.ndarray, grid: tuple[int, ...]) -> np.ndarray | None:
    """Grid-interleaved reshape of a pooled global buffer.

    For a pool of global shape ``(n0, n1, ...)`` block-distributed over
    ``grid = (g0, g1, ...)``, returns the **view** of shape
    ``(g0, b0, g1, b1, ...)`` with ``b_d = n_d // g_d``, so that
    ``view[c0, :, c1, :]`` is exactly the partition of grid coordinate
    ``(c0, c1)``.  Returns ``None`` when any dimension does not divide
    evenly (unequal partitions — callers fall back to per-rank loops).
    """
    if pool.ndim != len(grid):
        return None
    inter: list[int] = []
    for n_d, g_d in zip(pool.shape, grid):
        if g_d <= 0 or n_d % g_d != 0:
            return None
        inter.extend((g_d, n_d // g_d))
    return pool.reshape(inter)


def stacked_blocks(pool: np.ndarray, grid: tuple[int, ...]) -> np.ndarray | None:
    """Contiguous ``(P, b0, b1, ...)`` **copy** of all partitions.

    Partition ``r`` (row-major rank over *grid*) lands at ``out[r]``,
    matching ``DistArray.local(r)`` element for element.  ``None`` when
    the partitions are unequal.
    """
    view = interleaved_view(pool, grid)
    if view is None:
        return None
    nd = len(grid)
    # (g0, b0, g1, b1, ...) -> (g0, g1, ..., b0, b1, ...)
    axes = tuple(range(0, 2 * nd, 2)) + tuple(range(1, 2 * nd, 2))
    blocks = view.transpose(axes)
    block_shape = tuple(n_d // g_d for n_d, g_d in zip(pool.shape, grid))
    p = int(np.prod(grid)) if grid else 1
    return np.ascontiguousarray(blocks).reshape((p, *block_shape))
