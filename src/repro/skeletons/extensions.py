"""Future-work skeletons implemented as extensions (DESIGN.md §5).

The paper's conclusions name two directions we implement here:

* overlapping partition areas "in order to reduce communication in
  operations which require more than one element at a time", used in PDE
  solvers and image processing → :func:`array_map_overlap`;
* further distributions (cyclic, block-cyclic) live in
  :mod:`repro.arrays.distribution`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.skeletons.base import MapEnv, ops_of, skeleton_span

__all__ = ["array_map_overlap"]


@skeleton_span("array_map_overlap")
def array_map_overlap(
    ctx,
    stencil_f: Callable,
    from_arr: DistArray,
    to_arr: DistArray,
    overlap: int = 1,
) -> None:
    """Map with access to a neighbourhood of radius *overlap*.

    ``to[ix] = stencil_f(get, ix)`` where ``get(*offsets)`` reads the
    element at ``ix + offsets``, clamped to the array border.  Before the
    local sweeps, ghost areas of width *overlap* are exchanged between
    grid-neighbouring partitions (two shifts per distributed dimension);
    without this skeleton every neighbour access would be a remote read,
    the exact inefficiency the paper's locality rule forbids.

    A vectorized kernel has signature ``kernel(padded_block, pad_widths,
    index_grids, env)`` and must return the *owned* block; ``padded_block``
    is the partition extended by the (clamped) halo.
    """
    ctx.check_same_shape("array_map_overlap", from_arr, to_arr)
    if from_arr is to_arr:
        raise SkeletonError(
            "array_map_overlap: in-situ operation would let the stencil "
            "observe half-updated neighbours; use distinct arrays"
        )
    if overlap < 1:
        raise SkeletonError(f"overlap must be >= 1, got {overlap}")
    dim = from_arr.dim
    if dim not in (1, 2):
        raise SkeletonError("array_map_overlap supports 1-D and 2-D arrays")

    # ---- halo exchange cost: per distributed dimension, both directions
    topo = ctx.machine.topology(from_arr.distr)
    itemsize = from_arr.dtype.itemsize
    grid = from_arr.dist.grid
    for d in range(dim):
        if grid[d] == 1:
            continue
        fwd, bwd = [], []
        slab_bytes = np.zeros(ctx.p, dtype=np.int64)  # by source rank
        for r in range(ctx.p):
            coords = from_arr.dist.grid_coords(r)
            b = from_arr.part_bounds(r)
            other = [u - l for i, (l, u) in enumerate(zip(b.lower, b.upper)) if i != d]
            slab = overlap * int(np.prod(other)) * itemsize if other else overlap * itemsize
            slab_bytes[r] = slab
            nxt = list(coords)
            nxt[d] += 1
            if nxt[d] < grid[d]:
                fwd.append((r, from_arr.dist.grid_rank(nxt)))
            prv = list(coords)
            prv[d] -= 1
            if prv[d] >= 0:
                bwd.append((r, from_arr.dist.grid_rank(prv)))
        if fwd:
            ctx.charge.shift(fwd, slab_bytes, topo, tag=f"halo+{d}")
        if bwd:
            ctx.charge.shift(bwd, slab_bytes, topo, tag=f"halo-{d}")

    # ---- local sweeps over the (halo-extended) partitions
    global_data = from_arr.global_view()  # simulation shortcut for halo data
    shape = from_arr.shape
    owned = np.zeros(ctx.p, dtype=np.int64)
    results = []
    vec = getattr(stencil_f, "vectorized", None)
    try:
        for r in range(ctx.p):
            ctx.current_rank = r
            b = from_arr.part_bounds(r)
            lo = [max(0, l - overlap) for l in b.lower]
            hi = [min(s, u + overlap) for s, u in zip(shape, b.upper)]
            padded = global_data[tuple(slice(l, h) for l, h in zip(lo, hi))]
            pad = tuple(bl - l for bl, l in zip(b.lower, lo))
            if vec is not None:
                env = MapEnv(ctx, r, b)
                out = np.asarray(vec(padded, pad, from_arr.index_grids(r), env))
                results.append(np.broadcast_to(out, b.shape))
            else:
                out = np.empty(b.shape, dtype=object)
                for local_ix in np.ndindex(*b.shape):
                    gix = tuple(l + i for l, i in zip(b.lower, local_ix))

                    def get(*offsets, _gix=gix):
                        if len(offsets) != dim:
                            raise SkeletonError(
                                f"stencil get() expects {dim} offsets"
                            )
                        tgt = [
                            min(max(g + o, 0), s - 1)
                            for g, o, s in zip(_gix, offsets, shape)
                        ]
                        if any(abs(o) > overlap for o in offsets):
                            raise SkeletonError(
                                f"stencil access {offsets} exceeds overlap {overlap}"
                            )
                        return global_data[tuple(tgt)]

                    out[local_ix] = stencil_f(get, gix)
                results.append(out)
            owned[r] = b.size
    finally:
        ctx.current_rank = None
    for r in range(ctx.p):
        to_arr.local(r)[...] = np.asarray(results[r], dtype=to_arr.dtype)
    ctx.charge.work((owned, ops_of(stencil_f)))
