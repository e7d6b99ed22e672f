"""``array_map`` (and the ``array_zip`` extension).

.. code-block:: c

   void array_map ($t2 map_f ($t1, Index), array<$t1> from, array<$t2> to);

The result is *placed* into an existing array instead of returned, "since
in the second case a temporary data structure would have to be created"
— an efficiency trick the paper points out is impossible in functional
hosts.  We reproduce that asymmetry in the cost model: every map states
the bytes of its result, and a profile that cannot update in place
(DPFL) additionally pays for the temporary allocation and copy-back.

``from`` and ``to`` may be the same array (in-situ replacement) but must
share shape and distribution.  The map function sees the element and its
global ``Index``; the order of application is unspecified, so functions
must not rely on other elements being already updated (the paper's
Gaussian elimination uses two arrays for exactly this reason).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.skeletons import fuse
from repro.skeletons.base import ops_of, skeleton_span

__all__ = ["array_map", "array_zip"]


def store_slab(dst: np.ndarray, out: np.ndarray) -> None:
    """The store task of :func:`write_result`, one per slab."""
    dst[...] = out


def write_result(to_arr: DistArray, slabs, blocks) -> None:
    """Write what :func:`~repro.skeletons.fuse.run_elementwise` returned
    into *to_arr*, converting to its dtype.

    Only called once every piece is computed (slabs are stored by a
    dispatch of their own), so an in-situ map cannot observe partially
    updated data even across partitions.
    """
    if slabs is None:
        for r, block in enumerate(blocks):
            to_arr.local(r)[...] = block
        return
    pool = to_arr.pool
    # e.g. an identity kernel returning a view of the target pool;
    # materialise before the overlapping assignment
    tasks = [
        (pool[rows], np.array(out) if np.may_share_memory(out, pool) else out)
        for rows, out in slabs
    ]
    fuse.run_pieces(to_arr.machine.backend, store_slab, tasks)


def _map_into(ctx, f: Callable, srcs: tuple, to_arr: DistArray) -> None:
    """The body shared by map and zip: run, write, charge."""
    write_result(to_arr, *fuse.run_elementwise(ctx, f, srcs, srcs[0]))
    sizes = srcs[0].dist.part_sizes()
    # a functional host builds a fresh array, then (conceptually) replaces
    # the old one: state the allocation+copy traffic it would pay
    ctx.charge.work(
        (sizes, ops_of(f)), realloc_bytes=sizes * to_arr.dtype.itemsize
    )


@skeleton_span("array_map")
def array_map(ctx, map_f: Callable, from_arr: DistArray, to_arr: DistArray) -> None:
    """Apply *map_f* to every element of *from_arr*, writing *to_arr*."""
    ctx.check_same_shape("array_map", from_arr, to_arr)
    _map_into(ctx, map_f, (from_arr,), to_arr)


@skeleton_span("array_zip")
def array_zip(
    ctx,
    zip_f: Callable,
    a: DistArray,
    b: DistArray,
    to_arr: DistArray,
) -> None:
    """Extension skeleton: elementwise combination of two arrays.

    ``to[i] = zip_f(a[i], b[i], i)``; *to_arr* may alias either input.
    A vectorized kernel has signature ``kernel(block_a, block_b,
    index_grids, env)``.
    """
    ctx.check_same_shape("array_zip", a, b)
    ctx.check_same_shape("array_zip", a, to_arr)
    _map_into(ctx, zip_f, (a, b), to_arr)
