"""``array_create``, ``array_destroy`` and ``array_copy``.

Signatures follow Section 3 of the paper:

.. code-block:: c

   array<$t> array_create (int dim, Size size, Size blocksize,
                           Index lowerbd, $t init_elem (Index), int distr);
   void array_destroy (array<$t> a);
   void array_copy (array<$t> from, array<$t> to);

``array_create`` returns the new array ("the return-solution is however
used in array_create, since this skeleton allocates the new array
anyway"); a zero *blocksize* component asks the skeleton to "fill in an
appropriate value depending on the network topology" and a negative
*lowerbd* component derives the local lower bound.  ``array_copy``
exists because "array partitions are internally represented as
contiguous memory areas, [so] copying can be done very efficiently" —
it is charged at memcpy speed with no per-element function calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray, default_grid
from repro.arrays.distribution import BlockDistribution
from repro.errors import SkeletonError
from repro.skeletons import fuse
from repro.skeletons.base import ops_of, skeleton_span
from repro.skeletons.map import write_result

__all__ = ["array_create", "array_create_uninit", "array_destroy", "array_copy"]


@skeleton_span("array_create")
def array_create(
    ctx,
    dim: int,
    size,
    blocksize,
    lowerbd,
    init_elem: Callable,
    distr: str | None = None,
    dtype=np.float64,
) -> DistArray:
    """Create a block-distributed array and initialize it elementwise.

    *init_elem(Index)* computes each element from its global index; a
    vectorized kernel (``init_elem.vectorized(index_grids, env)``) is
    used when provided.  *dtype* has no counterpart in the paper (the C
    element type is carried by the ``$t`` instantiation); here it
    selects the numpy element type.
    """
    arr = array_create_uninit(ctx, dim, size, blocksize, lowerbd, distr, dtype)
    write_result(arr, *fuse.run_elementwise(ctx, init_elem, (), arr))
    ctx.charge.work((arr.dist.part_sizes(), ops_of(init_elem)))
    return arr


def array_create_uninit(
    ctx,
    dim: int,
    size,
    blocksize,
    lowerbd,
    distr: str | None = None,
    dtype=np.float64,
) -> DistArray:
    """Allocate like :func:`array_create` but skip the initialization.

    The fusion pass (:mod:`repro.lang.fusion`) rewrites creates whose
    initial values are provably overwritten before any read — the
    allocation stays, but the per-element init work *and* the skeleton
    round disappear from the simulated schedule.  Accordingly this is
    not a collective: no ``skeleton_span``, no time charged.  Element
    values are unspecified until the first full overwrite.
    """
    distr = distr if distr is not None else ctx.default_distr
    grid = default_grid(ctx.machine, dim, distr)
    dist = BlockDistribution.from_pardata_args(dim, size, blocksize, lowerbd, grid)
    return DistArray(ctx.machine, dist, dtype, distr)


@skeleton_span("array_destroy")
def array_destroy(ctx, a: DistArray) -> None:
    """Deallocate *a*; using it afterwards raises."""
    a.destroy()


@skeleton_span("array_copy")
def array_copy(ctx, from_arr: DistArray, to_arr: DistArray) -> None:
    """Copy *from_arr* into the previously created *to_arr*.

    Pure local memcpy per partition — no communication, no per-element
    calls (this is why the paper implemented it "instead of using a
    correspondingly parameterized array_map").
    """
    ctx.check_same_shape("array_copy", from_arr, to_arr)
    if from_arr is to_arr:
        raise SkeletonError("array_copy: source and target are the same array")
    if ctx.fused and from_arr.pool is not None and to_arr.pool is not None:
        # one memcpy over the pool
        to_arr.pool[...] = from_arr.pool.astype(to_arr.dtype, copy=False)
    else:
        for r in range(ctx.p):
            src = from_arr.local(r)
            to_arr.local(r)[...] = src.astype(to_arr.dtype, copy=False)
    # local(r).nbytes == part_sizes()[r] * itemsize exactly
    ctx.charge.memcpy(from_arr.dist.part_sizes(), from_arr.dtype.itemsize)
