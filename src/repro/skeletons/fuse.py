"""The elementwise executor and the fused whole-array helpers.

``array_map``, ``array_zip``, ``array_fold`` and ``array_create`` are the
same act — apply a customizing function to every element of every
partition — so they share one executor, :func:`run_elementwise`.  It
picks one of two paths, testing the conditions in this order:

1. **the pooled call** — every array is pooled (block-distributed: all
   partitions are views into one contiguous
   :attr:`~repro.arrays.darray.DistArray.pool`) and either

   * the backend is parallel (``threads``) and the vectorized kernel is
     known env-free: ``backend.workers`` contiguous axis-0 **slabs** of
     whole partitions are dispatched with the matching slices of the
     global index grids.  Rank boundaries mean nothing to a kernel that
     provably never reads the per-rank :class:`MapEnv` (only the cost
     vector reads them), so it may run off the main thread; or
   * ``ctx.fused`` and the function has an explicit ``fused=``
     whole-array form or a vectorized kernel not known to read the env:
     called inline, in **one slab** — or, for a kernel known env-free,
     in cache-sized slabs of about :data:`SLAB_BYTES` each
     (:func:`slab_count`).  Saves ``p`` kernel calls per skeleton.
2. **the per-rank loop** — everything else: strided layouts, kernels
   that read the env, scalar-only functions (applied element by
   element).  ``SkilContext(fused=False)`` forces it on ``sim``: that
   is the reference switch of ``repro.check`` and ``tests/check``,
   which hold the pooled call bit-equal to this one.

What "env-free" is known from: generated kernels (``lang/codegen.py``)
carry ``env_free`` — the vectorizer knows statically whether the Skil
source used ``procId``, ``array_part_bounds`` or ``array_get_elem``;
hand-written kernels are probed by the one-slab call, which hands them
a :class:`FusedEnv` whose rank-specific attributes raise
:class:`FusionFallback`, and the outcome is memoized on the kernel (so a
hand-written kernel is dispatched in slabs from its second call on).
Rank-*dependent* kernels can still take path 1 by providing
``skil_fn(fused=...)`` (signature ``fused(pool, global_grids, fenv)``) —
see the Gaussian-elimination kernels in :mod:`repro.apps.gauss`.

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

#: the bytes one slab of a pooled call touches on a sequential backend,
#: sources and result together: half of a 2 MiB per-core L2 (the sweep
#: is in docs/PERFORMANCE.md)
SLAB_BYTES = 1 << 20

__all__ = [
    "FusionFallback",
    "FusedEnv",
    "kernel_fusability",
    "remember_fusability",
    "run_elementwise",
    "interleaved_view",
    "stacked_blocks",
]


class FusionFallback(Exception):
    """Raised when a kernel cannot run fused; callers fall back to the
    per-rank loop.  Also raised *by* FusedEnv when a probed kernel turns
    out to read rank-specific state."""


class FusedEnv:
    """The environment of every kernel call outside the per-rank loop
    (the pooled call, whole or in slabs): there is no rank to read.

    Accessing any rank-specific attribute raises :class:`FusionFallback`,
    which is what makes probing hand-written kernels safe — an
    env-reading kernel aborts before its result is used, and the caller
    re-runs it per rank.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    @property
    def rank(self):
        raise FusionFallback("kernel reads env.rank")

    @property
    def bounds(self):
        raise FusionFallback("kernel reads env.bounds")

    @property
    def ctx(self):
        raise FusionFallback("kernel reads env.ctx")


@dataclass
class MapEnv:
    """Per-rank environment handed to kernels by the per-rank loop."""

    ctx: Any  # repro.skeletons.base.SkilContext
    rank: int
    bounds: Any  # repro.arrays.distribution.Bounds


def kernel_fusability(vec: Callable) -> bool | None:
    """``True``/``False`` when known, ``None`` when the kernel must be
    probed.  Generated kernels carry ``env_free`` from the vectorizer;
    probe outcomes are memoized as ``_fused_ok``."""
    env_free = getattr(vec, "env_free", None)
    if env_free is not None:
        return bool(env_free)
    return getattr(vec, "_fused_ok", None)


def remember_fusability(vec: Callable, ok: bool) -> None:
    """Memoize a probe outcome on the kernel object (best effort — some
    callables reject attributes, then every call probes again).

    ``False`` only suppresses future *attempts*; ``True`` never forces
    fusion, because the fused caller still catches FusionFallback at run
    time — so a kernel whose env use is conditional stays correct either
    way.
    """
    try:
        vec._fused_ok = bool(ok)
    except (AttributeError, TypeError):
        pass


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
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise SkeletonError(
            f"kernel {getattr(kernel, '__name__', kernel)!r} returned shape "
            f"{out.shape}, which does not broadcast to its {shape} piece"
        ) from None


def run_pieces(backend, call: Callable, tasks: list) -> list:
    """``call(*t)`` per task, in task order: inline on a sequential
    backend or for one task, else dispatched."""
    if len(tasks) == 1 or not backend.parallel:
        return [call(*t) for t in tasks]
    return backend.run_blocks(call, tasks)


def slab_count(backend, srcs: tuple, like) -> int:
    """How many slabs the pooled call of a known env-free kernel is cut
    into: one per worker on a parallel backend, else one per
    :data:`SLAB_BYTES` of the bytes the call touches (its sources and a
    result the size of *like*), at most one per grid row."""
    if backend.parallel:
        return backend.workers
    nbytes = sum(a.pool.nbytes for a in (*srcs, like))
    return min(nbytes // SLAB_BYTES, like.dist.grid[0])


def run_elementwise(ctx, f: Callable, srcs: tuple, like) -> tuple:
    """Evaluate *f* on every element; the one executor behind map, zip,
    fold's conversion and create (path conditions: module docstring).

    *srcs* are the input arrays (none for create, two for zip); *like*
    is the array whose layout the result has.  Returns ``(slabs, None)``
    — ``(rows, out)`` pairs covering axis 0 of the pool in order, *out*
    of ``pool[rows].shape`` — or ``(None, blocks)`` — the partitions in
    rank order, each of its ``local(r).shape``.

    Bit-identity across the paths: every kernel call sees the same
    elements, index values and element arithmetic, and the backend
    returns results in task order.  Any exception a kernel raises other
    than :class:`FusionFallback` **propagates** from whichever path ran
    it — never a silent fallback.
    """
    p = ctx.p
    vec = getattr(f, "vectorized", None)
    env_free = None if vec is None else kernel_fusability(vec)
    backend = ctx.machine.backend
    spread = backend.parallel and env_free is True
    if (ctx.fused or spread) and all(a.pool is not None for a in (*srcs, like)):
        kernel, probing = vec, False
        if not spread:
            # an explicit fused= form wins; its own guards (e.g. a partner
            # array that is not pooled) raise FusionFallback
            kernel = getattr(f, "fused", None)
            if kernel is None and env_free is not False:
                kernel, probing = vec, env_free is None
        if kernel is not None:
            cut = kernel is vec and env_free is True
            slabs = like.dist.slab_rows(slab_count(backend, srcs, like) if cut else 1)
            grids = like.dist.global_index_grids()
            # never a per-rank MapEnv: a kernel whose env use is
            # conditional raises and is re-run by the per-rank loop below
            fenv = FusedEnv(p)
            tasks = [
                (*(a.pool[rows] for a in srcs), (grids[0][rows], *grids[1:]), fenv)
                for rows in slabs
            ]
            try:
                outs = run_pieces(backend, kernel, tasks)
            except FusionFallback:
                if probing:
                    remember_fusability(vec, False)
            else:
                if probing:
                    remember_fusability(vec, True)
                return [
                    (rows, _fit(kernel, out, like.pool[rows].shape))
                    for rows, out in zip(slabs, outs)
                ], None

    blocks = []
    try:
        for r in range(p):
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
    return None, blocks


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
