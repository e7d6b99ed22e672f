"""The ``pardata array<$t>`` distributed array.

One :class:`DistArray` is "the entirety of all local structures": every
(logical) processor of the machine owns one partition, stored here as a
numpy block.  As in the paper,

* elements are accessed through ``get_elem``/``put_elem`` **only
  locally** — indexing outside the partition of the stated processor
  raises :class:`~repro.errors.LocalityError` instead of silently
  generating communication ("remote accessing of single array elements
  easily leads to very inefficient programs");
* non-local access happens only through skeletons
  (:mod:`repro.skeletons`);
* the implementation is hidden: user code sees bounds and elements, the
  skeletons see the blocks.

Element types may be any numpy dtype, including structured dtypes — the
Gaussian elimination application folds with an ``elemrec`` record type
exactly as in the paper.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import DistributionError, LocalityError, SkilError
from repro.arrays.distribution import BlockDistribution, Bounds, Distribution
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)

__all__ = ["DistArray", "default_grid"]


def default_grid(machine: Machine, dim: int, distr: str) -> tuple[int, ...]:
    """Process grid implied by a ``DISTR_*`` constant.

    * ``DISTR_TORUS2D`` on a 2-D array uses the torus grid (the shape of
      the machine's mesh) — what ``array_gen_mult`` needs;
    * everything else splits the first dimension across all processors
      (the row-block layout of the paper's Gaussian elimination).
    """
    if dim == 1:
        return (machine.p,)
    if distr == DISTR_TORUS2D and dim == 2:
        return (machine.mesh.rows, machine.mesh.cols)
    return (machine.p,) + (1,) * (dim - 1)


class DistArray:
    """A block-distributed array living on a :class:`Machine`.

    Construct through :func:`repro.skeletons.array_create` (which also
    charges simulated initialisation time) or, for tests and oracles,
    through :meth:`from_global` / :meth:`uninitialized`.
    """

    def __init__(
        self,
        machine: Machine,
        dist: Distribution,
        dtype,
        distr: str = DISTR_DEFAULT,
        _register_memory: bool = True,
    ):
        if dist.p != machine.p:
            raise DistributionError(
                f"distribution grid holds {dist.p} partitions but the machine "
                f"has {machine.p} processors"
            )
        self.machine = machine
        self.dist = dist
        self.dtype = np.dtype(dtype)
        self.distr = distr
        self._pool: np.ndarray | None = None
        if type(dist) is BlockDistribution:
            # pooled storage: block partitions are disjoint rectangles
            # covering the index space, so every block can be a view into
            # one contiguous global buffer — global_view/fill_from_global
            # become O(1) and skeletons can run one fused kernel over the
            # whole array.  Strided (cyclic) layouts keep per-rank copies.
            self._pool = np.zeros(dist.shape, dtype=self.dtype)
            self._blocks: list[np.ndarray] = [
                self._pool[
                    tuple(slice(l, u) for l, u in zip(b.lower, b.upper))
                ]
                for b in (dist.bounds(r) for r in range(machine.p))
            ]
        else:
            self._blocks = [
                np.zeros(dist.local_shape(r), dtype=self.dtype)
                for r in range(machine.p)
            ]
        self._alive = True
        self._memory_registered = _register_memory
        if _register_memory:
            for r in range(machine.p):
                machine.alloc(r, self._blocks[r].nbytes)

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> tuple[int, ...]:
        return self.dist.shape

    @property
    def dim(self) -> int:
        return self.dist.dim

    @property
    def p(self) -> int:
        return self.machine.p

    def _check_alive(self) -> None:
        if not self._alive:
            raise SkilError("use of a destroyed array")

    def destroy(self) -> None:
        """Deallocate (the body of ``array_destroy``)."""
        self._check_alive()
        if self._memory_registered:
            for r in range(self.p):
                self.machine.free(r, self._blocks[r].nbytes)
        self._blocks = []
        self._pool = None
        self._alive = False

    @property
    def alive(self) -> bool:
        return self._alive

    # ------------------------------------------------------------------ bounds
    def part_bounds(self, rank: int) -> Bounds:
        """The paper's ``array_part_bounds`` macro."""
        self._check_alive()
        return self.dist.bounds(rank)

    def partition_nbytes(self, rank: int) -> int:
        self._check_alive()
        return self._blocks[rank].nbytes

    def max_partition_nbytes(self) -> int:
        self._check_alive()
        return max(b.nbytes for b in self._blocks)

    # ------------------------------------------------------------------ elems
    def _local_pos(self, index: Sequence[int], rank: int) -> tuple[int, ...]:
        """Partition-local coordinates of a global index, or LocalityError."""
        index = tuple(int(i) for i in index)
        if getattr(self.dist, "local_indices", None) is None:
            # contiguous block partition: position is a subtraction
            b = self.part_bounds(rank)
            if not b.contains(index):
                raise LocalityError(
                    f"processor {rank} may not access element {index}: it is "
                    f"not in its partition (bounding box [{b.lower}, {b.upper}))"
                )
            return b.localize(index)
        vecs = self.local_index_vectors(rank)
        pos = []
        for i, v in zip(index, vecs):
            k = int(np.searchsorted(v, i))
            if k >= len(v) or v[k] != i:
                b = self.part_bounds(rank)
                raise LocalityError(
                    f"processor {rank} may not access element {index}: it is "
                    f"not in its partition (bounding box [{b.lower}, {b.upper}))"
                )
            pos.append(k)
        return tuple(pos)

    def get_elem(self, index: Sequence[int], rank: int):
        """``array_get_elem`` — local only, from the view of *rank*."""
        self._check_alive()
        return self._blocks[rank][self._local_pos(index, rank)]

    def put_elem(self, index: Sequence[int], value, rank: int) -> None:
        """``array_put_elem`` — local only, from the view of *rank*."""
        self._check_alive()
        self._blocks[rank][self._local_pos(index, rank)] = value

    def owner(self, index: Sequence[int]) -> int:
        self._check_alive()
        return self.dist.owner(index)

    # ------------------------------------------------------------------ blocks
    @property
    def pool(self) -> np.ndarray | None:
        """The contiguous global buffer backing all blocks, or ``None``
        for strided (cyclic/block-cyclic) layouts.  Every ``local(r)`` is
        a view into it; fused skeleton paths read and write it directly."""
        self._check_alive()
        return self._pool

    def local(self, rank: int) -> np.ndarray:
        """The partition of *rank* (skeleton-internal; mutating it is the
        skeleton's responsibility)."""
        self._check_alive()
        return self._blocks[rank]

    def set_local(self, rank: int, block: np.ndarray) -> None:
        self._check_alive()
        if block.shape != self._blocks[rank].shape:
            raise DistributionError(
                f"partition shape {block.shape} != expected "
                f"{self._blocks[rank].shape} on rank {rank}"
            )
        if self._pool is not None:
            # pooled blocks are views into the global buffer — write
            # through them so the pool stays the single source of truth
            self._blocks[rank][...] = np.asarray(block, dtype=self.dtype)
        else:
            self._blocks[rank] = np.asarray(block, dtype=self.dtype)

    def local_index_vectors(self, rank: int) -> tuple[np.ndarray, ...]:
        """Global indices owned by *rank*, one sorted vector per dimension.

        Contiguous ranges for block distributions; strided sets for the
        cyclic/block-cyclic extensions (which expose ``local_indices``).
        """
        self._check_alive()
        return self.dist.index_vectors(rank)

    def index_grids(self, rank: int) -> tuple[np.ndarray, ...]:
        """Per-dimension global index vectors of the partition of *rank*
        (open-meshed, ready for numpy broadcasting).  This is what the
        vectorized map kernels receive as the ``Index`` argument."""
        self._check_alive()
        return self.dist.index_grids(rank)

    # ------------------------------------------------------------------ global
    def global_view(self) -> np.ndarray:
        """Assemble the distributed array into one numpy array.

        Verification/test helper — the real machine could not do this
        (it is a gather); simulated time is *not* charged.
        """
        self._check_alive()
        if self._pool is not None:
            # a copy, not the pool itself: callers (array_map_overlap,
            # oracles) read it while skeletons may write the pool
            return self._pool.copy()
        out = np.zeros(self.shape, dtype=self.dtype)
        for r in range(self.p):
            vecs = self.local_index_vectors(r)
            out[np.ix_(*vecs)] = self._blocks[r]
        return out

    def fill_from_global(self, data: np.ndarray) -> None:
        """Scatter a global numpy array into the partitions (any
        distribution kind; test/oracle helper, no time charged)."""
        self._check_alive()
        data = np.asarray(data)
        if data.shape != self.shape:
            raise DistributionError(
                f"global data shape {data.shape} != array shape {self.shape}"
            )
        if self._pool is not None:
            self._pool[...] = data
            return
        for r in range(self.p):
            vecs = self.local_index_vectors(r)
            self._blocks[r][...] = data[np.ix_(*vecs)]

    @classmethod
    def from_global(
        cls,
        machine: Machine,
        data: np.ndarray,
        distr: str = DISTR_DEFAULT,
        grid: tuple[int, ...] | None = None,
    ) -> "DistArray":
        """Scatter an existing numpy array (test/oracle helper)."""
        data = np.asarray(data)
        g = grid if grid is not None else default_grid(machine, data.ndim, distr)
        dist = BlockDistribution.shared(data.shape, g)
        arr = cls(machine, dist, data.dtype, distr)
        arr.fill_from_global(data)
        return arr

    @classmethod
    def uninitialized(
        cls,
        machine: Machine,
        shape: Sequence[int],
        dtype,
        distr: str = DISTR_DEFAULT,
        grid: tuple[int, ...] | None = None,
    ) -> "DistArray":
        g = grid if grid is not None else default_grid(machine, len(shape), distr)
        dist = BlockDistribution.shared(shape, g)
        return cls(machine, dist, dtype, distr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "destroyed"
        return (
            f"DistArray(shape={self.shape}, dtype={self.dtype}, "
            f"grid={self.dist.grid}, distr={self.distr}, {state})"
        )
