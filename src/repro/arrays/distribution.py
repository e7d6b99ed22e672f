"""Distributions of index spaces onto processor grids.

The paper's arrays are distributed **block-wise** ("At present, arrays can
be distributed only block-wise onto processors"); cyclic and block-cyclic
distributions are explicitly listed as future work, and we implement them
too (DESIGN.md §5), together with ghost-cell *overlap* support for block
distributions ("it should be possible to define overlapping areas for the
single partitions").

A distribution maps every global index to an owning processor, and every
processor to the set of indices it owns.  For block(-cyclic)
distributions the owned set per processor is a (strided) rectangle; the
:class:`Bounds` object exposes it in both conventions:

* ``lower`` / ``upper`` — Python style, upper exclusive;
* ``lowerBd`` / ``upperBd`` — the paper's C style, both inclusive (this is
  what ``array_part_bounds`` hands to Skil code like ``copy_pivot``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import DistributionError
from repro.machine.topology import INTERN_BYTES, InternTable

__all__ = ["Bounds", "Distribution", "BlockDistribution", "CyclicDistribution",
           "BlockCyclicDistribution", "BLOCK_DISTRIBUTIONS"]


@dataclass(frozen=True)
class Bounds:
    """Index bounds of one partition.

    ``lower[d] <= i < upper[d]`` for every dimension *d*.  The inclusive
    C-style accessors mirror the paper's ``Bounds`` struct.
    """

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    @property
    def lowerBd(self) -> tuple[int, ...]:
        return self.lower

    @property
    def upperBd(self) -> tuple[int, ...]:
        return tuple(u - 1 for u in self.upper)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(u - l for l, u in zip(self.lower, self.upper))

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def contains(self, index: Sequence[int]) -> bool:
        return all(l <= i < u for i, l, u in zip(index, self.lower, self.upper))

    def localize(self, index: Sequence[int]) -> tuple[int, ...]:
        """Translate a global index into partition-local coordinates."""
        return tuple(i - l for i, l in zip(index, self.lower))


def _as_shape(x, dim: int, what: str) -> tuple[int, ...]:
    t = tuple(int(v) for v in (x if isinstance(x, (tuple, list, np.ndarray)) else (x,)))
    if len(t) != dim:
        raise DistributionError(f"{what} must have {dim} components, got {len(t)}")
    return t


class Distribution:
    """Base class: maps global indices <-> (rank, local index)."""

    def __init__(self, shape: Sequence[int], grid: Sequence[int]):
        self.shape = tuple(int(s) for s in shape)
        self.grid = tuple(int(g) for g in grid)
        if len(self.shape) != len(self.grid):
            raise DistributionError(
                f"array rank {len(self.shape)} != grid rank {len(self.grid)}"
            )
        if any(s <= 0 for s in self.shape):
            raise DistributionError(f"invalid array shape {self.shape}")
        if any(g <= 0 for g in self.grid):
            raise DistributionError(f"invalid grid shape {self.grid}")
        # a distribution is immutable once built, so per-rank geometry is
        # memoized here; every DistArray sharing the distribution reuses it
        self._bounds_cache: dict[int, Bounds] = {}
        self._vector_cache: dict[int, tuple[np.ndarray, ...]] = {}
        self._grid_cache: dict[int, tuple[np.ndarray, ...]] = {}
        self._global_grids: tuple[np.ndarray, ...] | None = None
        self._part_sizes: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def p(self) -> int:
        n = 1
        for g in self.grid:
            n *= g
        return n

    def grid_coords(self, rank: int) -> tuple[int, ...]:
        if not (0 <= rank < self.p):
            raise DistributionError(f"rank {rank} outside grid of {self.p}")
        coords = []
        for g in reversed(self.grid):
            coords.append(rank % g)
            rank //= g
        return tuple(reversed(coords))

    def grid_rank(self, coords: Sequence[int]) -> int:
        r = 0
        for c, g in zip(coords, self.grid):
            if not (0 <= c < g):
                raise DistributionError(f"grid coordinate {c} outside {g}")
            r = r * g + c
        return r

    def bounds(self, rank: int) -> Bounds:
        b = self._bounds_cache.get(rank)
        if b is None:
            b = self._bounds_cache[rank] = self._compute_bounds(rank)
        return b

    def index_vectors(self, rank: int) -> tuple[np.ndarray, ...]:
        """Global indices owned by *rank*, one sorted read-only vector per
        dimension (memoized)."""
        vecs = self._vector_cache.get(rank)
        if vecs is None:
            li = getattr(self, "local_indices", None)
            if li is not None:
                vecs = tuple(np.asarray(v, dtype=np.intp) for v in li(rank))
            else:
                b = self.bounds(rank)
                vecs = tuple(
                    np.arange(l, u, dtype=np.intp)
                    for l, u in zip(b.lower, b.upper)
                )
            for v in vecs:
                v.setflags(write=False)
            self._vector_cache[rank] = vecs
        return vecs

    def index_grids(self, rank: int) -> tuple[np.ndarray, ...]:
        """:meth:`index_vectors` open-meshed for broadcasting (memoized)."""
        grids = self._grid_cache.get(rank)
        if grids is None:
            dim = self.dim
            grids = tuple(
                v.reshape([-1 if d == i else 1 for i in range(dim)])
                for d, v in enumerate(self.index_vectors(rank))
            )
            self._grid_cache[rank] = grids
        return grids

    def global_index_grids(self) -> tuple[np.ndarray, ...]:
        """Open-meshed index grids spanning the whole array (memoized) —
        what a fused whole-array kernel receives instead of per-partition
        grids."""
        if self._global_grids is None:
            dim = self.dim
            grids = []
            for d, n in enumerate(self.shape):
                v = np.arange(n, dtype=np.intp).reshape(
                    [-1 if d == i else 1 for i in range(dim)]
                )
                v.setflags(write=False)
                grids.append(v)
            self._global_grids = tuple(grids)
        return self._global_grids

    # -- to be provided by subclasses ---------------------------------------
    def owner(self, index: Sequence[int]) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _compute_bounds(self, rank: int) -> Bounds:  # pragma: no cover - abstract
        raise NotImplementedError

    def local_shape(self, rank: int) -> tuple[int, ...]:
        return self.bounds(rank).shape

    def part_sizes(self) -> np.ndarray:
        """Number of elements every rank *owns*, as one read-only vector
        (memoized) — what the elementwise skeletons charge from.  Not
        ``bounds(r).size``: for strided layouts that is the bounding box.
        """
        if self._part_sizes is None:
            v = np.array(
                [math.prod(self.local_shape(r)) for r in range(self.p)],
                dtype=np.intp,
            )
            v.setflags(write=False)
            self._part_sizes = v
        return self._part_sizes

    def ranks(self) -> Iterator[int]:
        return iter(range(self.p))


class BlockDistribution(Distribution):
    """Contiguous blocks, one per grid position (the paper's default).

    When a dimension is not divisible by its grid extent, the leading
    processors get one extra element each (the paper sidesteps this by
    rounding the problem size up; the harness does the same, but the
    library handles the general case).

    A distribution is a value of its ``(shape, grid, overlap)``:
    :meth:`shared` hands every array of one geometry the same object, so
    the memoized geometry is warm across arrays, cells and machines.  A
    direct constructor call builds a fresh, cold one.

    Parameters
    ----------
    overlap:
        Ghost-cell width per dimension (the future-work extension).  The
        *owned* bounds never overlap; :meth:`halo_bounds` widens them by
        the overlap, clipped to the array.
    """

    def __init__(
        self,
        shape: Sequence[int],
        grid: Sequence[int],
        overlap: Sequence[int] | int = 0,
    ):
        super().__init__(shape, grid)
        self.overlap = _as_shape(overlap, self.dim, "overlap") if not isinstance(
            overlap, int
        ) else (overlap,) * self.dim
        if any(o < 0 for o in self.overlap):
            raise DistributionError(f"negative overlap {self.overlap}")
        # per-dimension split points
        self._splits: list[np.ndarray] = []
        for n, g in zip(self.shape, self.grid):
            base, extra = divmod(n, g)
            sizes = [base + (1 if i < extra else 0) for i in range(g)]
            if base == 0:
                raise DistributionError(
                    f"more grid positions ({g}) than elements ({n}) in one dimension"
                )
            self._splits.append(np.concatenate(([0], np.cumsum(sizes))))
        self._owner_vectors: tuple[np.ndarray, ...] | None = None
        self._slice_cache: dict[int, tuple[slice, ...]] = {}
        self._slab_cache: dict[int, tuple[slice, ...]] = {}
        #: the most this distribution can hold: every rank's index
        #: vectors, the owner vectors, global grids and part sizes, 1 KiB
        #: of Python objects (bounds, slices, cache entries) per rank and
        #: dimension plus one, and 4 KiB for the object itself
        self.nbytes = 8 * (
            sum(n * self.p // g for n, g in zip(self.shape, self.grid))
            + 2 * sum(self.shape) + self.p
        ) + 1024 * (self.dim + 1) * self.p + 4096

    @classmethod
    def shared(cls, shape, grid, overlap=0) -> "BlockDistribution":
        """The distribution of this geometry that every caller shares
        (:data:`BLOCK_DISTRIBUTIONS`)."""
        key = (
            tuple(map(int, shape)), tuple(map(int, grid)),
            overlap if isinstance(overlap, int) else tuple(map(int, overlap)),
        )
        return BLOCK_DISTRIBUTIONS.get(key, lambda: cls(*key))

    def owner(self, index: Sequence[int]) -> int:
        """The rank owning global *index*, read from :meth:`owner_vectors`."""
        if len(index) != self.dim:
            raise DistributionError(
                f"index {tuple(index)} has {len(index)} coordinates, the "
                f"array {self.dim}"
            )
        rank = 0
        for i, n, g, owners in zip(index, self.shape, self.grid, self.owner_vectors()):
            if not (0 <= i < n):
                raise DistributionError(f"index {tuple(index)} outside {self.shape}")
            rank = rank * g + int(owners[i])
        return rank

    def owner_vectors(self) -> tuple[np.ndarray, ...]:
        """Per-dimension grid coordinate of every global index (memoized,
        read-only) — lets fused kernels map indices to owning processors
        without per-element ``owner`` calls."""
        if self._owner_vectors is None:
            out = []
            for d, n in enumerate(self.shape):
                c = np.searchsorted(
                    self._splits[d], np.arange(n), side="right"
                ) - 1
                c.setflags(write=False)
                out.append(c)
            self._owner_vectors = tuple(out)
        return self._owner_vectors

    def part_slices(self, rank: int) -> tuple[slice, ...]:
        """Owned bounds as a ready-to-index slice tuple (memoized) — the
        fused skeleton paths carve every partition out of the converted
        whole-array result with these."""
        s = self._slice_cache.get(rank)
        if s is None:
            b = self.bounds(rank)
            s = self._slice_cache[rank] = tuple(
                slice(l, u) for l, u in zip(b.lower, b.upper)
            )
        return s

    def slab_rows(self, k: int) -> tuple[slice, ...]:
        """Axis 0 cut into *k* slabs of whole partitions at the split
        points nearest ``n0*i/k``; one slab if the grid has fewer rows
        (memoized per *k*)."""
        slabs = self._slab_cache.get(k)
        if slabs is None:
            g0 = self.grid[0]
            if not 1 < k <= g0:
                slabs = (slice(0, self.shape[0]),)
            else:
                cuts = [int(self._splits[0][(i * g0 + k // 2) // k])
                        for i in range(k + 1)]
                slabs = tuple(slice(lo, hi) for lo, hi in zip(cuts, cuts[1:]))
            self._slab_cache[k] = slabs
        return slabs

    def part_sizes(self) -> np.ndarray:
        """The base method without its per-rank ``local_shape`` walk.

        Computed closed-form as the outer product of the per-dimension
        block lengths (``np.diff`` of the split points): grid ranks are
        row-major over the grid coordinates, so the C-order flattening
        of the outer product is exactly rank order, and integer products
        equal the ``bounds(r).size`` walk entry for entry.
        """
        if self._part_sizes is None:
            v = np.diff(self._splits[0]).astype(np.intp)
            for d in range(1, self.dim):
                v = np.multiply.outer(
                    v, np.diff(self._splits[d]).astype(np.intp)
                )
            v = np.ascontiguousarray(v.reshape(-1))
            v.setflags(write=False)
            self._part_sizes = v
        return self._part_sizes

    def uniform_block_shape(self) -> tuple[int, ...] | None:
        """The common partition shape, or ``None`` when partitions differ.

        Closed form over the per-dimension split diffs — an O(grid)
        check that replaces O(p) per-rank shape walks in the skeletons
        (``array_gen_mult`` requires equally shaped square blocks).
        """
        shape = []
        for d in range(self.dim):
            lens = np.diff(self._splits[d])
            if lens.size == 0 or not bool((lens == lens[0]).all()):
                return None
            shape.append(int(lens[0]))
        return tuple(shape)

    def _compute_bounds(self, rank: int) -> Bounds:
        coords = self.grid_coords(rank)
        lower = tuple(int(self._splits[d][c]) for d, c in enumerate(coords))
        upper = tuple(int(self._splits[d][c + 1]) for d, c in enumerate(coords))
        return Bounds(lower, upper)

    def halo_bounds(self, rank: int) -> Bounds:
        """Owned bounds widened by the overlap, clipped to the array."""
        b = self.bounds(rank)
        lower = tuple(max(0, l - o) for l, o in zip(b.lower, self.overlap))
        upper = tuple(
            min(n, u + o) for n, u, o in zip(self.shape, b.upper, self.overlap)
        )
        return Bounds(lower, upper)

    @classmethod
    def from_pardata_args(
        cls,
        dim: int,
        size,
        blocksize,
        lowerbd,
        grid: Sequence[int],
    ) -> "BlockDistribution":
        """Implement the paper's ``array_create`` parameter conventions.

        * a zero *blocksize* component → "fill in an appropriate value
          depending on the network topology" (global size / grid);
        * a negative *lowerbd* component → "derive the lower local bound
          for this dimension".

        Explicit non-default values must be consistent with an even block
        split — anything else was not supported by the original system
        either and raises :class:`DistributionError`.
        """
        size = _as_shape(size, dim, "size")
        blocksize = _as_shape(blocksize, dim, "blocksize")
        lowerbd = _as_shape(lowerbd, dim, "lowerbd")
        grid = _as_shape(grid, dim, "grid")
        for d in range(dim):
            if blocksize[d] != 0:
                expect = -(-size[d] // grid[d])  # ceil
                if blocksize[d] != expect:
                    raise DistributionError(
                        f"explicit blocksize {blocksize[d]} in dimension {d} "
                        f"conflicts with size {size[d]} on a grid of {grid[d]} "
                        f"(expected {expect} or 0 for the default)"
                    )
            if lowerbd[d] >= 0 and lowerbd[d] != 0:
                raise DistributionError(
                    "only default (negative) lowerbd components are supported"
                )
        return cls.shared(size, grid)


class CyclicDistribution(Distribution):
    """Round-robin distribution (future-work extension).

    Element *i* of dimension *d* lives at grid coordinate ``i % grid[d]``.
    Partitions are strided index sets, so :meth:`bounds` reports the
    bounding box and :meth:`local_indices` the exact global indices per
    dimension.
    """

    def owner(self, index: Sequence[int]) -> int:
        coords = []
        for d, i in enumerate(index):
            if not (0 <= i < self.shape[d]):
                raise DistributionError(f"index {tuple(index)} outside {self.shape}")
            coords.append(i % self.grid[d])
        return self.grid_rank(coords)

    def local_indices(self, rank: int) -> tuple[np.ndarray, ...]:
        coords = self.grid_coords(rank)
        return tuple(
            np.arange(c, n, g)
            for c, n, g in zip(coords, self.shape, self.grid)
        )

    def _compute_bounds(self, rank: int) -> Bounds:
        idx = self.local_indices(rank)
        lower = tuple(int(a[0]) if len(a) else 0 for a in idx)
        upper = tuple(int(a[-1]) + 1 if len(a) else 0 for a in idx)
        return Bounds(lower, upper)

    def local_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(len(a) for a in self.local_indices(rank))


class BlockCyclicDistribution(Distribution):
    """Blocks of a fixed size dealt round-robin (future-work extension)."""

    def __init__(self, shape: Sequence[int], grid: Sequence[int], block: Sequence[int]):
        super().__init__(shape, grid)
        self.block = _as_shape(block, self.dim, "block")
        if any(b <= 0 for b in self.block):
            raise DistributionError(f"invalid block {self.block}")

    def owner(self, index: Sequence[int]) -> int:
        coords = []
        for d, i in enumerate(index):
            if not (0 <= i < self.shape[d]):
                raise DistributionError(f"index {tuple(index)} outside {self.shape}")
            coords.append((i // self.block[d]) % self.grid[d])
        return self.grid_rank(coords)

    def local_indices(self, rank: int) -> tuple[np.ndarray, ...]:
        coords = self.grid_coords(rank)
        out = []
        for c, n, g, b in zip(coords, self.shape, self.grid, self.block):
            idx = []
            start = c * b
            while start < n:
                idx.extend(range(start, min(start + b, n)))
                start += g * b
            out.append(np.asarray(idx, dtype=np.intp))
        return tuple(out)

    def _compute_bounds(self, rank: int) -> Bounds:
        idx = self.local_indices(rank)
        lower = tuple(int(a[0]) if len(a) else 0 for a in idx)
        upper = tuple(int(a[-1]) + 1 if len(a) else 0 for a in idx)
        return Bounds(lower, upper)

    def local_shape(self, rank: int) -> tuple[int, ...]:
        return tuple(len(a) for a in self.local_indices(rank))


#: the block distributions arrays share, keyed ``(shape, grid, overlap)``
BLOCK_DISTRIBUTIONS = InternTable(INTERN_BYTES)
