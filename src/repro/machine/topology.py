"""Hardware and virtual (software) topologies.

The paper's testbed is a Parsytec MC: 64 T800 transputers wired as a
2-dimensional mesh, running Parix.  Parix lets applications request
*virtual topologies* (ring, 2-D torus, tree, ...) which the OS embeds into
the hardware mesh; messages along a virtual link are routed over one or
more hardware links.

We model exactly that split:

* :class:`Mesh2D` is the *hardware* — it defines the hop distance between
  any two physical nodes (dimension-ordered routing, so the hop count is
  the Manhattan distance).
* :class:`VirtualTopology` subclasses (:class:`Ring`, :class:`Torus2D`,
  :class:`BinomialTree`, :class:`DefaultMapping`) define logical neighbour
  relations plus an *embedding*: for every logical edge, the number of
  hardware hops a message travelling that edge crosses.

The quality of the embedding matters for the experiments: the paper notes
that the *old* hand-written C version of shortest paths did not use
virtual topologies (nor asynchronous communication), which is why Skil's
``array_gen_mult`` — running on a torus embedding — beats it in Table 1.

Embeddings implemented:

* ring: boustrophedon (snake) walk of the mesh — dilation 1 (every ring
  edge is one hardware hop).
* torus: either *folded* (dilation 2: interleave rows/columns so that
  wrap-around edges also cost 2 hops — the classic folded-torus trick) or
  *naive* (wrap edges cost ``size - 1`` hops, as a plain mesh would).
* binomial tree: used for reductions/broadcasts; edge (i, i ^ 2^k) costs
  the mesh distance between the two placed nodes.

A topology also owns the **charge plans** of the patterns charged on it
(:class:`EdgePlan`): the clock-independent half of a shift, a binomial
tree or a fan — edge arrays, hops, validity, and the wire seconds each
byte count and cost model prices them at — built once per pattern and
memoized here, under :data:`PLAN_STORE_BYTES`, next to the placed
coordinates it is computed from.  ``Network`` does the clock-dependent
half.  A topology is an immutable value (its memos only cache what its
key determines), so machines share one per ``DISTR_*`` constant,
embedding and mesh shape through :data:`TOPOLOGIES`, and its plans stay
warm across machines.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.errors import TopologyError

__all__ = [
    "Mesh2D",
    "VirtualTopology",
    "DefaultMapping",
    "Ring",
    "Torus2D",
    "BinomialTree",
    "square_grid",
    "EdgePlan",
    "PLAN_STORE_BYTES",
    "InternTable",
    "INTERN_BYTES",
    "TOPOLOGIES",
]

#: bound, in bytes, on the charge plans one topology memoizes (edge
#: arrays, hop vectors and order masks, and what each plan memoizes:
#: priced wire vectors, traced int hops); a memo entry is kept only
#: while there is room, a new plan makes room by the oldest plans'
#: memos and then the oldest plans, and a pattern larger than the bound
#: is never stored
PLAN_STORE_BYTES = 2 << 20

#: bound, in bytes, on what one intern table keeps (:data:`TOPOLOGIES`,
#: ``repro.arrays.distribution.BLOCK_DISTRIBUTIONS``)
INTERN_BYTES = 16 << 20


class InternTable:
    """Immutable values shared under their keys, least recently used
    dropped first so that the values kept hold at most ``bound`` bytes
    (each value's ``nbytes`` as it is now).  A value larger than the
    bound on its own is handed out but not kept.  Values only: nothing
    here refers to a machine, clock or statistic.
    """

    def __init__(self, bound: int):
        self.bound = bound
        self._values: dict = {}
        # machines may be built on several threads; one lookup, insertion
        # or trim at a time keeps one value per key and the order intact
        self._lock = threading.RLock()

    def get(self, key, build):
        """The value under *key*, built by ``build()`` on a miss."""
        with self._lock:
            value = self._values.pop(key, None)
            if value is not None:
                self._values[key] = value  # now the most recently used
                return value
            value = build()
            if value.nbytes <= self.bound:
                self._values[key] = value
                self.trim()
            return value

    @property
    def nbytes(self) -> int:
        """What the kept values hold now."""
        with self._lock:
            return sum(v.nbytes for v in self._values.values())

    def trim(self) -> None:
        """Drop the least recently used values until the rest fit (called
        on a miss and whenever a kept value grows)."""
        with self._lock:
            excess = self.nbytes - self.bound
            while excess > 0:
                excess -= self._values.pop(next(iter(self._values))).nbytes


@dataclass(frozen=True, slots=True, eq=False)
class EdgePlan:
    """The clock-independent half of charging one edge pattern.

    Everything :class:`repro.machine.network.Network` needs about the
    edges ``srcs[i] -> dsts[i]`` on one topology that does not depend on
    the clocks — built once per pattern, so a charge is only the clock
    update.  Hop counts are symmetric, so one plan also serves the
    flipped edges (reduce rounds, scatter).  All arrays are read-only.

    What a charge derives from the plan is kept in :attr:`memo` through
    :meth:`keep`: the wire seconds at each byte count (for the cost model
    that last priced it), and for traced machines the int hops and hop
    histograms.  A plan kept in a topology's store counts it there.
    """

    srcs: np.ndarray
    dsts: np.ndarray
    #: hardware hops per edge as float64, the wire-time operand
    hops_f: np.ndarray
    hops_sum: int
    #: every edge crosses a link, so no local-copy cost applies
    all_remote: bool
    #: shifts only: no rank sends twice and none receives twice
    disjoint: bool = True
    #: rendezvous shifts only, one mask per edge: the source's send is
    #: its rank's first transfer, the destination's receive is its
    #: rank's first transfer, the destination is also a source
    order: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    #: binomial trees only: the ``(lo, hi)`` edge range of every round
    bounds: tuple[tuple[int, int], ...] = ()
    #: what charging derived from the plan (see :meth:`keep`)
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def keep(self, key, value):
        """Memoize *value* (its arrays made read-only) under *key* and
        return it.  A plan held in a topology's store has the store count
        the growth, or forget the entry when there is no room for it."""
        for a in _arrays(value):
            a.setflags(write=False)
        owner = self.memo.get(_STORE)
        if owner is None:
            self.memo[key] = value
        else:
            owner[0]._grown(owner[1], self, key, value)
        return value

    def price(self, nb, cost):
        """``(wire, wire + t_setup)`` of every edge at *nb* bytes a
        message under *cost*: the wire seconds and the comm-seconds
        terms.  A single byte count is priced once per cost model (kept
        with the model that priced it); per-message counts per call."""
        if isinstance(nb, int):
            hit = self.memo.get(nb)
            if hit is not None and (hit[0] is cost or hit[0] == cost):
                return hit[1], hit[2]
        wire = cost.message_time_vec(nb, self.hops_f, self.all_remote)
        terms = wire + cost.t_setup
        if isinstance(nb, int):
            self.keep(nb, (cost, wire, terms))
        return wire, terms

    @property
    def hops(self) -> np.ndarray:
        """Integer hops per edge, for records and metrics (exact)."""
        hops = self.memo.get("hops")
        if hops is None:
            hops = self.keep("hops", self.hops_f.astype(np.int64))
        return hops

    @property
    def nbytes(self) -> int:
        arrays = (self.srcs, self.dsts, self.hops_f) + (self.order or ())
        return sum(map(_held_bytes, arrays)) + sum(
            _array_bytes(v) for v in tuple(self.memo.values())
        )


def _arrays(value) -> list:
    """The arrays of a memo value: the value, or the members of a tuple."""
    return [a for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]


def _array_bytes(value) -> int:
    return sum(map(_held_bytes, _arrays(value)))


def _held_bytes(a: np.ndarray) -> int:
    """The bytes *a* holds: ``nbytes``, except that an axis of stride 0
    (``np.broadcast_to``: a fan plan's one destination) repeats what the
    array holds instead of adding to it."""
    if 0 not in a.strides:
        return a.nbytes
    if a.size == 0:
        return 0
    return a.itemsize * math.prod(n for n, st in zip(a.shape, a.strides) if st)


#: the memo key under which a stored plan names its store:
#: ``(topology, store key)``
_STORE = object()


def square_grid(p: int) -> tuple[int, int]:
    """Return the most square ``rows x cols`` factorisation of *p*.

    Used both for the hardware mesh shape and for the default process grid
    of 2-D distributed arrays.  Prefers ``rows <= cols``.
    """
    if p <= 0:
        raise TopologyError(f"need a positive number of processors, got {p}")
    rows = int(math.isqrt(p))
    while p % rows != 0:
        rows -= 1
    return rows, p // rows


@dataclass(frozen=True)
class Mesh2D:
    """A ``rows x cols`` hardware mesh of processors.

    Node *r* sits at mesh coordinates ``(r // cols, r % cols)``; messages
    use dimension-ordered (X-then-Y) routing, so the number of link
    traversals between two nodes is their Manhattan distance.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise TopologyError(f"invalid mesh shape {self.rows}x{self.cols}")

    @classmethod
    def for_processors(cls, p: int) -> "Mesh2D":
        """Most-square mesh holding exactly *p* nodes."""
        r, c = square_grid(p)
        return cls(r, c)

    @property
    def p(self) -> int:
        return self.rows * self.cols

    def coords(self, rank: int) -> tuple[int, int]:
        self._check(rank)
        return divmod(rank, self.cols)

    def rank_of(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise TopologyError(f"coordinates ({row},{col}) outside mesh")
        return row * self.cols + col

    def hops(self, src: int, dst: int) -> int:
        """Hardware link traversals between *src* and *dst* (0 if equal)."""
        r1, c1 = self.coords(src)
        r2, c2 = self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def neighbors(self, rank: int) -> list[int]:
        """Physically adjacent nodes (the T800 has four links)."""
        r, c = self.coords(rank)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < self.rows and 0 <= nc < self.cols:
                out.append(self.rank_of(nr, nc))
        return out

    def _check(self, rank: int) -> None:
        if not (0 <= rank < self.p):
            raise TopologyError(f"rank {rank} outside mesh of {self.p} nodes")


class VirtualTopology:
    """A logical topology embedded into a hardware mesh.

    Subclasses define logical neighbour relations; :meth:`edge_hops`
    translates a logical edge into hardware hops through the embedding.
    """

    #: symbolic name matching the paper's ``DISTR_*`` constants
    distr_name = "DISTR_DEFAULT"

    def __init__(self, mesh: Mesh2D):
        self.mesh = mesh
        # hop counts are pure in (src, dst) for a given embedding: the
        # charging hot paths use the O(p) placed-coordinate arrays
        self._place_vec: np.ndarray | None = None
        self._placed_coords: tuple[np.ndarray, np.ndarray] | None = None
        # charge plans (and Gentleman's move pairs) keyed by pattern,
        # with their sizes (insertion order is eviction order); at most
        # PLAN_STORE_BYTES in total
        self._plans: dict[object, tuple[object, int]] = {}
        self._plan_bytes = 0
        # machines on several threads may share the topology: one
        # insertion, growth or trim of the store at a time
        self._lock = threading.RLock()

    @property
    def p(self) -> int:
        return self.mesh.p

    @property
    def nbytes(self) -> int:
        """What this topology holds: the place vector and placed
        coordinates (24 bytes a rank, counted before they are built), the
        arrays of its plan store, and 2 KiB of Python objects per stored
        entry and twice that for the topology itself."""
        return 24 * self.p + self._plan_bytes + 2048 * (len(self._plans) + 2)

    def place(self, logical: int) -> int:
        """Hardware rank hosting logical processor *logical*.

        The identity by default; embeddings override it.
        """
        return logical

    def _compute_place_vector(self) -> np.ndarray:
        """Embedding as an array; subclasses override with closed forms."""
        if type(self).place is VirtualTopology.place:
            # identity embedding — no per-rank Python calls
            return np.arange(self.p, dtype=np.int64)
        return np.fromiter(
            (self.place(r) for r in range(self.p)), dtype=np.int64, count=self.p
        )

    def place_vector(self) -> np.ndarray:
        """Hardware rank of every logical rank as a read-only int64 array."""
        if self._place_vec is None:
            placed = np.ascontiguousarray(
                self._compute_place_vector(), dtype=np.int64
            )
            placed.setflags(write=False)
            self._place_vec = placed
        return self._place_vec

    def placed_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Mesh ``(rows, cols)`` of every placed logical rank — O(p).

        These two arrays are the whole hop "matrix" in factored form:
        the dimension-ordered route length of any edge is the Manhattan
        distance of its endpoints' coordinates.
        """
        if self._placed_coords is None:
            rows, cols = np.divmod(self.place_vector(), self.mesh.cols)
            rows.setflags(write=False)
            cols.setflags(write=False)
            self._placed_coords = (rows, cols)
        return self._placed_coords

    def hops_vec(self, srcs, dsts) -> np.ndarray:
        """Closed-form hardware hops for logical edges ``srcs[i]→dsts[i]``.

        Accepts arrays or scalars (numpy broadcasting applies) and
        computes the Manhattan distances from the O(p) placed-coordinate
        arrays — entry for entry ``mesh.hops(place(s), place(d))``, with
        no ``(p, p)`` matrix at any p.
        """
        rows, cols = self.placed_coords()
        return np.abs(rows[srcs] - rows[dsts]) + np.abs(cols[srcs] - cols[dsts])

    def edge_hops(self, src: int, dst: int) -> int:
        """Hardware hops for a message on the logical edge *src*→*dst*.

        Plain-int arithmetic on the placed coordinates (the scalar
        ``p2p`` path asks once per message) — the same integers as
        :meth:`hops_vec`.
        """
        if not (0 <= src < self.p and 0 <= dst < self.p):
            raise TopologyError(
                f"edge ({src},{dst}) outside topology of {self.p} ranks"
            )
        rows, cols = self.placed_coords()
        return (abs(rows.item(src) - rows.item(dst))
                + abs(cols.item(src) - cols.item(dst)))

    # -- charge plans ---------------------------------------------------------
    def edge_plan(self, srcs, dsts, shift: bool = False) -> EdgePlan:
        """Build (without memoizing) the plan of ``srcs[i] -> dsts[i]``.

        With *shift* the edges come from outside (``shift_batch`` takes
        any arrays), so they are validated here, once per pattern — a
        rank outside the topology would otherwise index the placed
        coordinates from the wrong end — and the per-side disjointness
        verdict and the rendezvous order masks are worked out too:
        ``sent[r]`` / ``got[r]`` is the edge on which rank *r* sends /
        receives, a duplicate on a side shows as an overwritten entry,
        and a rank doing both performs the lower-numbered edge first (a
        self-pair sends first).
        """
        if shift:
            if srcs.ndim != 1 or srcs.shape != dsts.shape:
                raise TopologyError(
                    "shift needs one-dimensional src and dst arrays of equal "
                    f"length, got shapes {srcs.shape} and {dsts.shape}"
                )
            ends = np.concatenate((srcs, dsts))
            bad = ends[(ends < 0) | (ends >= self.p)]
            if bad.size:
                raise TopologyError(
                    f"rank {int(bad[0])} outside topology of {self.p} ranks"
                )
        hops = self.hops_vec(srcs, dsts)
        disjoint, order = True, None
        if shift:
            idx = np.arange(hops.size)
            sent = np.full(self.p, -1, dtype=np.int64)
            got = np.full(self.p, -1, dtype=np.int64)
            sent[srcs] = idx
            got[dsts] = idx
            disjoint = bool((sent[srcs] == idx).all() and (got[dsts] == idx).all())
            if disjoint:
                recv_at, send_at = got[srcs], sent[dsts]
                order = (
                    (recv_at < 0) | (recv_at >= idx),
                    (send_at < 0) | (send_at > idx),
                    send_at >= 0,
                )
        hops_f = hops.astype(np.float64)
        for a in (hops_f, *(order or ())):
            a.setflags(write=False)
        return EdgePlan(
            srcs, dsts, hops_f, int(hops.sum()),
            bool(hops.size == 0 or hops.min() > 0), disjoint, order,
        )

    def _memo(self, key, build):
        """The plan(s) under *key*: built on first use, kept while they
        fit under ``PLAN_STORE_BYTES`` (the oldest entries make room).
        A shared topology that grew makes :data:`TOPOLOGIES` trim."""
        hit = self._plans.get(key)
        if hit is not None:
            return hit[0]
        value = build()
        size = sum(pl.nbytes for pl in (value if isinstance(value, tuple) else (value,)))
        if size > PLAN_STORE_BYTES:
            return value
        with self._lock:
            hit = self._plans.get(key)
            if hit is not None:  # another thread stored it meanwhile
                return hit[0]
            if isinstance(value, EdgePlan):
                value.memo[_STORE] = (self, key)
            self._plans[key] = (value, size)
            self._plan_bytes += size
            self._trim()
        return value

    def _grown(self, key, plan: EdgePlan, name, value) -> None:
        """Memoize *value* under *name* on the stored *plan* if the store
        has room for it (else it is forgotten: its caller still has it).
        No plan is dropped for a memo entry: a plan costs more to rebuild
        than what it memoizes, and an ``alltoall`` at p = 256 fills the
        store with plans alone."""
        with self._lock:
            hit = self._plans.get(key)
            added = _array_bytes(value) - _array_bytes(plan.memo.get(name))
            if hit is None or hit[0] is not plan or (
                self._plan_bytes + added > PLAN_STORE_BYTES
            ):
                return
            plan.memo[name] = value
            self._plan_bytes += added
            self._plans[key] = (plan, hit[1] + added)
        TOPOLOGIES.trim()

    def _trim(self) -> None:
        """Make the store fit its bound: forget what the oldest plans
        memoized (cheap to derive again), then drop the oldest plans."""
        plans = self._plans
        with self._lock:
            for key, (value, size) in plans.items():
                if self._plan_bytes <= PLAN_STORE_BYTES:
                    break
                if isinstance(value, EdgePlan) and len(value.memo) > 1:
                    store = value.memo[_STORE]
                    value.memo.clear()
                    value.memo[_STORE] = store
                    plans[key] = (value, value.nbytes)
                    self._plan_bytes -= size - value.nbytes
            while self._plan_bytes > PLAN_STORE_BYTES:
                value, size = plans.pop(next(iter(plans)))
                self._plan_bytes -= size
                if isinstance(value, EdgePlan):
                    del value.memo[_STORE]
        TOPOLOGIES.trim()

    def shift_plan(self, srcs: np.ndarray, dsts: np.ndarray) -> EdgePlan:
        """Memoized shift plan of the int64 edge arrays, keyed by content.

        The key bytes double as the plan's edge arrays (in the caller's
        shapes, which :meth:`edge_plan` checks), so a stored pattern is
        held once.
        """
        key = (srcs.tobytes(), dsts.tobytes())
        return self._memo(
            key,
            lambda: self.edge_plan(
                np.frombuffer(key[0], dtype=np.int64).reshape(srcs.shape),
                np.frombuffer(key[1], dtype=np.int64).reshape(dsts.shape),
                shift=True,
            ),
        )

    def tree_plan(self, root: int) -> EdgePlan:
        """Memoized plan of the binomial broadcast from *root*: every
        edge, round after round — the edges of ``_binomial_rounds``, in
        its order — with the rounds' ``(lo, hi)`` ranges in ``bounds``;
        reductions use it flipped."""

        def build():
            srcs, dsts, bounds = _binomial_tree_edges(self.p, root)
            tree = self.edge_plan(srcs, dsts)
            return replace(tree, bounds=tuple(bounds))

        return self._memo(("tree", root), build)

    def fan_plan(self, root: int) -> EdgePlan:
        """Memoized plan of every other rank, ascending, sending to
        *root* (gather); scatter uses it flipped."""

        def build():
            ranks = np.delete(np.arange(self.p, dtype=np.int64), root)
            ranks.setflags(write=False)
            return self.edge_plan(ranks, np.broadcast_to(np.int64(root), ranks.shape))

        return self._memo(("fan", root), build)

    def edges(self) -> Iterator[tuple[int, int]]:  # pragma: no cover - abstract
        raise NotImplementedError


class DefaultMapping(VirtualTopology):
    """Identity mapping onto the hardware (``DISTR_DEFAULT``)."""

    distr_name = "DISTR_DEFAULT"

    def edges(self) -> Iterator[tuple[int, int]]:
        for r in range(self.p):
            for n in self.mesh.neighbors(r):
                yield (r, n)


class Ring(VirtualTopology):
    """A ring of all processors (``DISTR_RING``).

    Embedded as a boustrophedon walk of the mesh: consecutive ring members
    are physically adjacent (dilation 1) except the single closing edge,
    which crosses ``rows - 1`` vertical links.
    """

    distr_name = "DISTR_RING"

    def __init__(self, mesh: Mesh2D):
        super().__init__(mesh)
        # boustrophedon walk, built closed-form: row-major ranks with
        # every odd row reversed (rank_of(r, c) == r * cols + c)
        order = np.arange(mesh.p, dtype=np.int64).reshape(mesh.rows, mesh.cols)
        order[1::2] = order[1::2, ::-1]
        self._place = order.reshape(-1)

    def place(self, logical: int) -> int:
        return int(self._place[logical])

    def _compute_place_vector(self) -> np.ndarray:
        return np.asarray(self._place, dtype=np.int64)

    def succ(self, logical: int) -> int:
        return (logical + 1) % self.p

    def pred(self, logical: int) -> int:
        return (logical - 1) % self.p

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.p):
            yield (i, self.succ(i))


class Torus2D(VirtualTopology):
    """A 2-D torus of virtual processors (``DISTR_TORUS2D``).

    This is the topology ``array_gen_mult`` wants: Gentleman's algorithm
    rotates matrix partitions along torus rows and columns.

    With ``folded=True`` (the default) the torus is embedded with the
    folded interleaving so every torus edge — including wrap-around —
    costs at most 2 hardware hops.  With ``folded=False`` the naive
    embedding is used and wrap-around edges cost ``size - 1`` hops; this
    models software that does *not* exploit virtual topologies (the old C
    baseline of Table 1).
    """

    distr_name = "DISTR_TORUS2D"

    def __init__(self, mesh: Mesh2D, folded: bool = True):
        super().__init__(mesh)
        self.grid_rows = mesh.rows
        self.grid_cols = mesh.cols
        self.folded = folded
        if folded:
            self._row_perm = _folded_order(mesh.rows)
            self._col_perm = _folded_order(mesh.cols)
        else:
            self._row_perm = list(range(mesh.rows))
            self._col_perm = list(range(mesh.cols))

    # -- logical grid addressing -------------------------------------------------
    def grid_coords(self, logical: int) -> tuple[int, int]:
        if not (0 <= logical < self.p):
            raise TopologyError(f"rank {logical} outside torus of {self.p}")
        return divmod(logical, self.grid_cols)

    def grid_rank(self, row: int, col: int) -> int:
        return (row % self.grid_rows) * self.grid_cols + (col % self.grid_cols)

    def place(self, logical: int) -> int:
        lr, lc = self.grid_coords(logical)
        return self.mesh.rank_of(self._row_perm[lr], self._col_perm[lc])

    def _compute_place_vector(self) -> np.ndarray:
        lr, lc = np.divmod(np.arange(self.p, dtype=np.int64), self.grid_cols)
        rp = np.asarray(self._row_perm, dtype=np.int64)
        cp = np.asarray(self._col_perm, dtype=np.int64)
        # rank_of(row, col) == row * mesh.cols + col
        return rp[lr] * self.mesh.cols + cp[lc]

    # -- neighbour helpers used by gen_mult ---------------------------------------
    def west(self, logical: int) -> int:
        r, c = self.grid_coords(logical)
        return self.grid_rank(r, c - 1)

    def east(self, logical: int) -> int:
        r, c = self.grid_coords(logical)
        return self.grid_rank(r, c + 1)

    def north(self, logical: int) -> int:
        r, c = self.grid_coords(logical)
        return self.grid_rank(r - 1, c)

    def south(self, logical: int) -> int:
        r, c = self.grid_coords(logical)
        return self.grid_rank(r + 1, c)

    def edges(self) -> Iterator[tuple[int, int]]:
        for i in range(self.p):
            yield (i, self.east(i))
            yield (i, self.south(i))

    def gentleman_pairs(self, move) -> tuple[np.ndarray, np.ndarray]:
        """``(srcs, dsts)`` of one move of Gentleman's algorithm on this
        (square) torus, memoized in the plan store: the skews ``("a", 1)``
        and ``("b", 1)``, the unskews ``("a", -1)`` and ``("b", -1)``, and
        the unit rotations ``"west"`` and ``"north"``.  Pairs come in
        source-rank order; a rank that keeps its block is left out."""
        return self._memo(("gentleman", move), lambda: self._gentleman(move))

    def _gentleman(self, move) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid_cols
        ranks = np.arange(self.p, dtype=np.int64)
        i, j = np.divmod(ranks, g)
        if move == "west":
            dst = i * g + (j - 1) % g
        elif move == "north":
            dst = (i - 1) % self.grid_rows * g + j
        elif move[0] == "a":  # (i, j) takes the block of (i, j + d·i)
            dst = i * g + (j - move[1] * i) % g
        else:  # (i, j) takes the block of (i + d·j, j)
            dst = (i - move[1] * j) % g * g + j
        keep = dst != ranks
        pairs = (ranks[keep], dst[keep])
        for x in pairs:
            x.setflags(write=False)
        return pairs


class BinomialTree(VirtualTopology):
    """Binomial broadcast/reduction tree rooted at an arbitrary rank.

    Round *k* of a broadcast from the root sends from every already
    informed node ``i`` to ``i XOR 2^k`` (ranks relative to the root).
    ``array_fold`` runs the mirror image of this pattern upwards and then
    broadcasts the result back down, exactly as described in the paper
    ("performed along the edges of a virtual tree topology").
    """

    distr_name = "DISTR_TREE"

    def __init__(self, mesh: Mesh2D, root: int = 0):
        super().__init__(mesh)
        if not (0 <= root < mesh.p):
            raise TopologyError(f"tree root {root} outside machine")
        self.root = root

    @property
    def rounds(self) -> int:
        return max(1, math.ceil(math.log2(self.p))) if self.p > 1 else 0

    def broadcast_rounds(self) -> list[list[tuple[int, int]]]:
        """List of rounds; each round is a list of (src, dst) logical edges."""
        return [list(rnd) for rnd in _binomial_rounds(self.p, self.root)]

    def reduce_rounds(self) -> list[list[tuple[int, int]]]:
        """Reduction is the reversed broadcast with edges flipped."""
        return [
            [(d, s) for (s, d) in rnd]
            for rnd in reversed(_binomial_rounds(self.p, self.root))
        ]

    def edges(self) -> Iterator[tuple[int, int]]:
        for rnd in self.broadcast_rounds():
            yield from rnd


@lru_cache(maxsize=None)
def _binomial_rounds(p: int, root: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Binomial broadcast schedule for *p* ranks rooted at *root*.

    The schedule depends only on ``(p, root)`` — it is recomputed on every
    collective otherwise (a fresh :class:`BinomialTree` per call), so the
    edge lists are memoized here; :meth:`BinomialTree.broadcast_rounds`
    hands out fresh lists so callers may mutate them.
    """
    rounds: list[tuple[tuple[int, int], ...]] = []
    informed = 1
    k = 0
    while informed < p:
        step = 1 << k
        edges = tuple(
            ((rel + root) % p, (rel + step + root) % p)
            for rel in range(min(step, p))
            if rel + step < p
        )
        rounds.append(edges)
        informed += len(edges)
        k += 1
    return tuple(rounds)


def _binomial_tree_edges(
    p: int, root: int
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """All edges of the binomial broadcast from *root*, round after
    round, plus the ``(lo, hi)`` index range of every round.

    Round *k* (step = 2^k) informs the ranks ``step .. min(2*step, p) - 1``
    relative to the root, each from the rank ``step`` below it — so over
    the rounds the informed ranks are simply ``1 .. p - 1`` in order, and
    the whole tree is a handful of O(p) numpy operations.
    """
    steps = [1 << k for k in range((p - 1).bit_length())]
    counts = [min(step, p - step) for step in steps]
    informed = np.arange(1, p, dtype=np.int64)
    srcs = (informed - np.repeat(np.asarray(steps, dtype=np.int64), counts) + root) % p
    dsts = (informed + root) % p
    srcs.setflags(write=False)
    dsts.setflags(write=False)
    return srcs, dsts, [(step - 1, step - 1 + n) for step, n in zip(steps, counts)]


def _folded_order(n: int) -> list[int]:
    """Interleaved placement giving a dilation-2 ring on a line.

    ``0 2 4 ... 5 3 1`` — consecutive ring positions (including the wrap)
    are at most 2 apart on the physical line.
    """
    evens = list(range(0, n, 2))
    odds = list(range(1, n, 2))
    return evens + odds[::-1]


#: the topologies machines share, keyed ``(distr, folded, rows, cols)``
#: (:meth:`repro.machine.machine.Machine.topology`)
TOPOLOGIES = InternTable(INTERN_BYTES)
