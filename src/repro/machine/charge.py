"""Where abstract work becomes simulated seconds.

The paper's evaluation is one sentence: the *same* skeletons cost
different time under Skil, DPFL and C.  A skeleton (or a hand-written C
comparator) therefore only *states* what it did — element counts with
their op counts, raw byte counts, ranks, a topology, a tag — through the
operations of :class:`Charge`, and this module alone applies
:class:`~repro.machine.costmodel.LanguageProfile` x
:class:`~repro.machine.costmodel.CostModel` to it and advances the
clocks through :class:`~repro.machine.network.Network`.  A new profile
field changes this module and nothing else; the sequence of calls made
here is profile-independent (``tests/skeletons/test_charge_seam.py``),
which is what ROADMAP item 4's cost tape will keep.

The operand order of every float expression here is load-bearing:
simulated clocks are held bit for bit (``tests/eval/test_golden_sim.py``).

A charge prices once what it can: element times are kept per
``(profile, cost model)``, and a ``work`` / ``memcpy`` over per-rank
count vectors keeps its seconds vector and their total, keyed by the
identity of the read-only vectors it priced (a distribution's
``part_sizes()``; the entry holds them, so an id is never reused).
"""

from __future__ import annotations

import numpy as np

from repro.machine.costmodel import LanguageProfile

__all__ = ["Charge"]


class Charge:
    """The charging operations of one ``(machine, profile)`` pair.

    ``machine.network.<method>`` is looked up on every call, so a network
    whose methods were instrumented after construction is honoured.
    """

    def __init__(self, machine, profile: LanguageProfile):
        self.machine = machine
        self.profile = profile
        #: the pair the memos below priced for; a new pair empties them
        self._pair = (None, None)
        self._elem: dict = {}
        self._kept: dict = {}

    def _memos(self) -> tuple[dict, dict]:
        """The element times and the kept terms of the current pair."""
        profile, cost = self.profile, self.machine.cost
        if self._pair[0] is not profile or self._pair[1] is not cost:
            self._pair = (profile, cost)
            self._elem, self._kept = {}, {}
        return self._elem, self._kept

    # ---------------------------------------------------------------- pricing
    def elem_time(self, ops: float = 1.0) -> float:
        """Seconds one element application of *ops* abstract operations
        costs.  A pure function of the pair: ``farm`` and ``d&c`` price
        the events they hand the event engine with it."""
        elem = self._memos()[0]
        t = elem.get(ops)
        if t is None:
            t = elem[ops] = self.profile.elem_time(self.machine.cost, ops)
        return t

    def folds(self, count):
        """Applications of a binary function folding *count* elements
        (one number or a per-rank vector): ``max(0, count - 1)``, derived
        once for a read-only vector."""
        key = _kept_key(((count,),), "folds")
        if key is None:
            return np.maximum(0, count - 1)
        return self._vector(key, count, lambda: np.maximum(0, count - 1))[0]

    def _wire(self, nbytes):
        """Bytes a message of *nbytes* raw bytes costs on the wire.

        Functional hosts flatten boxed elements into a send buffer and
        re-box on receipt (``comm_byte_factor``); imperative partitions
        go out as-is.  ``int()`` and ``astype`` both round toward zero.
        """
        wire = nbytes * self.profile.comm_byte_factor
        if isinstance(wire, np.ndarray):
            return wire.astype(np.int64)
        return int(wire)

    @property
    def _sync(self) -> bool:
        """Whether sends rendezvous (a host without asynchronous sends)."""
        return not self.profile.async_comm

    def _vector(self, key, counts, build) -> tuple[np.ndarray, float]:
        """``(vector, its total)``: what ``build()`` derives from the
        read-only *counts*, made read-only and kept under *key*
        (:func:`_kept_key`) with the counts it was derived from."""
        kept = self._memos()[1]
        hit = kept.get(key)
        if hit is None:
            vector = build()
            vector.setflags(write=False)
            hit = kept[key] = (counts, vector, float(vector.sum()))
        return hit[1], hit[2]

    # ---------------------------------------------------------------- compute
    def invocation(self) -> None:
        """The fixed per-processor overhead of one skeleton invocation
        (argument marshalling, bounds setup); nothing is charged — not
        even a traced zero-length interval — when the profile has none."""
        if self.profile.skeleton_overhead:
            self.machine.network.compute(self.profile.skeleton_overhead)

    def work(self, *terms, realloc_itemsize=None) -> None:
        """Elementwise work on every processor, as ordered terms.

        Each term is ``(count, ops, ...)``: *count* applications (one
        number for all processors, or a per-rank vector) of functions
        costing *ops* abstract operations each — ``count * (t(ops1) +
        t(ops2) + ...)`` — and the terms add left to right.
        *realloc_itemsize* is the size of one result element that a host
        without in-place update (``copy_on_update``) allocates and copies
        back for each of the first term's applications; an imperative
        host pays nothing for it.  Terms over read-only count vectors
        (which must not change) are priced once.
        """
        key = _kept_key(terms, realloc_itemsize)
        if key is None:
            self.machine.network.compute(self._price(terms, realloc_itemsize))
        else:
            self.machine.network.compute(
                *self._vector(key, terms, lambda: self._price(terms, realloc_itemsize))
            )

    def _price(self, terms, realloc_itemsize):
        """The seconds of :meth:`work`'s *terms*."""
        seconds = None
        for count, ops, *more in terms:
            t = self.elem_time(ops)
            for o in more:
                t = t + self.elem_time(o)
            seconds = count * t if seconds is None else seconds + count * t
        if realloc_itemsize is not None and self.profile.copy_on_update:
            realloc = terms[0][0] * realloc_itemsize
            seconds = seconds + realloc * self.machine.cost.t_mem
        return seconds

    def work_at(self, rank: int, count, ops: float = 1.0) -> None:
        """*count* applications of an *ops*-operation function on *rank*."""
        self.machine.network.compute_at(rank, count * self.elem_time(ops))

    def memcpy(self, count, itemsize: int = 1) -> None:
        """A local block copy of *count* items of *itemsize* bytes (one
        number or a per-rank vector) on every processor, at ``memcpy``
        speed with no per-element calls."""
        def price():
            return count * itemsize * self.machine.cost.t_mem

        key = _kept_key(((count,),), ("memcpy", itemsize))
        if key is None:
            self.machine.network.compute(price())
        else:
            self.machine.network.compute(*self._vector(key, count, price))

    def memcpy_at(self, rank: int, nbytes: int) -> None:
        """A local block copy of *nbytes* on *rank* alone."""
        self.machine.network.compute_at(rank, nbytes * self.machine.cost.t_mem)

    # ---------------------------------------------------------- communication
    # *nbytes* is always the raw payload; the wire size and the send
    # discipline (``async_comm``) are the profile's business.
    def broadcast(self, root: int, nbytes: int, topo, tag: str) -> None:
        self.machine.network.broadcast(
            root, self._wire(nbytes), topo, sync=self._sync, tag=tag
        )

    def allreduce(self, nbytes: int, topo, combine_ops: float) -> None:
        """Tree reduction + broadcast; every merge applies a function of
        *combine_ops* abstract operations."""
        self.machine.network.allreduce(
            self._wire(nbytes), topo,
            combine_seconds=self.elem_time(combine_ops), sync=self._sync,
        )

    def shift(self, pairs, nbytes, topo, tag: str) -> None:
        """Simultaneous transfers along ``(src, dst)`` *pairs*; *nbytes*
        is one count or a vector indexed by source rank."""
        self.machine.network.shift(
            pairs, self._wire(nbytes), topo, sync=self._sync, tag=tag
        )

    def shift_batch(self, srcs, dsts, nbytes, topo, tag: str) -> None:
        """:meth:`shift` over parallel rank arrays."""
        self.machine.network.shift_batch(
            srcs, dsts, self._wire(nbytes), topo, sync=self._sync, tag=tag
        )

    def p2p_batch(self, srcs, dsts, nbytes, topo, tag: str) -> None:
        """A sequence of point-to-point messages, *nbytes* per message."""
        self.machine.network.p2p_batch(
            srcs, dsts, self._wire(nbytes), topo, sync=self._sync, tag=tag
        )


def _kept_key(terms, extra):
    """The memo key of *terms* (tuples whose first entry is a count) and
    *extra*, when every count is a read-only vector — the identities of
    the counts, in order, with the rest of each term — else ``None``."""
    key = [extra]
    for term in terms:
        count = term[0]
        if not isinstance(count, np.ndarray) or count.flags.writeable:
            return None
        key.append(id(count))
        key.append(term[1:])
    return tuple(key)
