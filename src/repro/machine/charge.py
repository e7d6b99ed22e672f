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

    # ---------------------------------------------------------------- pricing
    def elem_time(self, ops: float = 1.0) -> float:
        """Seconds one element application of *ops* abstract operations
        costs.  A pure function of the pair: ``farm`` and ``d&c`` price
        the events they hand the event engine with it."""
        return self.profile.elem_time(self.machine.cost, ops)

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

    # ---------------------------------------------------------------- compute
    def invocation(self) -> None:
        """The fixed per-processor overhead of one skeleton invocation
        (argument marshalling, bounds setup); nothing is charged — not
        even a traced zero-length interval — when the profile has none."""
        if self.profile.skeleton_overhead:
            self.machine.network.compute(self.profile.skeleton_overhead)

    def work(self, *terms, realloc_bytes=None) -> None:
        """Elementwise work on every processor, as ordered terms.

        Each term is ``(count, ops, ...)``: *count* applications (one
        number for all processors, or a per-rank vector) of functions
        costing *ops* abstract operations each — ``count * (t(ops1) +
        t(ops2) + ...)`` — and the terms add left to right.
        *realloc_bytes* is what a host without in-place update would
        allocate and copy back for the result (``copy_on_update``); an
        imperative host pays nothing for it.
        """
        seconds = None
        for count, ops, *more in terms:
            t = self.elem_time(ops)
            for o in more:
                t = t + self.elem_time(o)
            seconds = count * t if seconds is None else seconds + count * t
        if realloc_bytes is not None and self.profile.copy_on_update:
            seconds = seconds + realloc_bytes * self.machine.cost.t_mem
        self.machine.network.compute(seconds)

    def work_at(self, rank: int, count, ops: float = 1.0) -> None:
        """*count* applications of an *ops*-operation function on *rank*."""
        self.machine.network.compute_at(rank, count * self.elem_time(ops))

    def memcpy(self, nbytes) -> None:
        """A local block copy of *nbytes* (scalar or per-rank vector) on
        every processor, at ``memcpy`` speed with no per-element calls."""
        self.machine.network.compute(nbytes * self.machine.cost.t_mem)

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
