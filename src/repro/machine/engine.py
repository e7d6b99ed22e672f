"""Discrete-event engine for arbitrary SPMD programs on the machine.

While the skeletons use the fast analytic clock arithmetic of
:mod:`repro.machine.network`, some things need *message-granularity*
simulation: the process-parallel ``farm`` and divide&conquer skeletons,
hand-written message-passing programs used in tests, and the
consistency checks that validate the analytic layer.

Each simulated processor is a Python **generator** that yields requests
to the engine and is resumed when they complete:

``yield Compute(seconds)``
    advance this processor's local clock by *seconds*.

``yield Send(dst, payload, nbytes, tag)``
    synchronous (rendezvous) send: blocks until the matching receive is
    posted and the transfer has crossed all hardware hops.

``yield ISend(dst, payload, nbytes, tag)``
    asynchronous send: the processor continues after paying the software
    setup; the message arrives later.

``payload = yield Recv(src, tag)``
    blocks until a matching message (FIFO per (src, tag) channel) has
    arrived; evaluates to its payload.

The engine keeps the schedule and each rank's clock, relative to the
start of the run; the :class:`~repro.machine.network.Network` it is
given books every event as it happens — clocks, stats, timeline,
critical-path fold, message records and metrics — through the helpers
its own charged waves use.  :meth:`Engine.run` enters at the network's
makespan (a barrier) and leaves each rank's clock where its own run
ended.  A standalone engine (:func:`run_spmd`, the ``diff`` pillar)
books into a fresh Network of its own.

The engine detects deadlock (no runnable process but blocked processes
remain) and reports the blocked ranks — the paper's motivation section
lists exactly this class of bug as what skeletons shield users from.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Generator

from repro.errors import DeadlockError, MachineError
from repro.machine.costmodel import CostModel
from repro.machine.network import Network
from repro.machine.topology import VirtualTopology
from repro.machine.trace import TraceStats

__all__ = ["Compute", "Send", "ISend", "Recv", "Engine", "run_spmd", "ANY_SOURCE"]

#: wildcard for ``Recv.src``: match the earliest message with the tag
#: from any sender (MPI_ANY_SOURCE; Parix had the same facility)
ANY_SOURCE = -1


@dataclass(frozen=True)
class Compute:
    seconds: float


@dataclass(frozen=True)
class Send:
    dst: int
    payload: Any = None
    nbytes: int = 0
    tag: str = ""


@dataclass(frozen=True)
class ISend:
    dst: int
    payload: Any = None
    nbytes: int = 0
    tag: str = ""


@dataclass(frozen=True)
class Recv:
    src: int  #: sender rank, or ANY_SOURCE for a wildcard receive
    tag: str = ""


@dataclass
class _Proc:
    rank: int
    gen: Generator
    clock: float = 0.0
    done: bool = False


@dataclass
class _AsyncMsg:
    arrival: float
    payload: Any
    posted: Any  # what the Network books its receipt from


@dataclass
class _PendingSend:
    """A synchronous sender waiting for its receiver."""

    src: int
    ready: float  # sender clock when it posted the send
    payload: Any
    nbytes: int


class Engine:
    """Event-driven simulator over a virtual topology, booking into
    *network* (a fresh one when none is given)."""

    def __init__(
        self,
        cost: CostModel,
        topo: VirtualTopology,
        network: Network | None = None,
    ):
        self.cost = cost
        self.topo = topo
        self.net = network if network is not None else Network(cost, topo.p)
        self._t0 = 0.0  # where the run entered the network's clocks
        self._procs: dict[int, _Proc] = {}
        self._ready: list[tuple[float, int, int, Any]] = []  # (time, seq, rank, value)
        self._seq = itertools.count()
        # async messages and blocked synchronous senders, keyed by
        # (dst, src, tag), with (dst, tag) -> senders with a non-empty
        # queue, so that a wildcard receive looks only at those
        self._mail: dict[tuple[int, int, str], deque[_AsyncMsg]] = defaultdict(deque)
        self._mail_index: dict[tuple[int, str], set[int]] = defaultdict(set)
        self._pending_sends: dict[tuple[int, int, str], deque[_PendingSend]] = (
            defaultdict(deque))
        self._send_index: dict[tuple[int, str], set[int]] = defaultdict(set)
        #: blocked receivers: rank -> (src or ANY_SOURCE, tag, post time)
        self._waiting: dict[int, tuple[int, str, float]] = {}

    # ------------------------------------------------------------ queue upkeep
    @staticmethod
    def _put(queues, index, key: tuple[int, int, str], item) -> None:
        queues[key].append(item)
        index[(key[0], key[2])].add(key[1])

    @staticmethod
    def _pop(queues, index, key: tuple[int, int, str]):
        q = queues[key]
        item = q.popleft()
        if not q:
            index[(key[0], key[2])].discard(key[1])
        return item

    @staticmethod
    def _sender(queues, index, dst: int, src: int, tag: str, when) -> int | None:
        """The sender whose queued item a receive on *dst* takes: *src*,
        or for a wildcard the one whose head comes first by *when*, ties
        to the lowest rank (deterministic)."""
        if src != ANY_SOURCE:
            return src if queues.get((dst, src, tag)) else None
        return min(index.get((dst, tag), ()), default=None,
                   key=lambda s: (when(queues[(dst, s, tag)][0]), s))

    def _receiver(self, dst: int, src: int, tag: str) -> float | None:
        """The post time of *dst*'s blocked receive if it takes a message
        from *src* with *tag* (and stop waiting), else ``None``."""
        w = self._waiting.get(dst)
        if w is None or w[1] != tag or w[0] not in (src, ANY_SOURCE):
            return None
        return self._waiting.pop(dst)[2]

    # ------------------------------------------------------------------ setup
    def spawn(self, rank: int, gen: Generator) -> None:
        if not (0 <= rank < self.topo.p):
            raise MachineError(f"rank {rank} outside machine of {self.topo.p}")
        if rank in self._procs:
            raise MachineError(f"rank {rank} already has a process")
        self._procs[rank] = _Proc(rank, gen)
        self._push(0.0, rank, None)

    def _push(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(self._ready, (time, next(self._seq), rank, value))

    # ------------------------------------------------------------------ run
    def run(self) -> float:
        """Run to completion; returns the makespan (max final clock),
        relative to the start."""
        self._t0 = self.net.enter()
        while self._ready:
            time, _, rank, value = heapq.heappop(self._ready)
            proc = self._procs[rank]
            proc.clock = max(proc.clock, time)
            try:
                req = proc.gen.send(value)
            except StopIteration:
                proc.done = True
                continue
            self._handle(proc, req)
        blocked = [p.rank for p in self._procs.values() if not p.done]
        if blocked:
            raise DeadlockError(f"deadlock: ranks {blocked} blocked forever")
        return max((p.clock for p in self._procs.values()), default=0.0)

    # ------------------------------------------------------------------ dispatch
    def _handle(self, proc: _Proc, req: Any) -> None:
        if isinstance(req, Compute):
            end = proc.clock + req.seconds
            self.net.book_work(
                proc.rank, self._t0 + proc.clock, self._t0 + end, req.seconds
            )
            self._push(end, proc.rank, None)
        elif isinstance(req, (ISend, Send)):
            self._post(proc, req)
        elif isinstance(req, Recv):
            self._recv(proc, req)
        else:
            raise MachineError(f"rank {proc.rank} yielded unknown request {req!r}")

    def _wire(self, src: int, dst: int, nbytes: int) -> tuple[float, int]:
        hops = self.topo.edge_hops(src, dst)
        return self.cost.message_time(nbytes, hops), hops

    def _post(self, proc: _Proc, req: ISend | Send) -> None:
        """A send: an asynchronous one departs after the setup and is
        delivered now if its receive is posted, else mailed; a synchronous
        one blocks until its receive meets it."""
        rank, t0 = proc.rank, self._t0
        wire, hops = self._wire(rank, req.dst, req.nbytes)
        post = self._receiver(req.dst, rank, req.tag)
        if isinstance(req, Send):
            self.net.book_post(rank, req.dst, req.nbytes, hops, req.tag or "send", wire)
            snd = _PendingSend(rank, proc.clock, req.payload, req.nbytes)
            if post is None:
                key = (req.dst, rank, req.tag)
                self._put(self._pending_sends, self._send_index, key, snd)
            else:
                self._rendezvous(snd, req.dst, post, req.tag, sender_last=True)
            return
        depart = proc.clock + self.cost.t_setup
        arrival = depart + wire
        posted = self.net.book_post(
            rank, req.dst, req.nbytes, hops, req.tag or "isend", wire,
            (t0 + proc.clock, t0 + depart, t0 + arrival),
        )
        msg = _AsyncMsg(arrival, req.payload, posted)
        if post is None:
            self._put(self._mail, self._mail_index, (req.dst, rank, req.tag), msg)
        else:
            self._deliver(msg, req.dst, post)
        self._push(depart, rank, None)

    def _recv(self, proc: _Proc, req: Recv) -> None:
        """A receive (a wildcard one takes the earliest-arriving message,
        then the earliest-ready synchronous sender): delivered at once if
        a message or a sender is there, else it blocks."""
        rank, tag = proc.rank, req.tag
        src = self._sender(self._mail, self._mail_index, rank, req.src, tag,
                           attrgetter("arrival"))
        if src is not None:
            msg = self._pop(self._mail, self._mail_index, (rank, src, tag))
            self._deliver(msg, rank, proc.clock)
            return
        src = self._sender(self._pending_sends, self._send_index, rank, req.src, tag,
                           attrgetter("ready"))
        if src is not None:
            snd = self._pop(self._pending_sends, self._send_index, (rank, src, tag))
            self._rendezvous(snd, rank, proc.clock, tag, sender_last=False)
            return
        self._waiting[rank] = (req.src, tag, proc.clock)

    def _deliver(self, msg: _AsyncMsg, dst: int, post: float) -> None:
        """An asynchronous message meets its receive, posted at *post*."""
        resume = max(post, msg.arrival)
        self.net.book_delivery(
            msg.posted, dst, self._t0 + post, self._t0 + resume,
            max(0.0, msg.arrival - post),
        )
        self._push(resume, dst, msg.payload)

    def _rendezvous(self, snd: _PendingSend, dst: int, post: float, tag: str,
                    sender_last: bool) -> None:
        """A synchronous send meets its receive, posted at *post*: both
        resume when the transfer has crossed all its hops."""
        wire, hops = self._wire(snd.src, dst, snd.nbytes)
        start = max(snd.ready + self.cost.t_setup, post)
        finish = start + wire
        # the receiver's wait, in the operands of the side that came last
        idle = finish - post - wire if sender_last else start - post
        t0 = self._t0
        self.net.book_rendezvous(
            snd.src, dst, snd.nbytes, hops, tag or "send", t0 + snd.ready,
            t0 + post, t0 + start, t0 + finish, max(0.0, idle),
        )
        self._push(finish, snd.src, None)
        self._push(finish, dst, snd.payload)


def run_spmd(
    cost: CostModel,
    topo: VirtualTopology,
    program: Callable[[int, int], Generator],
    stats: TraceStats | None = None,
) -> float:
    """Run the same generator *program(rank, p)* on every processor.

    Returns the makespan.  This is the engine-level analogue of launching
    one SPMD binary per node under Parix.
    """
    eng = Engine(cost, topo, Network(cost, topo.p, stats))
    for r in range(topo.p):
        eng.spawn(r, program(r, topo.p))
    return eng.run()
