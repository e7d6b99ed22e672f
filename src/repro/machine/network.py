"""Clock-level simulation of message passing over a virtual topology.

The skeletons (and the hand-written baselines) move the *actual data*
between partitions themselves — they are ordinary numpy code running in
one Python process.  What this module simulates is **time**: a vector of
per-processor clocks is advanced according to the communication pattern,
the message cost model and the synchronisation semantics:

* an **asynchronous** send charges the sender only the software setup and
  lets it continue; the receiver blocks until the message has crossed all
  its hardware hops,
* a **synchronous** (rendezvous) send blocks both parties until the
  transfer completes — the semantics of the old Parix C code that Table 1
  compares against.

All collective patterns used by the paper's skeletons are provided:
point-to-point, simultaneous shifts (the torus rotations of Gentleman's
algorithm), binomial-tree broadcast and reduction (``array_fold``,
``array_broadcast_part``), and barriers.

Charging a pattern has two halves.  What does not depend on the clocks
— the edges, their hops, whether the sides of a shift are disjoint,
which of a rank's two rendezvous transfers comes first, and the wire
seconds at a byte count under a cost model — is an
:class:`~repro.machine.topology.EdgePlan`, built once per pattern and
memoized on the topology (the priced vectors in the plan's memo, once
per byte count).  What this module does per call is the other half: a
gather of the clocks, the adds and maxima of the message, one seeded
left fold of both stats floats per charge and plain-int counter
increments; a traced machine also appends the wave's columns, once, to
its log (:class:`~repro.machine.trace.WaveLog`).  A binomial tree is one charge:
every round in one loop.  Traced and untraced machines, long waves and
waves of one edge, run the same code; :meth:`Network.p2p` is the public
one-message call and the oracle of the ``charging`` pillar of
:mod:`repro.check`, not a fallback.

The fine-grained event engine (:mod:`repro.machine.engine`) implements
the same semantics at message granularity; the test-suite checks the
two agree on small configurations.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MachineError
from repro.machine.costmodel import CostModel
from repro.machine.topology import BinomialTree, Ring, VirtualTopology
from repro.machine.trace import TraceStats, WaveLog

__all__ = ["Network"]


def _byte_counts(nbytes, k: int, ranks: np.ndarray | None = None):
    """*nbytes* as one Python int for every message, or as an int64
    array of *k* counts (a per-rank sequence is then taken at *ranks*)."""
    if isinstance(nbytes, int):
        return nbytes
    nbs = np.asarray(nbytes, dtype=np.int64)
    if nbs.ndim == 0:
        return int(nbs)
    if nbs.shape != (k,):
        raise MachineError(f"need {k} byte counts, got shape {nbs.shape}")
    return nbs if ranks is None else nbs[ranks]


def _strict(msgs, lanes) -> bool:
    """Whether a log entry's times are all finite and non-negative —
    what a spill can encode (``repro.obs.export.encode_complete``);
    ``False`` may be a false alarm, ``True`` never is."""
    lo, hi = [], []
    if msgs is not None:
        lo.append(msgs[5])
        hi.append(msgs[6])
    if lanes is not None:
        _, explicit, wave = lanes
        if wave is not None:
            lo += wave[2], wave[4]
            hi += wave[3], wave[5]
        else:
            for _, _, start, end in explicit:
                lo.append(start)
                hi.append(end)
    return bool(np.concatenate(lo, axis=None).min() >= 0.0
                and np.concatenate(hi, axis=None).max() < np.inf)


class Network:
    """Per-processor clocks plus the message cost arithmetic.

    Messages are store-and-forward (:meth:`CostModel.message_time
    <repro.machine.costmodel.CostModel.message_time>`) and links never
    contend: the transfers of one wave proceed in parallel whatever
    hardware links their routes share — the paper's T800 model.

    Parameters
    ----------
    cost:
        Hardware cost model (see :class:`repro.machine.costmodel.CostModel`).
    p:
        Number of (logical) processors.
    stats:
        Optional shared statistics accumulator.
    """

    def __init__(self, cost: CostModel, p: int, stats: TraceStats | None = None):
        if p <= 0:
            raise MachineError(f"need at least one processor, got p={p}")
        self.cost = cost
        self.p = p
        self.clocks = np.zeros(p, dtype=np.float64)
        self._all_ranks = np.arange(p, dtype=np.int64)
        self.stats = stats if stats is not None else TraceStats()
        #: the :class:`~repro.machine.trace.WaveLog` every charged wave is
        #: appended to once, for the sinks to drain; ``None`` untraced, so
        #: every hot-path use is one ``is None`` test and the clock
        #: arithmetic is bit-identical with tracing off
        self.log = None
        self.attach()  # no sinks yet: a log only for the stats' records
        #: what-if knob (see :mod:`repro.obs.analysis`): when enabled,
        #: per-processor compute vectors are replaced by their mean and
        #: single-rank compute is spread over all processors — the
        #: "perfectly balanced compute" counterfactual of the charged
        #: waves (:meth:`enter` refuses an engine run under it).  Never
        #: set on machines used for real measurements.
        self.balance_compute = False

    def attach(self, metrics=None, timeline=None, path=None, observer=None) -> None:
        """Attach the observability sinks — a
        ``repro.obs.metrics.MetricsRegistry``, the recording's timeline,
        the critical-path fold (``repro.obs.analysis.PathFold``) and the
        stream observer (``repro.obs.stream.StreamObserver``) — in place
        of any attached before, and build the wave log over them and the
        stats' records: each drains the log in batches and before each
        read of its state.  A wave's interval lanes are logged only for
        a sink that keeps them (the timeline) or writes them (the
        observer's spill); local work also for the fold.
        :class:`~repro.machine.machine.Machine` attaches its sinks once,
        when tracing is on."""
        if self.log is not None:
            self.log.drain()  # what the sinks attached so far are owed
        self.metrics, self.timeline, self.path = metrics, timeline, path
        stats = self.stats
        drains = [stats.drain_records] if stats.keep_records else []
        if metrics is not None:
            drains.append(metrics.observe_messages)
        drains += [s.drain for s in (observer, timeline, path) if s is not None]
        self.log = WaveLog(drains) if drains else None
        for sink in (stats, metrics, observer, timeline, path):
            if sink is not None:
                sink._log = self.log
        #: a JSONL spill refuses bad times at the call that emits them
        self._spill = observer is not None and observer.spill is not None
        self._lanes = timeline is not None or self._spill
        #: local work is logged for its lanes or for the fold's step
        self._works = self._lanes or path is not None

    def _fold_stats(self, comm_terms, idle_terms, compute: float = 0.0) -> None:
        """Fold one charge's per-message comm and idle seconds (and, with
        *compute* seconds a message, its merge work) into the running
        stats.

        ``np.add.accumulate`` is a *sequential* left fold along each row
        of the seeded buffer (unlike ``np.add.reduce``, which regroups
        pairwise), so it reproduces the scalar ``+=`` loops' rounding bit
        for bit.
        """
        stats = self.stats
        buf = np.empty((3 if compute else 2, len(comm_terms) + 1), dtype=np.float64)
        buf[0, 0] = stats.comm_seconds
        buf[0, 1:] = comm_terms
        buf[1, 0] = stats.idle_seconds
        buf[1, 1:] = idle_terms
        if compute:
            buf[2] = compute
            buf[2, 0] = stats.compute_seconds
        sums = np.add.accumulate(buf, axis=1, out=buf)[:, -1].tolist()
        stats.comm_seconds, stats.idle_seconds = sums[:2]
        if compute:
            stats.compute_seconds = sums[2]

    # ------------------------------------------------------------------ helpers
    @property
    def time(self) -> float:
        """Makespan so far: the latest of all processor clocks."""
        return float(self.clocks.max())

    def reset(self) -> None:
        self.clocks[:] = 0.0

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.p):
            raise MachineError(f"rank {rank} outside machine of {self.p} processors")

    # ------------------------------------------------------------------ compute
    def compute(self, seconds, total: float | None = None) -> None:
        """Advance clocks by local computation time.

        *seconds* may be a scalar (same work everywhere) or an array of
        per-processor times; *total* is ``float(seconds.sum())`` of an
        array the caller priced once and keeps (``Charge.work``).
        """
        if type(seconds) is float:
            sec = seconds
            total = sec * self.p
        else:
            sec = np.asarray(seconds, dtype=np.float64)
            if sec.ndim != 0 and self.balance_compute and sec.shape == (self.p,):
                sec = np.asarray(float(sec.mean()))
            if sec.ndim == 0:
                sec = float(sec)
                total = sec * self.p
            elif sec.shape != (self.p,):
                raise MachineError(
                    f"per-processor compute vector must have shape ({self.p},), "
                    f"got {sec.shape}"
                )
            elif total is None:
                total = float(sec.sum())
        if self._works:  # the log keeps both columns
            self._work(self._all_ranks, self.clocks.copy(), self.clocks + sec)
        self.clocks += sec
        self.stats.compute_seconds += total

    def compute_at(self, rank: int, seconds: float) -> None:
        """Advance one processor's clock by local work."""
        self._check_rank(rank)
        if self.balance_compute:
            self.compute(seconds / self.p)
            return
        if self._works and seconds > 0.0:
            t0 = float(self.clocks[rank])
            self._work(rank, t0, t0 + seconds)
        self.clocks[rank] += seconds
        self.stats.compute_seconds += seconds

    # ------------------------------------------------------------------ p2p
    def p2p(
        self,
        src: int,
        dst: int,
        nbytes: int,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "p2p",
    ) -> float:
        """One message from *src* to *dst*; returns its arrival time."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            # a local copy, no wire involved
            t = nbytes * self.cost.t_mem
            if self._works and t > 0.0:
                t0 = float(self.clocks[src])
                self._work(src, t0, t0 + t, "local-copy")
            self.clocks[src] += t
            self.stats.comm_seconds += t
            return float(self.clocks[src])
        hops = topo.edge_hops(src, dst)
        wire = self.cost.message_time(nbytes, hops)
        # plain-float arithmetic on purpose: numpy scalar indexing would
        # dominate the call.  Python floats are the same IEEE doubles, so
        # the clock values are bit-identical to the array-scalar version.
        old_src = float(self.clocks[src])
        old_dst = float(self.clocks[dst])
        depart = old_src + self.cost.t_setup
        arrival = depart + wire
        if sync:
            depart = max(depart, old_dst)
            arrival = depart + wire
            self.stats.idle_seconds += max(0.0, arrival - old_dst - wire)
            self.clocks[src] = arrival
            self.clocks[dst] = arrival
        else:
            self.clocks[src] = depart
            self.stats.idle_seconds += max(0.0, arrival - old_dst)
            self.clocks[dst] = max(old_dst, arrival)
        self._count1(nbytes, hops)
        self.stats.comm_seconds += wire + self.cost.t_setup
        if self.log is not None:
            idle_end = arrival - wire
            lanes = ((src, "send", old_src, float(self.clocks[src])),
                     (dst, "idle", old_dst, idle_end),
                     (dst, "recv", np.maximum(old_dst, idle_end), arrival))
            self._message_wave((tag, src, dst, nbytes, hops, depart, arrival, None),
                               lanes=lanes, after=arrival if sync else None)
        return float(arrival)

    # ------------------------------------------------------------------ batch
    def p2p_batch(
        self,
        srcs,
        dsts,
        nbytes,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "p2p",
    ) -> None:
        """Charge a sequence of point-to-point messages.

        Bit-identical to calling :meth:`p2p` once per message in order
        (property-tested by the ``charging`` pillar of
        :mod:`repro.check`): the sequence is split into *waves* —
        maximal runs of remote messages in which no rank appears twice
        in any role — whose messages are independent by construction and
        are charged in one vectorized pass from the wave-start clocks;
        only a local copy (``src == dst``) goes through :meth:`p2p`.
        *nbytes* may be a scalar or a per-message array.
        """
        # a traced machine's log keeps slices of these: its own copies
        own = np.asarray if self.log is None else np.array
        srcs = own(srcs, dtype=np.int64)
        dsts = own(dsts, dtype=np.int64)
        k = int(srcs.size)
        if k == 0:
            return
        if int(dsts.size) != k:
            raise MachineError("p2p_batch src/dst arrays must have equal length")
        nbs = own(nbytes, dtype=np.int64)
        if nbs.ndim == 0:
            nbs = np.full(k, int(nbs), dtype=np.int64)
        elif int(nbs.size) != k:
            raise MachineError("p2p_batch nbytes array must match message count")
        lo = min(int(srcs.min()), int(dsts.min()))
        hi = max(int(srcs.max()), int(dsts.max()))
        if lo < 0 or hi >= self.p:
            bad = lo if lo < 0 else hi
            raise MachineError(
                f"rank {bad} outside machine of {self.p} processors"
            )
        sl = srcs.tolist()
        dl = dsts.tolist()
        start = 0
        seen: set[int] = set()
        i = 0
        while i < k:
            s = sl[i]
            d = dl[i]
            if not seen:
                # an empty wave may instead open a same-source *run*:
                # consecutive async messages from one rank to pairwise
                # distinct remote destinations (a row permutation's
                # send pattern), charged vectorized as a prefix-sum of
                # departures instead of one degenerate wave per message
                j = i + 1
                while j < k and sl[j] == s:
                    j += 1
                if j - i >= 2 and not sync:
                    dseg = dl[i:j]
                    if s not in dseg and len(set(dseg)) == j - i:
                        rd = dsts[i:j]
                        self._p2p_fanout(s, rd, topo.edge_plan(s, rd), nbs[i:j], tag)
                        start = i = j
                        continue
            if s in seen or d in seen or s == d:
                self._charge_wave(srcs, dsts, nbs, start, i, topo, sync, tag)
                seen.clear()
                if s == d:
                    self.p2p(s, d, int(nbs[i]), topo, sync=sync, tag=tag)
                    i += 1
                start = i
                continue
            seen.add(s)
            seen.add(d)
            i += 1
        self._charge_wave(srcs, dsts, nbs, start, k, topo, sync, tag)

    def _charge_wave(self, srcs, dsts, nbs, i0, i1, topo, sync, tag) -> None:
        if i1 > i0:
            rs, rd = srcs[i0:i1], dsts[i0:i1]
            self._p2p_wave(rs, rd, topo.edge_plan(rs, rd), nbs[i0:i1], sync, tag)

    def _count(self, plan, nb, k: int) -> None:
        """The counters of one charged wave, every edge of *plan*: plain
        ints, kept eagerly (spans read them)."""
        stats = self.stats
        stats.messages += k
        stats.bytes_sent += nb * k if isinstance(nb, int) else int(nb.sum())
        stats.hops_crossed += plan.hops_sum

    # ------------------------------------------------------------ emission
    def _emit(self, msgs, lanes, fold, size: int) -> None:
        """Append one entry (:class:`~repro.machine.trace.WaveLog`) to the
        log.  A spilling machine first checks its times: an entry that
        may not encode as strict JSON drains what came before it, then
        drains alone, so the spill's :class:`SkilError` is raised here,
        by the call that emitted it."""
        entry = (msgs, lanes, fold, None)
        if self._spill and not _strict(msgs, lanes):
            self.log.drain()
            self.log.append(entry, size)
            self.log.drain()
        else:
            self.log.append(entry, size)

    def _work(self, ranks, starts, ends, detail: str = "") -> None:
        """Local work (one rank or a wave of distinct ranks): its lanes
        and the critical-path fold's step, each for a sink that takes it."""
        self._emit(None, (detail, ((ranks, "compute", starts, ends),), None)
                   if self._lanes else None,
                   None if self.path is None else ("compute", (ranks, starts, ends)),
                   np.size(ends))

    def _message_wave(self, msgs, wave=None, lanes=None, fold=None, after=None):
        """One charged message wave to the log: *msgs* ``(tag, srcs, dsts,
        nbytes, hops, departs, arrivals, cut)``; its intervals, *wave*
        ``(send_from, send_to, wait_from, wires)`` for the send / idle /
        recv lanes of each message, or explicit *lanes*; and the fold's
        step over the same columns — *fold* ``(src, dst)`` where one side
        is one rank, *after* the receivers' clocks after a rendezvous."""
        tag, srcs, dsts, nb, hops, departs, arrivals, _ = msgs
        part = step = None
        if self._lanes:
            part = (tag, lanes, None if wave is None else
                    (srcs, dsts, wave[0], wave[1], wave[2], arrivals, wave[3]))
        if self.path is not None:
            src, dst = fold or (srcs, dsts)
            step = ("messages", (tag, src, dst, departs, arrivals, hops, nb, after))
        self._emit(msgs, part, step, np.size(arrivals))

    def _p2p_fanout(self, s: int, rd, plan, nb, tag) -> None:
        """Async messages from one source to distinct remote
        destinations, vectorized (same-source runs and :meth:`scatter`).

        The scalar loop advances the source clock by ``t_setup`` per
        message, so the departures are the sequential prefix sums
        ``np.add.accumulate([old_src + t_setup, t_setup, ...])`` —
        ``accumulate`` is a left fold, reproducing the scalar additions
        bit for bit.  No destination repeats and none equals the source,
        so every arrival depends only on the run-start clocks.
        """
        cost = self.cost
        clocks = self.clocks
        n = int(rd.size)
        wire, terms = plan.price(nb, cost)
        old_src = float(clocks[s])
        steps = np.full(n, cost.t_setup, dtype=np.float64)
        steps[0] = old_src + cost.t_setup
        departs = np.add.accumulate(steps)
        arrival = departs + wire
        old_dst = clocks[rd]
        idle = np.maximum(0.0, arrival - old_dst)
        clocks[rd] = np.maximum(old_dst, arrival)
        clocks[s] = departs[-1]
        self._count(plan, nb, n)
        self._fold_stats(terms, idle)
        if self.log is not None:
            send_from = None
            if self._lanes:
                send_from = np.empty(n, dtype=np.float64)
                send_from[0] = old_src
                send_from[1:] = departs[:-1]
            self._message_wave(
                (tag, np.broadcast_to(np.int64(s), (n,)), rd, nb, plan.hops,
                 departs, arrival, (plan, None, None)),
                (send_from, departs, old_dst, wire), fold=(s, rd))

    def _p2p_wave(self, rs, rd, plan, nb, sync, tag) -> None:
        """One conflict-free wave of remote messages, vectorized.

        Every rank appears in at most one message, so each message's
        clock arithmetic depends only on the wave-start clocks and the
        per-message expressions match the scalar :meth:`p2p` ones
        operation for operation.  *plan* holds the hops of the edges
        (in either direction).  Stats floats are still accumulated by a
        per-message left-fold so the running sums keep the scalar
        rounding behaviour.
        """
        clocks = self.clocks
        old_src = clocks[rs]
        old_dst = clocks[rd]
        wire, terms = plan.price(nb, self.cost)
        depart = old_src + self.cost.t_setup
        arrival = depart + wire
        if sync:
            depart = np.maximum(depart, old_dst)
            arrival = depart + wire
            idle = np.maximum(0.0, arrival - old_dst - wire)
            clocks[rs] = arrival
            clocks[rd] = arrival
        else:
            clocks[rs] = depart
            idle = np.maximum(0.0, arrival - old_dst)
            clocks[rd] = np.maximum(old_dst, arrival)
        self._count(plan, nb, len(rs))
        if self.log is not None:
            self._message_wave((tag, rs, rd, nb, plan.hops, depart, arrival,
                                (plan, None, None)),
                               (old_src, arrival if sync else depart, old_dst, wire),
                               after=arrival if sync else None)
        self._fold_stats(terms, idle)

    # ------------------------------------------------------------------ shift
    def shift(
        self,
        pairs: Iterable[tuple[int, int]],
        nbytes,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "shift",
    ) -> None:
        """Simultaneous transfers along disjoint (src, dst) pairs.

        Used for the partition rotations of Gentleman's algorithm and for
        row permutations.  Each processor appears at most once as source
        and at most once as destination; the transfers proceed in
        parallel over distinct links.

        *nbytes* may be a scalar or a per-source mapping/array.
        """
        ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64)
        srcs, dsts = ends[0::2], ends[1::2]
        if not np.isscalar(nbytes):
            try:
                nbytes = np.array([int(nbytes[s]) for s in srcs.tolist()], np.int64)
            except (KeyError, IndexError):
                raise MachineError("shift nbytes misses a source rank") from None
        self.shift_batch(srcs, dsts, nbytes, topo, sync=sync, tag=tag)

    def shift_batch(
        self,
        srcs,
        dsts,
        nbytes,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "shift",
    ) -> None:
        """Vectorized :meth:`shift` over parallel (src, dst, nbytes) arrays.

        Everything about the pattern that the clocks do not change —
        hops, the disjointness check, which of a rank's two transfers
        comes first, the wire seconds at a byte count — comes from the
        topology's memoized :class:`~repro.machine.topology.EdgePlan`; a
        call only gathers clocks and updates them.  The asynchronous case
        is inherently parallel: every transfer departs from the pre-shift
        clocks.  In the rendezvous case a rank that both sends and
        receives does so serially, in pair order, which the plan's order
        masks turn into three vectorized clock writes.  Either way the
        result is bit-identical to the historical per-pair loop
        (``repro.check.charging``).
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        if srcs.size == 0:
            return
        plan = topo.shift_plan(srcs, np.asarray(dsts, dtype=np.int64))
        if not plan.disjoint:
            raise MachineError("shift pairs must be disjoint per side")
        srcs, dsts = plan.srcs, plan.dsts
        k = int(srcs.size)
        nb = _byte_counts(nbytes, k)
        if self.log is not None and isinstance(nb, np.ndarray) and nb is nbytes:
            nb = nb.copy()  # the log keeps it, the caller may not
        cost = self.cost
        clocks = self.clocks
        old_src = clocks[srcs]
        old_dst = clocks[dsts]
        wire, terms = plan.price(nb, cost)
        if sync:
            # rendezvous on every edge; a processor that both sends and
            # receives does so serially (no DMA overlap on the old code
            # path), so it pays for two transfers after synchronising
            # with both partners.
            src_first, dst_first, dst_sends = plan.order
            start = np.maximum(old_src, old_dst) + cost.t_setup
            finish = start + wire
            # every send as if it came first; then every receive, on top
            # of the pre-shift clock where it does come first and of the
            # send otherwise; then again the sends that come second
            clocks[srcs] = np.maximum(old_src, finish)
            before = np.where(dst_first, old_dst, clocks[dsts])
            clocks[dsts] = np.maximum(before, finish) + np.where(dst_sends, wire, 0.0)
            after = clocks[srcs]
            clocks[srcs] = np.where(src_first, after, np.maximum(after, finish))
            self._count(plan, nb, k)
            self._fold_stats(terms, np.maximum(0.0, start - cost.t_setup - old_dst))
            if self.log is not None:
                after = clocks[dsts]
                self._message_wave(
                    (tag, srcs, dsts, nb, plan.hops, start, finish, (plan, None, None)),
                    lanes=((srcs, "send", old_src, finish),
                           (dsts, "recv", old_dst, finish)),
                    after=after)
                if self._lanes:
                    # the second transfer: a rank's clock past the later end
                    # of its two rendezvous (zero-length, so dropped,
                    # elsewhere); an entry of its own, so that record mode
                    # (message by message) and stream mode (lane by lane)
                    # add a rank's two sends in one order
                    ended = np.zeros(self.p)
                    ended[srcs] = finish
                    ended = np.maximum(ended[dsts], finish)
                    self._emit(None, (tag, ((dsts, "send", ended, after),), None),
                               None, k)
            return
        departs = old_src + cost.t_setup
        arrival = departs + wire
        clocks[srcs] = np.maximum(old_src, departs)
        clocks[dsts] = np.maximum(clocks[dsts], arrival)
        self._count(plan, nb, k)
        # left-fold the float accumulators in pair order (scalar rounding)
        self._fold_stats(terms, np.maximum(0.0, arrival - old_dst))
        if self.log is not None:
            self._message_wave((tag, srcs, dsts, nb, plan.hops, departs, arrival,
                                (plan, None, None)), (old_src, departs, old_dst, wire))

    # ------------------------------------------------------------------ trees
    def broadcast(
        self,
        root: int,
        nbytes: int,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "bcast",
    ) -> None:
        """Binomial-tree broadcast of *nbytes* from *root* to everyone.

        Closed form: every round of the topology's memoized
        :meth:`VirtualTopology.tree_plan
        <repro.machine.topology.VirtualTopology.tree_plan>` — its edges
        touch every rank at most once — is charged as one conflict-free
        wave, all ``log2(p)`` of them in one pass (:meth:`_tree`).
        """
        self._check_rank(root)
        if self.p == 1:
            return
        self._tree(topo.tree_plan(root), int(nbytes), sync, tag)

    def reduce(
        self,
        root: int,
        nbytes: int,
        topo: VirtualTopology,
        combine_seconds: float = 0.0,
        sync: bool = False,
        tag: str = "reduce",
    ) -> None:
        """Binomial-tree reduction to *root*.

        *combine_seconds* is charged at every merge point (the cost of
        applying the folding function to one pair of partial results).
        The schedule is the reversed broadcast with every edge flipped,
        charged from the same plan as :meth:`broadcast` (hops are
        symmetric).
        """
        self._check_rank(root)
        if self.p == 1:
            return
        if self.balance_compute:
            # the what-if replay spreads every combine over all
            # clocks, so the per-edge interleaving matters — replay
            # the scalar order exactly
            tree = BinomialTree(topo.mesh, root=root)
            for rnd in tree.reduce_rounds():
                for s, d in rnd:
                    self.p2p(s, d, nbytes, topo, sync=sync, tag=tag)
                    if combine_seconds:
                        self.compute_at(d, combine_seconds)
            return
        self._tree(topo.tree_plan(root), int(nbytes), sync, tag, True,
                   combine_seconds)

    def _tree(self, plan, nb: int, sync, tag, up=False, combine_seconds=0.0):
        """Every round of the binomial tree *plan* as one charge: down (a
        broadcast), or up (a reduction: the rounds reversed, every edge
        flipped, and *combine_seconds* of merge work at each receiver
        after its round).  The wire seconds come priced from the plan,
        :meth:`_rounds` moves the clocks, and the tree ends with one
        seeded fold of the stats floats and one counter update.
        """
        wire, terms = plan.price(nb, self.cost)
        idle = self._rounds(plan, nb, wire, sync, tag, up, combine_seconds)
        if up:  # the stats take the terms in message order
            rounds = plan.bounds[::-1]
            terms = np.concatenate([terms[lo:hi] for lo, hi in rounds])
            idle = np.concatenate([idle[lo:hi] for lo, hi in rounds])
        self._count(plan, nb, len(terms))  # the whole tree at once
        self._fold_stats(terms, idle, combine_seconds)

    def _rounds(self, plan, nb, wire, sync, tag, up, combine_seconds) -> np.ndarray:
        """The clocks of :meth:`_tree`'s rounds; returns the idle terms
        in tree order.

        A round's edges touch every rank at most once, so each round is
        one conflict-free wave from its start clocks, with the
        per-message expressions of :meth:`p2p`.  The clocks are gathered
        once in tree order — the root, then the ranks in the order the
        broadcast informs them — where round ``lo .. hi - 1`` sends from
        positions ``0 .. n - 1`` to ``lo + 1 .. hi``: two slices, updated
        in place, and scattered back once.  Each edge's arrival and its
        receiver's start clock are kept (a broadcast's receivers start
        where the tree started), for the idle terms in one pass.  A
        traced machine also logs every round, from these columns.
        """
        ranks = plan.memo.get("ranks")
        if ranks is None:
            ranks = plan.keep("ranks", np.concatenate((plan.srcs[:1], plan.dsts)))
        clocks = self.clocks
        tree = clocks[ranks]
        arrivals = np.empty_like(wire)
        starts = np.empty_like(wire) if up else tree[1:].copy()
        setup = np.asarray(self.cost.t_setup)
        emit = self.log is not None
        for lo, hi in plan.bounds[::-1] if up else plan.bounds:
            n = hi - lo
            w, arrival, old_dst = wire[lo:hi], arrivals[lo:hi], starts[lo:hi]
            snd, rcv = tree[:n], tree[lo + 1:hi + 1]
            if up:
                # reduction messages flow dst -> src of the broadcast
                # edge; the merge happens at the broadcast-edge source
                snd, rcv = rcv, snd
                np.copyto(old_dst, rcv)
            if emit:
                old_src = snd.copy()
            if sync:
                depart = np.maximum(snd + setup, rcv)
                np.add(depart, w, out=arrival)
                snd[...] = arrival
                rcv[...] = arrival
            else:
                np.add(snd, setup, out=snd)
                np.add(snd, w, out=arrival)
                np.maximum(rcv, arrival, out=rcv)
            if emit:
                rs, rd = plan.srcs[lo:hi], plan.dsts[lo:hi]
                if up:
                    rs, rd = rd, rs
                if not sync:
                    depart = old_src + setup
                self._message_wave(
                    (tag, rs, rd, nb, plan.hops[lo:hi], depart, arrival, (plan, lo, hi)),
                    (old_src, arrival if sync else depart, old_dst, w),
                    after=arrival if sync else None)
                if combine_seconds and self._works:
                    self._work(rd, rcv.copy(), rcv + combine_seconds)
            if combine_seconds:
                rcv += combine_seconds
        clocks[ranks] = tree
        # the log keeps the arrivals (and the start clocks)
        idle = np.subtract(arrivals, starts, out=None if emit else arrivals)
        if sync:
            np.subtract(idle, wire, out=idle)
        return np.maximum(0.0, idle, out=idle)

    def allreduce(
        self,
        nbytes: int,
        topo: VirtualTopology,
        combine_seconds: float = 0.0,
        root: int = 0,
        sync: bool = False,
    ) -> None:
        """Reduce to *root* then broadcast back — the paper's
        ``array_fold`` wire pattern ("the result finally collected at the
        root ... it is broadcasted from the root along the tree edges")."""
        self.reduce(root, nbytes, topo, combine_seconds, sync=sync, tag="fold-up")
        self.broadcast(root, nbytes, topo, sync=sync, tag="fold-down")

    def barrier(self, topo: VirtualTopology) -> None:
        """Synchronise all processors (empty allreduce)."""
        if self.p == 1:
            return
        self.allreduce(1, topo)
        self.clocks[:] = self.clocks.max()
        self._jump()

    # ------------------------------------------------------------------ gather
    def gather(
        self,
        root: int,
        nbytes_per_rank: Sequence[int] | int,
        topo: VirtualTopology,
        tag: str = "gather",
    ) -> None:
        """Everyone sends its block to *root* (used for result output).

        Closed form: the senders are independent (each appears once, the
        root only receives), so departures and arrivals come from the
        rank-start clocks in one vectorized pass; the root's clock is the
        running maximum of the arrivals (``np.maximum.accumulate`` —
        exact, so bit-identical to the scalar fold), and per-message idle
        terms use the pre-message running value.
        """
        self._check_rank(root)
        if self.p == 1:
            return
        plan = topo.fan_plan(root)
        srcs = plan.srcs
        nb = _byte_counts(nbytes_per_rank, self.p, srcs)
        cost = self.cost
        clocks = self.clocks
        wire, terms = plan.price(nb, cost)
        old_src = clocks[srcs]
        departs = old_src + cost.t_setup
        arrival = departs + wire
        old_root = float(clocks[root])
        run_max = np.maximum.accumulate(arrival)
        prev = np.empty_like(arrival)
        prev[0] = old_root
        np.maximum(old_root, run_max[:-1], out=prev[1:])
        clocks[srcs] = departs
        clocks[root] = max(old_root, float(run_max[-1]))
        self._count(plan, nb, len(srcs))
        self._fold_stats(terms, np.maximum(0.0, arrival - prev))
        if self.log is not None:
            self._message_wave((tag, srcs, plan.dsts, nb, plan.hops, departs, arrival,
                                (plan, None, None)), (old_src, departs, prev, wire),
                               fold=(srcs, root))

    def scatter(
        self,
        root: int,
        nbytes_per_rank: Sequence[int] | int,
        topo: VirtualTopology,
        tag: str = "scatter",
    ) -> None:
        """*root* sends each processor its block (initial distribution).

        Closed form: one source fanning out to distinct destinations is
        exactly the prefix-sum departure pattern of
        :meth:`_p2p_fanout`, charged in one vectorized pass.
        """
        self._check_rank(root)
        if self.p == 1:
            return
        plan = topo.fan_plan(root)
        dsts = plan.srcs  # the gather plan, flipped
        nb = _byte_counts(nbytes_per_rank, self.p, dsts)
        self._p2p_fanout(root, dsts, plan, nb, tag)

    def allgather(
        self,
        nbytes: int,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "allgather",
    ) -> None:
        """Ring allgather: p-1 rounds, each processor forwarding the
        block it just received to its successor — the standard pattern
        on ring virtual topologies."""
        if self.p == 1:
            return
        ring = topo if isinstance(topo, Ring) else Ring(topo.mesh)
        srcs = np.arange(self.p, dtype=np.int64)
        dsts = (srcs + 1) % self.p
        for _ in range(self.p - 1):
            self.shift_batch(srcs, dsts, nbytes, ring, sync=sync, tag=tag)

    def alltoall(
        self,
        nbytes: int,
        topo: VirtualTopology,
        sync: bool = False,
        tag: str = "alltoall",
    ) -> None:
        """Personalised all-to-all as p-1 rotation rounds (each round is
        a disjoint permutation r -> r XOR k when p is a power of two,
        r -> (r + k) mod p otherwise)."""
        if self.p == 1:
            return
        ranks = np.arange(self.p, dtype=np.int64)
        pow2 = self.p & (self.p - 1) == 0
        for k in range(1, self.p):
            dsts = (ranks ^ k) if pow2 else (ranks + k) % self.p
            self.shift_batch(ranks, dsts, nbytes, topo, sync=sync, tag=tag)

    # ----------------------------------------------------- external clocks
    # The event engine (:mod:`repro.machine.engine`) keeps its own clocks
    # and books each event here as it happens, with its own arithmetic:
    # the clocks it leaves, its stats terms, and what a charged wave emits.
    def enter(self) -> float:
        """A barrier to the makespan, which is returned: the start of an
        engine run, booked as :meth:`barrier` books its clock write.

        The engine books each rank's own events, so it cannot honour
        :attr:`balance_compute`: entering with the knob set is a
        :class:`MachineError`, not a silently unbalanced what-if."""
        if self.balance_compute:
            raise MachineError(
                "the balanced-compute what-if cannot replay an event-engine "
                "run (farm, d&c): the engine books each rank's own compute"
            )
        t0 = self.time
        self.clocks[:] = t0
        self._jump()
        return t0

    def _jump(self) -> None:
        """The one clock write no charged wave describes, to the fold."""
        if self.path is not None:
            self.log.append((None, None, ("jump", (self.clocks.copy(),)), None),
                            self.p)

    def charging(self, skeleton: str | None) -> None:
        """From now on *skeleton* charges (the span tracer's innermost
        open skeleton span), for the fold's attribution."""
        if self.path is not None:
            self.log.append((None, None, ("charging", (skeleton,)), None), 0)

    def book_work(self, rank: int, start: float, end: float, seconds: float) -> None:
        self.clocks[rank] = end
        self.stats.compute_seconds += seconds
        if self._works and end > start:
            self._work(rank, start, end)

    def book_post(self, src, dst, nbytes, hops, tag, wire, times=None):
        """A message posted on *src*: its setup and *wire* seconds.  An
        asynchronous one, with *times* ``(start, depart, arrival)``, also
        moves the sender to *depart* and is recorded; it returns what
        :meth:`book_delivery` needs.  :meth:`book_rendezvous` records a
        synchronous one."""
        self.stats.comm_seconds += wire + self.cost.t_setup
        if times is None:
            return None
        start, depart, arrival = times
        self.clocks[src] = depart
        self._count1(nbytes, hops)
        if self.log is None:
            return None
        msgs = (tag, src, dst, nbytes, hops, depart, arrival, None)
        if not self._works:
            self._emit(msgs, None, None, 1)
            return None
        # the fold's sender half leaves its chain in *box* for the receiver
        box = [] if self.path is not None else None
        self._emit(msgs, (tag, ((src, "send", start, depart),), None) if self._lanes
                   else None, None if box is None else
                   ("post", (tag, src, depart, box)), 1)
        return src, nbytes, hops, tag, depart, arrival, box

    def book_delivery(self, posted, dst, wait_from, resume, idle) -> None:
        """The message *posted* taken by *dst*, waiting since *wait_from*."""
        self.clocks[dst] = resume
        self.stats.idle_seconds += idle
        if posted is not None:
            src, nbytes, hops, tag, depart, arrival, box = posted
            lanes = None
            if self._lanes:
                lanes = (tag, ((dst, "idle", wait_from, depart),
                               (dst, "recv", max(wait_from, depart), arrival)), None)
            self._emit(None, lanes, None if box is None else
                       ("take", (box, src, dst, arrival, hops, nbytes)), 2)

    def book_rendezvous(self, src, dst, nbytes, hops, tag, ready, wait_from,
                        start, finish, idle) -> None:
        """*src* (ready since *ready*) and *dst* (waiting since
        *wait_from*) both resume when the transfer started at *start*
        finishes."""
        self.clocks[src] = self.clocks[dst] = finish
        self.stats.idle_seconds += idle
        self._count1(nbytes, hops)
        if self.log is not None:
            lanes = ((src, "send", ready, finish), (dst, "recv", wait_from, finish))
            self._message_wave((tag, src, dst, nbytes, hops, start, finish, None),
                               lanes=lanes, after=finish)

    def _count1(self, nbytes: int, hops: int) -> None:
        """The counters of one message (see :meth:`_count`)."""
        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += nbytes
        stats.hops_crossed += hops
