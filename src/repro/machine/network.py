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
increments; per-message arrays are built only for a machine that
records, streams or has metrics on.  A binomial tree is one charge:
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
from repro.machine.trace import TraceStats

__all__ = ["Network"]

#: hop-count histogram buckets (1..16 mesh hops)
_HOP_BUCKETS = tuple(float(h) for h in range(1, 17))


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
        #: optional observability sinks (attached by
        #: :class:`repro.machine.machine.Machine` when tracing is on);
        #: every hot-path use is guarded by one ``is None`` test so the
        #: clock arithmetic is bit-identical with tracing off
        self.metrics = None  # repro.obs.metrics.MetricsRegistry | None
        self.timeline = None  # repro.obs.timeline.Timeline | None
        #: the critical-path fold (:class:`repro.obs.analysis.PathFold`),
        #: fed every wave the timeline is; set only with a timeline
        self.path = None
        #: what-if knob (see :mod:`repro.obs.analysis`): when enabled,
        #: per-processor compute vectors are replaced by their mean and
        #: single-rank compute is spread over all processors — the
        #: "perfectly balanced compute" counterfactual of the charged
        #: waves (:meth:`enter` refuses an engine run under it).  Never
        #: set on machines used for real measurements.
        self.balance_compute = False

    def _observe_message(self, nbytes: int, hops: int, tag: str) -> None:
        m = self.metrics
        m.observe("net.message_bytes", nbytes)
        m.observe("net.message_hops", hops, buckets=_HOP_BUCKETS)
        m.inc(f"net.messages.{tag or 'untagged'}")

    def _observe_wave(self, plan, nb, k: int, tag: str, lo=0, hi=None) -> None:
        """Vectorized :meth:`_observe_message` over one wave, the edges
        ``lo .. hi - 1`` of *plan*.

        Bucket counts, min and max are exact and need no pass over the
        wave (the plan memoizes its hops'); the running sums use a
        seeded left fold (:meth:`Histogram.observe_many`), so the
        registry state is bit-identical to the per-message loop.
        """
        m = self.metrics
        sizes = m.histogram("net.message_bytes")
        sizes.observe_many(nb, sizes.summarize(nb, k))
        hops = m.histogram("net.message_hops", buckets=_HOP_BUCKETS)
        hops_f = plan.hops_f[lo:hi]
        key = ("hop_hist", lo, hi)
        seen = plan.memo.get(key)
        if seen is None:
            seen = plan.keep(key, hops.summarize(hops_f))
        hops.observe_many(hops_f, seen)
        m.inc(f"net.messages.{tag or 'untagged'}", k)

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
        if self.timeline is not None:
            self._work(self._all_ranks, self.clocks, self.clocks + sec)
        self.clocks += sec
        self.stats.compute_seconds += total

    def compute_at(self, rank: int, seconds: float) -> None:
        """Advance one processor's clock by local work."""
        self._check_rank(rank)
        if self.balance_compute:
            self.compute(seconds / self.p)
            return
        if self.timeline is not None and seconds > 0.0:
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
            if self.timeline is not None and t > 0.0:
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
        self.stats.record_message(arrival, src, dst, nbytes, hops, tag, depart=depart)
        self.stats.comm_seconds += wire + self.cost.t_setup
        if self.metrics is not None:
            self._observe_message(nbytes, hops, tag)
        if self.timeline is not None:
            self._timeline_wave(
                src, dst, old_src, float(self.clocks[src]), old_dst, arrival,
                wire, tag,
                (src, dst, depart, arrival, hops, nbytes,
                 self.clocks if sync else None),
            )
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
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        k = int(srcs.size)
        if k == 0:
            return
        if int(dsts.size) != k:
            raise MachineError("p2p_batch src/dst arrays must have equal length")
        nbs = np.asarray(nbytes, dtype=np.int64)
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

    def _record_wave(self, plan, srcs, dsts, nb, times, departs, tag) -> None:
        """Book one charged wave, every edge of *plan*, in the stats (and
        the metrics): plain-int counter increments, or :meth:`_book_messages`
        for a machine that keeps records, streams or has metrics on."""
        stats = self.stats
        if stats.keep_records or stats.sink is not None or self.metrics is not None:
            self._book_messages(plan, srcs, dsts, nb, times, departs, tag)
            return
        k = len(times)
        stats.messages += k
        stats.bytes_sent += nb * k if isinstance(nb, int) else int(nb.sum())
        stats.hops_crossed += plan.hops_sum

    def _book_messages(self, plan, srcs, dsts, nb, times, departs, tag,
                       lo=0, hi=None) -> None:
        """Book the wave of the edges ``lo .. hi - 1`` of *plan* message
        by message: per-message byte and hop arrays, built only for a
        machine that keeps records, streams to a sink or has metrics on."""
        k = len(times)
        nbs = np.full(k, nb, dtype=np.int64) if isinstance(nb, int) else nb
        self.stats.record_messages(times, srcs, dsts, nbs, plan.hops[lo:hi], tag,
                                   departs=departs)
        if self.metrics is not None:
            self._observe_wave(plan, nb, k, tag, lo, hi)

    # ------------------------------------------------------------ emission
    def _work(self, ranks, starts, ends, detail: str = "") -> None:
        """Local work (one rank or a wave of distinct ranks) to the
        timeline and the critical-path fold."""
        if np.ndim(ranks):
            self.timeline.add_many(ranks, "compute", starts, ends, detail)
        else:
            self.timeline.add(ranks, "compute", starts, ends, detail)
        if self.path is not None:
            self.path.compute(ranks, starts, ends)

    def _emit_wave(self, lanes, tag: str, wave: tuple) -> None:
        """One message wave: its *lanes* to the timeline, and *wave* —
        ``(srcs, dsts, departs, arrivals, hops, nbytes, clocks)``, the
        columns of :meth:`PathFold.messages
        <repro.obs.analysis.PathFold.messages>`, with the clocks after a
        rendezvous wave — to the fold."""
        self.timeline.add_lanes(lanes, tag)
        if self.path is not None:
            self.path.messages(tag, *wave)

    def _timeline_wave(
        self, srcs, dsts, send_from, send_to, wait_from, arrival, wire, tag,
        wave,
    ) -> None:
        """Per message, in order: the sender's send interval, then the
        receiver's idle wait (if any) and receive interval."""
        idle_end = arrival - wire
        self._emit_wave(
            (
                (srcs, "send", send_from, send_to),
                (dsts, "idle", wait_from, idle_end),
                (dsts, "recv", np.maximum(wait_from, idle_end), arrival),
            ),
            tag,
            wave,
        )

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
        srcs = np.broadcast_to(np.int64(s), (n,))
        self._record_wave(plan, srcs, rd, nb, arrival, departs, tag)
        self._fold_stats(terms, idle)
        if self.timeline is not None:
            send_from = np.empty(n, dtype=np.float64)
            send_from[0] = old_src
            send_from[1:] = departs[:-1]
            self._timeline_wave(
                srcs, rd, send_from, departs, old_dst, arrival, wire, tag,
                (s, rd, departs, arrival, plan.hops, nb, None),
            )

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
        self._record_wave(plan, rs, rd, nb, arrival, depart, tag)
        if self.timeline is not None:
            self._timeline_wave(
                rs, rd, old_src, arrival if sync else depart, old_dst, arrival,
                wire, tag,
                (rs, rd, depart, arrival, plan.hops, nb,
                 clocks if sync else None),
            )
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
            self._record_wave(plan, srcs, dsts, nb, finish, start, tag)
            self._fold_stats(terms, np.maximum(0.0, start - cost.t_setup - old_dst))
            if self.timeline is not None:
                self._emit_wave(
                    (
                        (srcs, "send", old_src, finish),
                        (dsts, "recv", old_dst, finish),
                    ),
                    tag,
                    (srcs, dsts, start, finish, plan.hops, nb, clocks),
                )
                # the second transfer: a rank's clock past the later end of
                # its two rendezvous (zero-length, so dropped, elsewhere);
                # a call of its own, so that record mode (message by
                # message) and stream mode (lane by lane) add a rank's
                # two sends in one order
                ended = np.zeros(self.p)
                ended[srcs] = finish
                ended = np.maximum(ended[dsts], finish)
                self.timeline.add_lanes(((dsts, "send", ended, clocks[dsts]),), tag)
            return
        departs = old_src + cost.t_setup
        arrival = departs + wire
        clocks[srcs] = np.maximum(old_src, departs)
        clocks[dsts] = np.maximum(clocks[dsts], arrival)
        self._record_wave(plan, srcs, dsts, nb, arrival, departs, tag)
        # left-fold the float accumulators in pair order (scalar rounding)
        self._fold_stats(terms, np.maximum(0.0, arrival - old_dst))
        if self.timeline is not None:
            self._timeline_wave(
                srcs, dsts, old_src, departs, old_dst, arrival, wire, tag,
                (srcs, dsts, departs, arrival, plan.hops, nb, None),
            )

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
        stats = self.stats
        per_message = (stats.keep_records or stats.sink is not None
                       or self.metrics is not None)
        idle = self._rounds(plan, nb, wire, sync, tag, up, combine_seconds,
                            per_message)
        if up:  # the stats take the terms in message order
            rounds = plan.bounds[::-1]
            terms = np.concatenate([terms[lo:hi] for lo, hi in rounds])
            idle = np.concatenate([idle[lo:hi] for lo, hi in rounds])
        if not per_message:  # the counters of the whole tree at once
            stats.messages += len(terms)
            stats.bytes_sent += nb * len(terms)
            stats.hops_crossed += plan.hops_sum
        self._fold_stats(terms, idle, combine_seconds)

    def _rounds(self, plan, nb, wire, sync, tag, up, combine_seconds,
                per_message) -> np.ndarray:
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
        traced machine also gets every round emitted, with the clocks
        written back first.
        """
        ranks = plan.memo.get("ranks")
        if ranks is None:
            ranks = plan.keep("ranks", np.concatenate((plan.srcs[:1], plan.dsts)))
        clocks = self.clocks
        tree = clocks[ranks]
        arrivals = np.empty_like(wire)
        starts = np.empty_like(wire) if up else tree[1:].copy()
        setup = np.asarray(self.cost.t_setup)
        emit = per_message or self.timeline is not None
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
                clocks[ranks] = tree
                if not sync:
                    depart = old_src + setup
                if per_message:
                    self._book_messages(plan, rs, rd, nb, arrival, depart, tag, lo, hi)
                if self.timeline is not None:
                    self._timeline_wave(
                        rs, rd, old_src, arrival if sync else depart, old_dst,
                        arrival, w, tag,
                        (rs, rd, depart, arrival, plan.hops[lo:hi], nb,
                         clocks if sync else None),
                    )
                    if combine_seconds:
                        self._work(rd, rcv.copy(), rcv + combine_seconds)
                # carry on from what the emission left (which must be the
                # clocks it was handed: the trace pillar checks)
                np.take(clocks, ranks, out=tree)
            if combine_seconds:
                rcv += combine_seconds
        clocks[ranks] = tree
        # the emission copied what it kept, so the arrivals can go
        idle = np.subtract(arrivals, starts, out=arrivals)
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
        if self.path is not None:
            # the one clock write no charged wave describes
            self.path.jump(self.clocks)

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
        self._record_wave(plan, srcs, plan.dsts, nb, arrival, departs, tag)
        self._fold_stats(terms, np.maximum(0.0, arrival - prev))
        if self.timeline is not None:
            self._timeline_wave(
                srcs, plan.dsts, old_src, departs, prev, arrival, wire, tag,
                (srcs, root, departs, arrival, plan.hops, nb, None),
            )

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
        if self.path is not None:
            self.path.jump(self.clocks)
        return t0

    def book_work(self, rank: int, start: float, end: float, seconds: float) -> None:
        self.clocks[rank] = end
        self.stats.compute_seconds += seconds
        if self.timeline is not None and end > start:
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
        self._book_record(src, dst, nbytes, hops, tag, depart, arrival)
        if self.timeline is None:
            return None
        self.timeline.add(src, "send", start, depart, tag)
        sent = self.path.depart(tag, src, depart) if self.path is not None else None
        return src, nbytes, hops, tag, depart, arrival, sent

    def book_delivery(self, posted, dst, wait_from, resume, idle) -> None:
        """The message *posted* taken by *dst*, waiting since *wait_from*."""
        self.clocks[dst] = resume
        self.stats.idle_seconds += idle
        if posted is not None:
            src, nbytes, hops, tag, depart, arrival, sent = posted
            lanes = ((dst, "idle", wait_from, depart),
                     (dst, "recv", max(wait_from, depart), arrival))
            self.timeline.add_lanes(lanes, tag)
            if sent is not None:
                self.path.arrive(sent, src, dst, arrival, hops, nbytes)

    def book_rendezvous(self, src, dst, nbytes, hops, tag, ready, wait_from,
                        start, finish, idle) -> None:
        """*src* (ready since *ready*) and *dst* (waiting since
        *wait_from*) both resume when the transfer started at *start*
        finishes."""
        self.clocks[src] = self.clocks[dst] = finish
        self.stats.idle_seconds += idle
        self._book_record(src, dst, nbytes, hops, tag, start, finish)
        if self.timeline is not None:
            lanes = ((src, "send", ready, finish), (dst, "recv", wait_from, finish))
            wave = (src, dst, start, finish, hops, nbytes, self.clocks)
            self._emit_wave(lanes, tag, wave)

    def _book_record(self, src, dst, nbytes, hops, tag, depart, arrival) -> None:
        self.stats.record_message(arrival, src, dst, nbytes, hops, tag, depart=depart)
        if self.metrics is not None:
            self._observe_message(nbytes, hops, tag)
