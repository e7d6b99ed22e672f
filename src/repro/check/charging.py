"""Planned vs scalar Network charging (the ``charging`` pillar).

Every charging entry point of :class:`~repro.machine.network.Network` —
``p2p_batch``, ``shift`` / ``shift_batch``, ``broadcast``, ``reduce``,
``allreduce``, ``barrier``, ``gather``, ``scatter``, ``allgather``,
``alltoall`` — charges from an :class:`~repro.machine.topology.EdgePlan`
in vectorized passes and promises **bit-identity** with the scalar loops
it replaced: one :meth:`~repro.machine.network.Network.p2p` per message
in order, or the historical per-pair shift loop.  Those loops live here,
verbatim, as the *reference*; every trial builds two identical machines
(p from 2 to 1024), drives one through the entry point and the other
through the reference, then compares

* every **per-rank clock** with ``==`` (bitwise, no tolerance),
* the stats counters (messages, bytes, hops) exactly and the stats
  floats (comm/idle/compute seconds) bitwise,
* the individual :class:`~repro.machine.trace.MessageRecord` lists,
* the per-rank timelines and the message metrics histograms.

Eight families interleave: ``p2p`` (random message lists: repeats,
locals, fan-out runs), ``shift``, ``tree`` (broadcast / reduce /
allreduce / barrier), ``fan`` (gather / scatter), ``ring`` (allgather /
alltoall), ``hops`` (the closed-form hop arithmetic,
:meth:`~repro.machine.topology.VirtualTopology.hops_vec` and
``edge_hops``, against the scalar ``mesh.hops(place(s), place(d))``),
``plan_reuse`` (a handful of patterns charged repeatedly and
interleaved on one machine, so that the charges run from memoized
plans) and ``fused_comm`` (a random
communication-skeleton workload — ``array_broadcast_part``,
``array_permute_rows``, ``array_rotate_rows``, ``array_scan``,
``array_gen_mult`` — once on the fused data-movement paths and once per
rank: bit-identical array contents, clocks, stats and spans).
"""

from __future__ import annotations

import random

import numpy as np

from repro.check.report import TrialRunner
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.machine.topology import (
    BinomialTree,
    DefaultMapping,
    Mesh2D,
    Ring,
    Torus2D,
)
from repro.obs.metrics import isolated_metrics
from repro.skeletons import MIN, PLUS, SkilContext

__all__ = ["run_charging", "run_charging_raw"]


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------
def _stats_tuple(stats):
    return (
        stats.messages,
        stats.bytes_sent,
        stats.hops_crossed,
        stats.comm_seconds,
        stats.idle_seconds,
        stats.compute_seconds,
    )


def _compare_machines(m_ref: Machine, m_new: Machine, label: str) -> str | None:
    """Bitwise comparison of everything the charging touches."""
    if not np.array_equal(m_ref.network.clocks, m_new.network.clocks):
        i = int(np.argmax(m_ref.network.clocks != m_new.network.clocks))
        return (
            f"clock mismatch ({label}): rank {i} "
            f"scalar={float(m_ref.network.clocks[i])!r} "
            f"planned={float(m_new.network.clocks[i])!r}"
        )
    if _stats_tuple(m_ref.stats) != _stats_tuple(m_new.stats):
        return (
            f"stats mismatch ({label}): scalar={_stats_tuple(m_ref.stats)} "
            f"planned={_stats_tuple(m_new.stats)}"
        )
    if m_ref.stats.records != m_new.stats.records:
        return f"message-record mismatch ({label})"
    if m_ref.timeline is not None:
        for r in range(m_ref.p):
            ref_iv = m_ref.timeline.for_rank(r)
            new_iv = m_new.timeline.for_rank(r)
            if ref_iv != new_iv:
                return (
                    f"timeline mismatch ({label}): rank {r} has "
                    f"{len(ref_iv)} scalar vs {len(new_iv)} planned interval(s)"
                )
    if m_ref.metrics is not None:
        for name in ("net.message_bytes", "net.message_hops"):
            ha = m_ref.metrics.histogram(name)
            hb = m_new.metrics.histogram(name)
            if (ha.count, ha.total) != (hb.count, hb.total):
                return (
                    f"metrics mismatch ({label}): {name} "
                    f"scalar=({ha.count}, {ha.total}) "
                    f"planned=({hb.count}, {hb.total})"
                )
    return None


def _machine_pair(
    rng: random.Random, big: bool = False
) -> tuple[Machine, Machine, str, int]:
    """Two identical machines, a topology name and p.  The trace level
    is 0 (counters), 1 (metrics: per-message booking, no timeline) or 2
    (records, timeline and fold); *big* draws p in the hundreds,
    untraced (a recorded timeline there is all the wall time of the
    trial)."""
    p = rng.choice([100, 256, 512, 1024] if big else [2, 3, 4, 5, 8, 16, 31, 64])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    kwargs = dict(
        trace_level=0 if big else rng.choice([0, 1, 2]),
        trace_mode="record",
        use_virtual_topologies=bool(rng.getrandbits(1)),
    )
    return Machine(p, **kwargs), Machine(p, **kwargs), distr, p


def _perturb(rng: random.Random, *machines: Machine) -> None:
    """Start from unequal clocks so ordering effects are visible."""
    sec = [rng.uniform(0.0, 2e-5) for _ in range(machines[0].p)]
    for m in machines:
        m.network.compute(np.asarray(sec))


# ---------------------------------------------------------------------------
# reference charging: the scalar loops the plans replaced, encoded verbatim
# ---------------------------------------------------------------------------
def _ref_shift(net, pairs, nbytes, topo, sync, tag) -> None:
    """The historical per-pair shift loop (reference semantics)."""
    srcs = [s for s, _ in pairs]

    def nb(s: int) -> int:
        if np.isscalar(nbytes):
            return int(nbytes)
        return int(nbytes[s])

    old = net.clocks.copy()
    if sync:
        ended: dict[int, float] = {}  # the later end of a rank's rendezvous
        for s, d in pairs:
            start = max(old[s], old[d]) + net.cost.t_setup
            hops = topo.edge_hops(s, d)
            wire = net.cost.message_time(nb(s), hops)
            finish = start + wire
            ended[s] = max(ended.get(s, 0.0), finish)
            ended[d] = max(ended.get(d, 0.0), finish)
            net.clocks[s] = max(net.clocks[s], finish)
            net.clocks[d] = max(net.clocks[d], finish) + (
                wire if d in srcs else 0.0
            )
            net.stats.record_message(finish, s, d, nb(s), hops, tag, depart=start)
            net.stats.comm_seconds += wire + net.cost.t_setup
            net.stats.idle_seconds += max(0.0, start - net.cost.t_setup - old[d])
            if net.metrics is not None:
                net._observe_message(nb(s), hops, tag)
            if net.timeline is not None:
                net.timeline.add(s, "send", float(old[s]), finish, tag)
                net.timeline.add(d, "recv", float(old[d]), finish, tag)
        if net.timeline is not None:  # the second transfers, after the wave
            for _, d in pairs:
                net.timeline.add(d, "send", ended[d], float(net.clocks[d]), tag)
        return
    depart = {s: old[s] + net.cost.t_setup for s, _ in pairs}
    new = net.clocks.copy()
    for s, _ in pairs:
        new[s] = max(new[s], depart[s])
    for s, d in pairs:
        hops = topo.edge_hops(s, d)
        wire = net.cost.message_time(nb(s), hops)
        arrival = depart[s] + wire
        net.stats.idle_seconds += max(0.0, arrival - old[d])
        new[d] = max(new[d], arrival)
        net.stats.record_message(arrival, s, d, nb(s), hops, tag, depart=depart[s])
        net.stats.comm_seconds += wire + net.cost.t_setup
        if net.metrics is not None:
            net._observe_message(nb(s), hops, tag)
        if net.timeline is not None:
            net.timeline.add(s, "send", float(old[s]), depart[s], tag)
            if arrival - wire > old[d]:
                net.timeline.add(d, "idle", float(old[d]), arrival - wire, tag)
            net.timeline.add(
                d, "recv", max(float(old[d]), arrival - wire), arrival, tag
            )
    net.clocks = new


def _ref_broadcast(net, root, nbytes, topo, sync, tag) -> None:
    if net.p == 1:
        return
    for rnd in BinomialTree(topo.mesh, root=root).broadcast_rounds():
        for s, d in rnd:
            net.p2p(s, d, nbytes, topo, sync=sync, tag=tag)


def _ref_reduce(net, root, nbytes, topo, comb, sync, tag) -> None:
    if net.p == 1:
        return
    for rnd in BinomialTree(topo.mesh, root=root).reduce_rounds():
        for s, d in rnd:
            net.p2p(s, d, nbytes, topo, sync=sync, tag=tag)
            if comb:
                net.compute_at(d, comb)


def _ref_fan(net, root, nbytes_per_rank, topo, tag, gather: bool) -> None:
    """Every other rank, ascending, to *root* (gather) or from it."""
    for r in range(net.p):
        if r == root:
            continue
        nb = (
            int(nbytes_per_rank)
            if np.isscalar(nbytes_per_rank)
            else int(nbytes_per_rank[r])
        )
        if gather:
            net.p2p(r, root, nb, topo, tag=tag)
        else:
            net.p2p(root, r, nb, topo, tag=tag)


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------
def trial_p2p(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Random message list (repeats, locals, zero bytes) through both paths."""
    m_ref, m_new, distr, p = _machine_pair(rng)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    k = rng.randint(1, 40)
    srcs, dsts, nbs = [], [], []
    while len(srcs) < k:
        if rng.random() < 0.3:
            # fan-out run: one source, several consecutive destinations
            # (the row-permutation pattern; repeats and locals keep some
            # runs on the wave scan)
            s = rng.randrange(p)
            run = rng.randint(2, min(8, max(2, p)))
            cand = [rng.randrange(p) for _ in range(run)]
            for d in cand[: k - len(srcs)]:
                srcs.append(s)
                dsts.append(d)
                nbs.append(rng.choice([0, 1, rng.randint(1, 8192)]))
            continue
        s = rng.randrange(p)
        d = s if rng.random() < 0.15 else rng.randrange(p)
        srcs.append(s)
        dsts.append(d)
        nbs.append(rng.choice([0, 1, rng.randint(1, 8192)]))
    sync = rng.random() < 0.4
    scalar_nb = rng.random() < 0.3
    nbytes = nbs[0] if scalar_nb else np.asarray(nbs, dtype=np.int64)
    if scalar_nb:
        nbs = [nbs[0]] * k
    for s, d, nb in zip(srcs, dsts, nbs):
        m_ref.network.p2p(s, d, nb, topo_ref, sync=sync, tag="p2p-check")
    m_new.network.p2p_batch(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        nbytes,
        topo_new,
        sync=sync,
        tag="p2p-check",
    )
    label = f"p2p p={p} distr={distr} k={k} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {"charging.p2p": 1}


def trial_shift(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Random disjoint shift through shift() vs the historical loop."""
    m_ref, m_new, distr, p = _machine_pair(rng)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    ranks = list(range(p))
    rng.shuffle(ranks)
    n_pairs = rng.randint(1, p)
    perm = ranks[:n_pairs]
    pairs = list(zip(perm, perm[1:] + perm[:1]))
    sync = rng.random() < 0.4
    if rng.random() < 0.5:
        nbytes = 128
    else:
        nbytes = {s: rng.randint(1, 4096) for s, _ in pairs}
    _ref_shift(m_ref.network, pairs, nbytes, topo_ref, sync, "shift-check")
    m_new.network.shift(pairs, nbytes, topo_new, sync=sync, tag="shift-check")
    label = f"shift p={p} distr={distr} pairs={len(pairs)} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {"charging.shift": 1}


def trial_tree(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """broadcast/reduce/allreduce/barrier vs the per-edge scalar loops."""
    big = rng.random() < 0.4
    m_ref, m_new, distr, p = _machine_pair(rng, big)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    kind = rng.choice(["bcast", "reduce", "allreduce", "barrier"])
    root = rng.randrange(p)
    nb = rng.randint(1, 65536)
    comb = rng.choice([0.0, 1e-6])
    sync = rng.random() < 0.4
    if kind == "bcast":
        _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "bcast")
        m_new.network.broadcast(root, nb, topo_new, sync=sync, tag="bcast")
    elif kind == "reduce":
        _ref_reduce(m_ref.network, root, nb, topo_ref, comb, sync, "reduce")
        m_new.network.reduce(
            root, nb, topo_new, combine_seconds=comb, sync=sync, tag="reduce"
        )
    elif kind == "allreduce":
        _ref_reduce(m_ref.network, root, nb, topo_ref, comb, sync, "fold-up")
        _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "fold-down")
        m_new.network.allreduce(
            nb, topo_new, combine_seconds=comb, root=root, sync=sync
        )
    else:
        _ref_reduce(m_ref.network, 0, 1, topo_ref, 0.0, False, "fold-up")
        _ref_broadcast(m_ref.network, 0, 1, topo_ref, False, "fold-down")
        m_ref.network.clocks[:] = m_ref.network.clocks.max()
        m_new.network.barrier(topo_new)
    label = f"{kind} p={p} distr={distr} root={root} sync={sync}"
    cov = {f"charging.tree.{kind}": 1}
    if big:
        cov["charging.tree.big"] = 1
    return _compare_machines(m_ref, m_new, label), cov


def trial_fan(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """gather/scatter vs the scalar p2p loops."""
    big = rng.random() < 0.4
    m_ref, m_new, distr, p = _machine_pair(rng, big)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    kind = rng.choice(["gather", "scatter"])
    root = rng.randrange(p)
    if rng.random() < 0.5:
        nbytes = rng.randint(0, 65536)
    else:
        nbytes = [rng.randint(0, 8192) for _ in range(p)]
    _ref_fan(m_ref.network, root, nbytes, topo_ref, kind, gather=kind == "gather")
    getattr(m_new.network, kind)(root, nbytes, topo_new, tag=kind)
    label = f"{kind} p={p} distr={distr} root={root}"
    cov = {f"charging.fan.{kind}": 1}
    if big:
        cov["charging.fan.big"] = 1
    return _compare_machines(m_ref, m_new, label), cov


def trial_ring(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """allgather/alltoall round generation vs the historical pair lists."""
    m_ref, m_new, distr, p = _machine_pair(rng)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    kind = rng.choice(["allgather", "alltoall"])
    nb = rng.randint(1, 8192)
    sync = rng.random() < 0.3
    if kind == "allgather":
        ring = topo_ref if isinstance(topo_ref, Ring) else Ring(topo_ref.mesh)
        pairs = [(i, ring.succ(i)) for i in range(p)]
        for _ in range(p - 1):
            _ref_shift(m_ref.network, pairs, nb, ring, sync, "allgather")
        m_new.network.allgather(nb, topo_new, sync=sync, tag="allgather")
    else:
        for k in range(1, p):
            if p & (p - 1) == 0:
                pairs = [(r, r ^ k) for r in range(p)]
            else:
                pairs = [(r, (r + k) % p) for r in range(p)]
            _ref_shift(m_ref.network, pairs, nb, topo_ref, sync, "alltoall")
        m_new.network.alltoall(nb, topo_new, sync=sync, tag="alltoall")
    label = f"{kind} p={p} distr={distr} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {f"charging.ring.{kind}": 1}


def trial_hops(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """hops_vec and edge_hops == the scalar mesh distance of the placed
    endpoints, for every embedding: all pairs up to p = 64, a random
    4096 above."""
    p = rng.choice([1, 2, 5, 8, 16, 31, 64, 100, 256])
    mesh = Mesh2D.for_processors(p)
    builders = [
        lambda: DefaultMapping(mesh),
        lambda: Ring(mesh),
        lambda: Torus2D(mesh, folded=True),
        lambda: Torus2D(mesh, folded=False),
        lambda: BinomialTree(mesh, root=rng.randrange(p)),
    ]
    topo = rng.choice(builders)()
    if p <= 64:
        s, d = (a.ravel() for a in np.meshgrid(np.arange(p), np.arange(p)))
    else:
        s, d = (np.asarray([rng.randrange(p) for _ in range(4096)]) for _ in "sd")
    place = [topo.place(r) for r in range(p)]
    ref = [mesh.hops(place[a], place[b]) for a, b in zip(s.tolist(), d.tolist())]
    if topo.hops_vec(s, d).tolist() != ref:
        return f"hops_vec != mesh.hops (p={p}, {type(topo).__name__})", {}
    for _ in range(8):
        i = rng.randrange(len(ref))
        if topo.edge_hops(int(s[i]), int(d[i])) != ref[i]:
            return (
                f"edge_hops({int(s[i])},{int(d[i])}) != mesh.hops (p={p}, "
                f"{type(topo).__name__})"
            ), {}
    return None, {"charging.hops": 1}


def trial_plan_reuse(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A few patterns charged again and again, interleaved, on one
    machine — so all but the first charge of each runs from a memoized
    :class:`~repro.machine.topology.EdgePlan`, and a repeated byte count
    from its priced wire vectors — with the byte count, the sync mode
    and now and then the cost model changing and a reset in between,
    against the scalar reference loops."""
    m_ref, m_new, distr, p = _machine_pair(rng)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    shifts = []
    for _ in range(2):
        # a random walk: chains, cycles and self-pairs, so ranks send
        # then receive and receive then send
        ranks = list(range(p))
        rng.shuffle(ranks)
        walk = ranks[: rng.randint(1, p)]
        pairs = list(zip(walk, walk[1:] + walk[: rng.randint(0, 1)]))
        if rng.random() < 0.3:
            spare = [r for r in range(p) if r not in walk]
            pairs += [(r, r) for r in spare[:2]]
        shifts.append(pairs or [(walk[0], walk[0])])
    roots = [rng.randrange(p) for _ in range(2)]
    cov: dict[str, int] = {"charging.plan_reuse": 1}
    for step in range(rng.randint(4, 10)):
        if step == 0 or rng.random() < 0.15:
            m_ref.reset()
            m_new.reset()
            _perturb(rng, m_ref, m_new)
        if rng.random() < 0.15:
            cost = m_ref.cost.with_(t_byte=rng.choice([1e-6, 2.5e-6]),
                                    t_setup=rng.choice([150e-6, 90e-6]))
            m_ref.network.cost = m_new.network.cost = cost
        kind = rng.choice(
            ["shift", "shift", "bcast", "reduce", "allreduce", "gather", "scatter"]
        )
        nb = rng.choice([0, 1, rng.randint(1, 8192)])
        sync = rng.random() < 0.4
        root = rng.choice(roots)
        if kind == "shift":
            pairs = rng.choice(shifts)
            nbytes = nb if rng.random() < 0.6 else {
                s: rng.randint(0, 4096) for s, _ in pairs
            }
            _ref_shift(m_ref.network, pairs, nbytes, topo_ref, sync, "reuse")
            m_new.network.shift(pairs, nbytes, topo_new, sync=sync, tag="reuse")
        elif kind == "bcast":
            _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "reuse")
            m_new.network.broadcast(root, nb, topo_new, sync=sync, tag="reuse")
        elif kind == "reduce":
            _ref_reduce(m_ref.network, root, nb, topo_ref, 1e-6, sync, "reuse")
            m_new.network.reduce(
                root, nb, topo_new, combine_seconds=1e-6, sync=sync, tag="reuse"
            )
        elif kind == "allreduce":
            comb = rng.choice([1e-6, 3.5e-6])
            _ref_reduce(m_ref.network, root, nb, topo_ref, comb, sync, "fold-up")
            _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "fold-down")
            m_new.network.allreduce(
                nb, topo_new, combine_seconds=comb, root=root, sync=sync
            )
        else:
            gather = kind == "gather"
            _ref_fan(m_ref.network, root, nb, topo_ref, "reuse", gather=gather)
            getattr(m_new.network, kind)(root, nb, topo_new, tag="reuse")
        msg = _compare_machines(
            m_ref, m_new, f"plan reuse p={p} distr={distr} step={step} {kind}"
        )
        if msg is not None:
            return msg, cov
    return None, cov


def trial_fused_comm(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A comm-skeleton workload, fused vs per-rank, compared bitwise."""
    p = rng.choice([2, 4, 8, 16])
    n = p * rng.randint(1, 4) * 2
    seed = rng.randrange(2**31)
    square = int(round(p**0.5)) ** 2 == p
    kinds = ["bcast", "permute", "rotate", "scan"] + (
        ["genmult"] if square else []
    )
    steps = [rng.choice(kinds) for _ in range(rng.randint(1, 3))]
    cov = {f"charging.fused_comm.{s}": 1 for s in steps}

    def build(fused: bool):
        from repro.arrays.darray import DistArray
        from repro.skeletons.comm import array_rotate_rows

        machine = Machine(p, trace_level=2)
        ctx = SkilContext(machine, fused=fused)
        data_rng = np.random.default_rng(seed)
        a = DistArray.from_global(machine, data_rng.uniform(-8.0, 8.0, (n, n)))
        b = DistArray.from_global(machine, np.zeros((n, n)))
        v = DistArray.from_global(machine, data_rng.uniform(0.0, 4.0, (n * n,)))
        w = DistArray.from_global(machine, np.zeros(n * n))
        if "genmult" in steps:
            ga = DistArray.from_global(
                machine, data_rng.uniform(0.0, 8.0, (n, n)), DISTR_TORUS2D
            )
            gb = DistArray.from_global(
                machine, data_rng.uniform(0.0, 8.0, (n, n)), DISTR_TORUS2D
            )
            gc = DistArray.from_global(
                machine, np.zeros((n, n)), DISTR_TORUS2D
            )
        for step in steps:
            if step == "bcast":
                ctx.array_broadcast_part(a, (seed % n, (seed // n) % n))
            elif step == "permute":
                half = n // 2

                def swap_halves(i):
                    return (i + half) % n

                swap_halves.ops = 1.0
                swap_halves.perm_vectorized = lambda ix: (ix + half) % n
                ctx.array_permute_rows(a, swap_halves, b)
            elif step == "rotate":
                array_rotate_rows(ctx, a, 1 + seed % (n - 1), b)
            elif step == "scan":
                ctx.array_scan(PLUS, v, w)
            elif step == "genmult":
                ctx.array_gen_mult(ga, gb, MIN, PLUS, gc)
        out = [a.global_view(), b.global_view(), w.global_view()]
        if "genmult" in steps:
            out.append(gc.global_view())
        return machine, out

    with isolated_metrics():
        m_f, out_f = build(True)
    with isolated_metrics():
        m_u, out_u = build(False)
    label = f"p={p} n={n} steps={steps}"
    for x, y in zip(out_f, out_u):
        if not np.array_equal(x, y):
            return f"fused contents mismatch ({label})", cov
    msg = _compare_machines(m_u, m_f, f"fused {label}")
    if msg is not None:
        return msg, cov
    spans_f = [(s.name, s.begin_time, s.end_time, s.bytes_sent)
               for s in m_f.tracer.spans]
    spans_u = [(s.name, s.begin_time, s.end_time, s.bytes_sent)
               for s in m_u.tracer.spans]
    if spans_f != spans_u:
        return f"fused span mismatch ({label})", cov
    return None, cov


_RUNNER = TrialRunner(
    "charging",
    (trial_p2p, trial_shift, trial_tree, trial_fan, trial_ring, trial_hops,
     trial_plan_reuse, trial_fused_comm),
    budget=200,
)
run_charging, run_charging_raw = _RUNNER.run, _RUNNER.run_raw
