"""Batch-vs-scalar Network charging checker (the ``batch`` pillar).

:meth:`~repro.machine.network.Network.p2p_batch` and the batched
collective rounds promise **bit-identity** with charging each message
through the scalar :meth:`~repro.machine.network.Network.p2p` in the
same order; :meth:`~repro.machine.network.Network.shift_batch` promises
the same against the historical per-pair shift loop.  This module
property-tests those promises: every trial builds two identical
machines, drives one through the batched entry point and the other
through a *reference* charging sequence encoded here (the pre-batch
scalar loops, verbatim), then compares

* every **per-rank clock** with ``==`` (bitwise, no tolerance),
* the stats counters (messages, bytes, hops) exactly and the stats
  floats (comm/idle/compute seconds) bitwise,
* the individual :class:`~repro.machine.trace.MessageRecord` lists,
* the per-rank timelines and the message metrics histograms.

The ``plan_reuse`` family charges a handful of shift, tree and gather
patterns repeatedly and interleaved on one machine, so that the charges
run from memoized plans (:class:`~repro.machine.topology.EdgePlan`),
and holds every step to the same references.

A further trial family runs a random communication-skeleton workload
(``array_broadcast_part``, ``array_permute_rows``, ``array_rotate_rows``,
``array_scan``, ``array_gen_mult``) once with the fused data-movement
paths enabled and once per-rank, and requires bit-identical array
contents, clocks, stats and spans.
"""

from __future__ import annotations

import random
import time
import traceback

import numpy as np

from repro.check.report import CheckResult, Failure
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.machine.topology import BinomialTree
from repro.obs.metrics import isolated_metrics
from repro.skeletons import MIN, PLUS, SkilContext

__all__ = ["run_batch", "run_batch_raw"]


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
            f"batch={float(m_new.network.clocks[i])!r}"
        )
    if _stats_tuple(m_ref.stats) != _stats_tuple(m_new.stats):
        return (
            f"stats mismatch ({label}): scalar={_stats_tuple(m_ref.stats)} "
            f"batch={_stats_tuple(m_new.stats)}"
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
                    f"{len(ref_iv)} scalar vs {len(new_iv)} batch interval(s)"
                )
    if m_ref.metrics is not None:
        for name in ("net.message_bytes", "net.message_hops"):
            ha = m_ref.metrics.histogram(name)
            hb = m_new.metrics.histogram(name)
            if (ha.count, ha.total) != (hb.count, hb.total):
                return (
                    f"metrics mismatch ({label}): {name} "
                    f"scalar=({ha.count}, {ha.total}) "
                    f"batch=({hb.count}, {hb.total})"
                )
    return None


def _machine_pair(rng: random.Random) -> tuple[Machine, Machine, str, int]:
    p = rng.choice([2, 3, 4, 5, 8, 16])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    trace_level = rng.choice([0, 0, 2])
    kwargs = dict(
        trace_level=trace_level,
        keep_message_records=trace_level == 0 and bool(rng.getrandbits(1)),
        use_virtual_topologies=bool(rng.getrandbits(1)),
        link_contention=rng.random() < 0.3,
    )
    return Machine(p, **kwargs), Machine(p, **kwargs), distr, p


def _perturb(rng: random.Random, *machines: Machine) -> None:
    """Start from unequal clocks so ordering effects are visible."""
    sec = [rng.uniform(0.0, 2e-5) for _ in range(machines[0].p)]
    for m in machines:
        m.network.compute(np.asarray(sec))


# ---------------------------------------------------------------------------
# reference charging: the pre-batch scalar loops, encoded verbatim
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
        for s, d in pairs:
            start = max(old[s], old[d]) + net.cost.t_setup
            hops = topo.edge_hops(s, d)
            wire = net.cost.message_time(nb(s), hops)
            finish = start + wire
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
        return
    depart = {s: old[s] + net.cost.t_setup for s, _ in pairs}
    new = net.clocks.copy()
    for s, _ in pairs:
        new[s] = max(new[s], depart[s])
    slowdown = _ref_contention(net, pairs, nb, topo)
    for s, d in pairs:
        hops = topo.edge_hops(s, d)
        wire = net.cost.message_time(nb(s), hops) * slowdown.get((s, d), 1.0)
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


def _ref_contention(net, pairs, nb, topo) -> dict:
    """Historical dict-based contention factors (max of per-link ratios)."""
    if not net.link_contention:
        return {}
    link_load: dict[tuple[int, int], int] = {}
    routes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for s, d in pairs:
        route = topo.mesh.route_links(topo.place(s), topo.place(d))
        routes[(s, d)] = route
        for link in route:
            link_load[link] = link_load.get(link, 0) + nb(s)
    factors: dict[tuple[int, int], float] = {}
    for s, d in pairs:
        own = max(1, nb(s))
        worst = max(
            (link_load[link] / own for link in routes[(s, d)]), default=1.0
        )
        factors[(s, d)] = max(1.0, worst)
    return factors


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


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------
def trial_p2p_batch(rng: random.Random) -> tuple[str | None, dict[str, int]]:
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
            # (the row-permutation pattern the _p2p_run fast path takes;
            # repeats/locals keep some runs on the fallback paths)
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
        m_ref.network.p2p(s, d, nb, topo_ref, sync=sync, tag="batch-check")
    m_new.network.p2p_batch(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        nbytes,
        topo_new,
        sync=sync,
        tag="batch-check",
    )
    label = f"p2p p={p} distr={distr} k={k} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {"batch.p2p": 1}


def trial_shift_batch(rng: random.Random) -> tuple[str | None, dict[str, int]]:
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
    if np.isscalar(nb_all := rng.choice([128, None])) and nb_all is not None:
        nbytes = int(nb_all)
    else:
        nbytes = {s: rng.randint(1, 4096) for s, _ in pairs}
    _ref_shift(m_ref.network, pairs, nbytes, topo_ref, sync, "shift-check")
    m_new.network.shift(pairs, nbytes, topo_new, sync=sync, tag="shift-check")
    label = f"shift p={p} distr={distr} pairs={len(pairs)} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {"batch.shift": 1}


def trial_collective_batch(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Tree collectives vs the per-edge scalar reference loops."""
    m_ref, m_new, distr, p = _machine_pair(rng)
    topo_ref = m_ref.topology(distr)
    topo_new = m_new.topology(distr)
    _perturb(rng, m_ref, m_new)
    kind = rng.choice(["bcast", "reduce", "allreduce"])
    root = rng.randrange(p)
    nb = rng.randint(1, 8192)
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
    else:
        _ref_reduce(m_ref.network, root, nb, topo_ref, comb, sync, "fold-up")
        _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "fold-down")
        m_new.network.allreduce(
            nb, topo_new, combine_seconds=comb, root=root, sync=sync
        )
    label = f"{kind} p={p} distr={distr} root={root} sync={sync}"
    return _compare_machines(m_ref, m_new, label), {f"batch.{kind}": 1}


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
    cov = {f"batch.fused_{s}": 1 for s in steps}

    def build(fused: bool):
        from repro.arrays.darray import DistArray
        from repro.machine.machine import DISTR_TORUS2D
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


def trial_plan_reuse(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A few patterns charged again and again, interleaved, on one
    machine — so all but the first charge of each runs from a memoized
    :class:`~repro.machine.topology.EdgePlan` — with the byte count, the
    sync mode and now and then the cost model changing and a reset in
    between, against the scalar reference loops."""
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
    cov: dict[str, int] = {"batch.plan_reuse": 1}
    for step in range(rng.randint(4, 10)):
        if step == 0 or rng.random() < 0.15:
            m_ref.reset()
            m_new.reset()
            _perturb(rng, m_ref, m_new)
        if rng.random() < 0.15:
            cost = m_ref.cost.with_(store_and_forward=bool(rng.getrandbits(1)))
            m_ref.network.cost = m_new.network.cost = cost
        kind = rng.choice(["shift", "shift", "bcast", "reduce", "gather"])
        nb = rng.choice([0, 1, rng.randint(1, 8192)])
        sync = rng.random() < 0.4
        if kind == "shift":
            pairs = rng.choice(shifts)
            nbytes = nb if rng.random() < 0.6 else {
                s: rng.randint(0, 4096) for s, _ in pairs
            }
            _ref_shift(m_ref.network, pairs, nbytes, topo_ref, sync, "reuse")
            m_new.network.shift(pairs, nbytes, topo_new, sync=sync, tag="reuse")
        elif kind == "bcast":
            root = rng.choice(roots)
            _ref_broadcast(m_ref.network, root, nb, topo_ref, sync, "reuse")
            m_new.network.broadcast(root, nb, topo_new, sync=sync, tag="reuse")
        elif kind == "reduce":
            root = rng.choice(roots)
            _ref_reduce(m_ref.network, root, nb, topo_ref, 1e-6, sync, "reuse")
            m_new.network.reduce(
                root, nb, topo_new, combine_seconds=1e-6, sync=sync, tag="reuse"
            )
        else:
            root = rng.choice(roots)
            for s in range(p):
                if s != root:
                    m_ref.network.p2p(s, root, nb, topo_ref, tag="reuse")
            m_new.network.gather(root, nb, topo_new, tag="reuse")
        msg = _compare_machines(
            m_ref, m_new, f"plan reuse p={p} distr={distr} step={step} {kind}"
        )
        if msg is not None:
            return msg, cov
    return None, cov


_TRIALS = [trial_p2p_batch, trial_shift_batch, trial_collective_batch,
           trial_fused_comm, trial_plan_reuse]


def _run_trial(trial_seed: int, res: CheckResult, verbose: bool = False) -> None:
    rng = random.Random(trial_seed)
    fn = _TRIALS[trial_seed % len(_TRIALS)]
    res.trials += 1
    try:
        with isolated_metrics():
            msg, cov = fn(rng)
    except Exception:
        msg, cov = traceback.format_exc(limit=8), {}
    for k, v in cov.items():
        res.coverage[k] = res.coverage.get(k, 0) + v
    if msg is not None:
        res.failures.append(
            Failure(
                pillar="batch",
                seed=trial_seed,
                title=fn.__name__,
                detail=msg,
                replay=(
                    f"PYTHONPATH=src python -m repro.check batch "
                    f"--seed {trial_seed} --budget 1 --raw-seed"
                ),
            )
        )
        if verbose:
            print(f"batch seed {trial_seed}: FAIL")


def run_batch(
    seed: int = 0,
    budget: int = 120,
    time_budget: float | None = None,
    verbose: bool = False,
) -> CheckResult:
    """Run *budget* batch-vs-scalar trials (5 interleaved families)."""
    res = CheckResult("batch")
    t0 = time.monotonic()
    for i in range(budget):
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        _run_trial(seed * 1_000_003 + i, res, verbose=verbose)
    return res


def run_batch_raw(seed: int, budget: int = 1) -> CheckResult:
    """Replay exact per-trial seeds printed by a failure report."""
    res = CheckResult("batch")
    for k in range(budget):
        _run_trial(seed + k, res)
    return res
