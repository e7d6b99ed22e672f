"""Network ↔ Engine differential checker (the ``diff`` pillar).

The analytic :class:`~repro.machine.network.Network` advances a vector
of per-rank clocks with closed-form arithmetic; the event-driven
:class:`~repro.machine.engine.Engine` simulates the same semantics one
message at a time.  This module generates random communication patterns
(p2p, shifts, binomial trees, gathers, all-to-all), runs each through
both layers, and asserts that

* the **makespan** agrees (to floating-point noise),
* every **per-rank clock** agrees (patterns without a trailing barrier),
* the message **count and byte totals** agree exactly.

The engine side is produced by *projecting* the global op sequence onto
each rank: the network only ever touches the clocks of the two
endpoints of a transfer, so per-rank program order fully determines the
result.  Two network idioms are deliberately excluded: synchronous
shifts (a rank that both sends and receives pays its two transfers
serially — a modelling shortcut with no message-level counterpart) and
mid-pattern barriers (``clocks[:] = max`` has no per-rank engine
equivalent; a barrier may only end a pattern, after which only the
makespan is compared).

The ``trace`` pillar (:mod:`repro.check.tracecheck`) draws its pattern
workloads from the same generator with ``wide=True``, which adds the
idioms the engine cannot mirror.
"""

from __future__ import annotations

import math
import random
from typing import Generator

import numpy as np

from repro.check.report import TrialRunner
from repro.machine.engine import Compute, Engine, ISend, Recv, Send
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.machine.topology import BinomialTree, Ring

__all__ = ["run_diff", "run_diff_raw", "generate_pattern", "apply_network",
           "expand_primitives"]


# ---------------------------------------------------------------------------
# pattern generation
# ---------------------------------------------------------------------------
def generate_pattern(
    rng: random.Random, p: int, ring: bool, wide: bool = False
) -> list[tuple]:
    """A random list of high-level collective ops, all engine-mirrorable
    unless *wide*: that adds ``p2p_batch`` and ``pairs`` (a shift over a
    random subset, rendezvous or not) and lets a ``p2p`` carry zero
    bytes or go to its own sender."""
    ops: list[tuple] = []
    kinds = ["compute", "p2p", "bcast", "reduce", "allreduce", "gather",
             "scatter", "alltoall"]
    if p > 1:
        kinds.append("shift")
    if ring and p > 1:
        kinds.append("allgather")
    if wide:
        kinds += ["p2p_batch", "pairs"]
    for _ in range(rng.randint(3, 10)):
        kind = rng.choice(kinds)
        nb = rng.randint(1, 4096)
        sync = rng.random() < 0.4
        if kind == "compute":
            ops.append(("compute", tuple(rng.uniform(0.0, 5e-6) for _ in range(p))))
        elif kind == "p2p" and wide:
            ops.append(("p2p", rng.randrange(p), rng.randrange(p),
                        rng.choice([0, 1, nb]), sync))
        elif kind == "p2p":
            if p == 1:
                continue
            src = rng.randrange(p)
            dst = rng.choice([r for r in range(p) if r != src])
            ops.append(("p2p", src, dst, nb, sync))
        elif kind == "p2p_batch":
            k = rng.randint(1, 24)
            ops.append((
                "p2p_batch",
                [rng.randrange(p) for _ in range(k)],
                [rng.randrange(p) for _ in range(k)],
                [rng.choice([0, 1, rng.randint(1, 4096)]) for _ in range(k)],
                sync,
            ))
        elif kind == "pairs":
            ranks = list(range(p))
            rng.shuffle(ranks)
            perm = ranks[: rng.randint(1, p)]
            ops.append(("pairs", list(zip(perm, perm[1:] + perm[:1])), nb, sync))
        elif kind == "bcast":
            ops.append(("bcast", rng.randrange(p), nb, sync))
        elif kind == "reduce":
            ops.append(("reduce", rng.randrange(p), nb,
                        rng.choice([0.0, 1e-6]), sync))
        elif kind == "allreduce":
            ops.append(("allreduce", nb, rng.choice([0.0, 1e-6]), sync))
        elif kind in ("gather", "scatter"):
            ops.append((kind, rng.randrange(p), nb))
        elif kind == "shift":
            k = rng.randint(1, p - 1)
            ops.append(("shift", k, nb))
        elif kind == "allgather":
            ops.append(("allgather", nb))
        elif kind == "alltoall":
            ops.append(("alltoall", nb))
    if p > 1 and rng.random() < 0.3:
        ops.append(("barrier",))
    return ops


# ---------------------------------------------------------------------------
# network side: drive the public collective API
# ---------------------------------------------------------------------------
def apply_network(net, topo, ops) -> None:
    for i, op in enumerate(ops):
        tag = f"op{i}"
        kind = op[0]
        if kind == "compute":
            net.compute(np.asarray(op[1]))
        elif kind == "p2p":
            _, src, dst, nb, sync = op
            net.p2p(src, dst, nb, topo, sync=sync, tag=tag)
        elif kind == "p2p_batch":
            srcs, dsts, nbs = (np.asarray(c, dtype=np.int64) for c in op[1:4])
            net.p2p_batch(srcs, dsts, nbs, topo, sync=op[4], tag=tag)
        elif kind == "pairs":
            _, pairs, nb, sync = op
            net.shift(pairs, nb, topo, sync=sync, tag=tag)
        elif kind == "bcast":
            _, root, nb, sync = op
            net.broadcast(root, nb, topo, sync=sync, tag=tag)
        elif kind == "reduce":
            _, root, nb, comb, sync = op
            net.reduce(root, nb, topo, combine_seconds=comb, sync=sync, tag=tag)
        elif kind == "allreduce":
            _, nb, comb, sync = op
            net.allreduce(nb, topo, combine_seconds=comb, sync=sync)
        elif kind == "gather":
            net.gather(op[1], op[2], topo, tag=tag)
        elif kind == "scatter":
            net.scatter(op[1], op[2], topo, tag=tag)
        elif kind == "shift":
            _, k, nb = op
            pairs = [(r, (r + k) % net.p) for r in range(net.p)]
            net.shift(pairs, nb, topo, sync=False, tag=tag)
        elif kind == "allgather":
            net.allgather(op[1], topo, sync=False, tag=tag)
        elif kind == "alltoall":
            net.alltoall(op[1], topo, sync=False, tag=tag)
        elif kind == "barrier":
            net.barrier(topo)
        else:  # pragma: no cover
            raise AssertionError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# engine side: expand to primitives, project per rank
# ---------------------------------------------------------------------------
def expand_primitives(ops, topo, p: int) -> list[tuple]:
    """Flatten the ops into per-endpoint primitives in global order.

    Primitive forms: ``("comp", rank, seconds)``, ``("isend"|"send",
    src, dst, nbytes, tag)``, ``("recv", dst, src, tag)``.  The order of
    each rank's primitives is the projection of this global order, which
    reproduces the network's clock arithmetic exactly (see module doc).
    """
    prims: list[tuple] = []

    def p2p(src, dst, nb, sync, tag):
        prims.append(("send" if sync else "isend", src, dst, nb, tag))
        prims.append(("recv", dst, src, tag))

    def tree_bcast(root, nb, sync, tag):
        for rnd in BinomialTree(topo.mesh, root=root).broadcast_rounds():
            for s, d in rnd:
                p2p(s, d, nb, sync, tag)

    def tree_reduce(root, nb, comb, sync, tag):
        for rnd in BinomialTree(topo.mesh, root=root).reduce_rounds():
            for s, d in rnd:
                p2p(s, d, nb, sync, tag)
                if comb:
                    prims.append(("comp", d, comb))

    def async_shift(pairs, nb, tag):
        # all departs are computed from the pre-shift clocks, so every
        # rank posts its ISend before any of its receives
        for s, d in pairs:
            prims.append(("isend", s, d, nb, tag))
        for s, d in pairs:
            prims.append(("recv", d, s, tag))

    for i, op in enumerate(ops):
        tag = f"op{i}"
        kind = op[0]
        if kind == "compute":
            for r, sec in enumerate(op[1]):
                prims.append(("comp", r, sec))
        elif kind == "p2p":
            _, src, dst, nb, sync = op
            p2p(src, dst, nb, sync, tag)
        elif kind == "bcast":
            _, root, nb, sync = op
            tree_bcast(root, nb, sync, tag)
        elif kind == "reduce":
            _, root, nb, comb, sync = op
            tree_reduce(root, nb, comb, sync, tag)
        elif kind == "allreduce":
            _, nb, comb, sync = op
            tree_reduce(0, nb, comb, sync, tag + "-up")
            tree_bcast(0, nb, sync, tag + "-down")
        elif kind == "gather":
            _, root, nb = op
            for r in range(p):
                if r != root:
                    p2p(r, root, nb, False, tag)
        elif kind == "scatter":
            _, root, nb = op
            for r in range(p):
                if r != root:
                    p2p(root, r, nb, False, tag)
        elif kind == "shift":
            _, k, nb = op
            async_shift([(r, (r + k) % p) for r in range(p)], nb, tag)
        elif kind == "allgather":
            ring = topo if isinstance(topo, Ring) else Ring(topo.mesh)
            pairs = [(r, ring.succ(r)) for r in range(p)]
            for rnd in range(p - 1):
                async_shift(pairs, op[1], f"{tag}r{rnd}")
        elif kind == "alltoall":
            pow2 = p & (p - 1) == 0
            for k in range(1, p):
                pairs = (
                    [(r, r ^ k) for r in range(p)]
                    if pow2
                    else [(r, (r + k) % p) for r in range(p)]
                )
                async_shift(pairs, op[1], f"{tag}r{k}")
        elif kind == "barrier":
            tree_reduce(0, 1, 0.0, False, tag + "-up")
            tree_bcast(0, 1, False, tag + "-down")
    return prims


def _rank_program(prims: list[tuple], rank: int) -> Generator:
    for pr in prims:
        kind = pr[0]
        if kind == "comp" and pr[1] == rank:
            yield Compute(pr[2])
        elif kind == "isend" and pr[1] == rank:
            yield ISend(pr[2], None, pr[3], pr[4])
        elif kind == "send" and pr[1] == rank:
            yield Send(pr[2], None, pr[3], pr[4])
        elif kind == "recv" and pr[1] == rank:
            yield Recv(pr[2], pr[3])


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------
def trial_pattern(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    p = rng.choice([1, 2, 3, 4, 5, 8])
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D])
    machine = Machine(p, use_virtual_topologies=bool(rng.getrandbits(1)))
    topo = machine.topology(distr)
    ops = generate_pattern(rng, p, ring=isinstance(topo, Ring))
    cov = {f"diff.{op[0]}": 1 for op in ops}

    net = machine.network
    apply_network(net, topo, ops)

    prims = expand_primitives(ops, topo, p)
    eng = Engine(machine.cost, topo)
    for r in range(p):
        eng.spawn(r, _rank_program(prims, r))
    makespan = eng.run()

    label = f"p={p} distr={distr} ops={[o[0] for o in ops]}"
    if not math.isclose(makespan, net.time, rel_tol=1e-9, abs_tol=1e-12):
        return (
            f"makespan mismatch ({label}): network={net.time!r} "
            f"engine={makespan!r}",
            cov,
        )
    if not ops or ops[-1][0] != "barrier":
        for r in range(p):
            ec = eng._procs[r].clock
            if not math.isclose(ec, float(net.clocks[r]), rel_tol=1e-9,
                                abs_tol=1e-12):
                return (
                    f"rank {r} clock mismatch ({label}): "
                    f"network={float(net.clocks[r])!r} engine={ec!r}",
                    cov,
                )
    for name in ("messages", "bytes_sent"):
        a, b = getattr(net.stats, name), getattr(eng.net.stats, name)
        if a != b:
            return f"{name} mismatch ({label}): network={a} engine={b}", cov
    return None, cov


_RUNNER = TrialRunner("diff", (trial_pattern,), budget=60)
run_diff, run_diff_raw = _RUNNER.run, _RUNNER.run_raw
