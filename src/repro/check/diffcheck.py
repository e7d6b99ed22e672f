"""Network ↔ Engine differential checker plus obs-consistency probes.

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

The obs-consistency probe runs a traced skeleton workload and checks
the PR-1 observability invariants: spans close and nest inside their
parents, root spans account for all bytes, timeline intervals stay
within the makespan, metrics totals match the trace statistics, and a
``trace_level=0`` re-run of the same seed produces a **bit-identical**
makespan (tracing must never perturb the simulation).
"""

from __future__ import annotations

import math
import random
import time
import traceback
from typing import Generator

import numpy as np

from repro.check.report import CheckResult, Failure
from repro.obs.metrics import isolated_metrics
from repro.machine.engine import Compute, Engine, ISend, Recv, Send
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.machine.topology import BinomialTree, Ring
from repro.skeletons import PLUS, SkilContext

__all__ = ["run_diff", "generate_pattern", "expand_primitives"]


# ---------------------------------------------------------------------------
# pattern generation
# ---------------------------------------------------------------------------
def generate_pattern(rng: random.Random, p: int, ring: bool) -> list[tuple]:
    """A random list of high-level collective ops, all engine-mirrorable."""
    ops: list[tuple] = []
    kinds = ["compute", "p2p", "bcast", "reduce", "allreduce", "gather",
             "scatter", "alltoall"]
    if p > 1:
        kinds.append("shift")
    if ring and p > 1:
        kinds.append("allgather")
    for _ in range(rng.randint(3, 10)):
        kind = rng.choice(kinds)
        nb = rng.randint(1, 4096)
        sync = rng.random() < 0.4
        if kind == "compute":
            ops.append(("compute", tuple(rng.uniform(0.0, 5e-6) for _ in range(p))))
        elif kind == "p2p":
            if p == 1:
                continue
            src = rng.randrange(p)
            dst = rng.choice([r for r in range(p) if r != src])
            ops.append(("p2p", src, dst, nb, sync))
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
    if eng.stats.messages != net.stats.messages:
        return (
            f"message count mismatch ({label}): network={net.stats.messages} "
            f"engine={eng.stats.messages}",
            cov,
        )
    if eng.stats.bytes_sent != net.stats.bytes_sent:
        return (
            f"byte count mismatch ({label}): network={net.stats.bytes_sent} "
            f"engine={eng.stats.bytes_sent}",
            cov,
        )
    return None, cov


def _obs_workload(seed: int, trace_level: int, watch=None) -> tuple[float, Machine]:
    """A small skeleton program on a fresh machine; *watch* sees the
    machine before anything runs on it."""
    rng = random.Random(seed)
    p = rng.choice([2, 3, 4])
    n = p * rng.randint(2, 5)  # broadcast_part needs equal partitions
    machine = Machine(p, trace_level=trace_level)
    if watch is not None:
        watch(machine)
    ctx = SkilContext(machine)
    a = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: ix[0] + 1,
                         DISTR_RING, dtype=np.int64)
    b = ctx.array_create(1, (n,), (0,), (-1,), lambda ix: 0,
                         DISTR_RING, dtype=np.int64)
    ctx.array_map(lambda v, ix: v * 3, a, b)
    ctx.array_fold(lambda v, ix: v, PLUS, b)
    ctx.array_scan(PLUS, a, b)
    ctx.array_broadcast_part(a, (rng.randrange(n),))
    return float(machine.network.time), machine


def trial_obs(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    seed = rng.randrange(2**31)
    cov = {"diff.obs": 1}
    traced_time, m = _obs_workload(seed, trace_level=2)
    eps = 1e-12 + 1e-9 * traced_time

    tracer, stats = m.tracer, m.stats
    if tracer.open_depth != 0:
        return f"{tracer.open_depth} span(s) left open", cov
    spans = tracer.closed_spans()
    if not spans:
        return "traced workload produced no spans", cov
    for s in spans:
        if s.end_time < s.begin_time:
            return f"span {s.name} ends before it begins", cov
        if s.parent is not None:
            par = tracer.spans[s.parent]
            if s.begin_time < par.begin_time - eps or s.end_time > par.end_time + eps:
                return (
                    f"span {s.name} [{s.begin_time}, {s.end_time}] escapes "
                    f"parent {par.name} [{par.begin_time}, {par.end_time}]",
                    cov,
                )
    root_bytes = sum(s.bytes_sent for s in tracer.roots())
    if root_bytes != stats.bytes_sent:
        return (
            f"root spans account for {root_bytes} bytes, "
            f"stats recorded {stats.bytes_sent}",
            cov,
        )
    for r in m.timeline.ranks():
        for iv in m.timeline.for_rank(r):
            if iv.start < -eps or iv.end > traced_time + eps or iv.end < iv.start:
                return (
                    f"timeline interval {iv.kind} [{iv.start}, {iv.end}] on "
                    f"rank {r} outside makespan {traced_time}",
                    cov,
                )
    h = m.metrics.histogram("net.message_bytes")
    if h.count != stats.messages or int(h.total) != stats.bytes_sent:
        return (
            f"metrics histogram ({h.count} msgs, {h.total} bytes) != "
            f"stats ({stats.messages} msgs, {stats.bytes_sent} bytes)",
            cov,
        )
    untraced_time, _ = _obs_workload(seed, trace_level=0)
    if untraced_time != traced_time:
        return (
            f"tracing perturbed the simulation: traced makespan "
            f"{traced_time!r} != untraced {untraced_time!r}",
            cov,
        )
    return None, cov


def run_diff(
    seed: int = 0,
    budget: int = 60,
    time_budget: float | None = None,
    verbose: bool = False,
) -> CheckResult:
    """Run *budget* differential trials (every 4th is an obs probe)."""
    res = CheckResult("diff")
    t0 = time.monotonic()
    for i in range(budget):
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            break
        trial_seed = seed * 1_000_003 + i
        rng = random.Random(trial_seed)
        obs = i % 4 == 3
        res.trials += 1
        try:
            with isolated_metrics():
                msg, cov = (trial_obs if obs else trial_pattern)(rng)
        except Exception:
            msg, cov = traceback.format_exc(limit=8), {}
        for k, v in cov.items():
            res.coverage[k] = res.coverage.get(k, 0) + v
        if msg is not None:
            res.failures.append(
                Failure(
                    pillar="diff",
                    seed=trial_seed,
                    title=("obs consistency" if obs else "Network vs Engine"),
                    detail=msg,
                    replay=(
                        f"PYTHONPATH=src python -m repro.check diff "
                        f"--seed {trial_seed} --budget 1 --raw-seed"
                    ),
                )
            )
            if verbose:
                print(f"diff seed {trial_seed}: FAIL")
    return res


def run_diff_raw(seed: int, budget: int = 1) -> CheckResult:
    """Replay exact trial seeds (obs-vs-pattern recovered from the index)."""
    res = CheckResult("diff")
    for k in range(budget):
        trial_seed = seed + k
        i = trial_seed % 1_000_003
        obs = i % 4 == 3
        rng = random.Random(trial_seed)
        res.trials += 1
        try:
            with isolated_metrics():
                msg, cov = (trial_obs if obs else trial_pattern)(rng)
        except Exception:
            msg, cov = traceback.format_exc(limit=8), {}
        for key, v in cov.items():
            res.coverage[key] = res.coverage.get(key, 0) + v
        if msg is not None:
            res.failures.append(
                Failure(
                    pillar="diff",
                    seed=trial_seed,
                    title=("obs consistency" if obs else "Network vs Engine"),
                    detail=msg,
                )
            )
    return res
