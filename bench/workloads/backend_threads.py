"""``backend_threads``: dispatch-eligible skeletons and two apps on real cores.

Why: the only workload where ``machine.backend`` dispatch does most of the
work.  ROADMAP item 3 (prove the real backends or prune them) needs this
number, and both of its outcomes keep ``threads``; ``mp`` therefore appears
only as per-layer probes, skipped when ``repro.machine.BACKENDS`` lacks it.

Checks: values against numpy / the sequential oracles, and simulated seconds
and message counts bit-identical to the same ops on the ``sim`` backend
(run once in set-up).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable

import numpy as np

from repro.apps.gauss import gauss_simple, random_system
from repro.apps.shortest_paths import (
    random_distance_matrix,
    shortest_paths_oracle,
    shpaths,
)
from repro.arrays.darray import DistArray
from repro.machine.backend import BACKENDS
from repro.machine.machine import Machine
from repro.skeletons import PLUS

from bench import nproc
from bench.env import Env, Op, Result
from bench.passes import Pass, best, run_pass
from bench.workloads import Workload, seeded
from bench.workloads.skeleton_calls import (
    FOLD_RTOL,
    arrays_probe,
    block_kernels,
    block_refs,
    close,
    equal,
    finish,
)


def _noop(block, grids, env):
    return block


_noop.env_free = True


def build_ops(env: Env, backend: str, workers: int, seed: int, quick: bool,
              ref_sim: dict | None) -> tuple[list[Op], Callable[[], None], dict]:
    """The op list on *backend*.  With *ref_sim* (op id -> simulated seconds
    and counts on ``sim``) every check also demands bit-identical clocks."""
    configs = [(64, 4)] if quick else [(1536, 4), (1024, 16), (1024, 64)]
    gauss_n, shp_n, app_p = (32, 16, 16) if quick else (128, 128, 16)
    iters = 1 if quick else 2

    ops: list[Op] = []
    machines: list[Machine] = []

    def with_clock(op_id: str, values: Callable) -> Callable:
        if ref_sim is None:
            return values

        def check(res: Result) -> bool:
            return values(res) and (res.sim_s, res.counts) == ref_sim[op_id]

        return check

    def add(op_id: str, run: Callable, values: Callable, group: str) -> None:
        ops.append(Op(op_id, run, with_clock(op_id, values), group=group))

    data: dict[int, tuple] = {}
    for n, p in configs:
        if n not in data:
            a = seeded(seed, 1, n).uniform(-1.0, 1.0, (n, n))
            b = seeded(seed, 2, n).uniform(-1.0, 1.0, (n, n))
            data[n] = (a, b, block_refs(a, b), block_kernels(env, a))
        a, b, refs, kern = data[n]
        m = env.machine(p, backend=backend, workers=workers)
        machines.append(m)
        ctx = env.context(m)
        src = DistArray.from_global(m, a)
        src_b = DistArray.from_global(m, b)
        dst = DistArray.from_global(m, np.zeros((n, n)))

        def block_op(name, body, values, m=m, n=n, p=p):
            def run() -> Result:
                m.reset()
                value = None
                for _ in range(iters):
                    value = body()
                return finish(m, value)

            add(f"block/{name}/n{n}/p{p}", run, values, "block")

        def do_map(ctx=ctx, src=src, dst=dst, k=kern["map"]):
            ctx.array_map(k, src, dst)
            return dst.pool

        def do_zip(ctx=ctx, src=src, src_b=src_b, dst=dst, k=kern["zip"]):
            ctx.array_zip(k, src, src_b, dst)
            return dst.pool

        def do_fold(ctx=ctx, src=src, k=kern["fold"]):
            return ctx.array_fold(k, PLUS, src)

        def do_create(ctx=ctx, n=n, k=kern["create"]):
            arr = ctx.array_create(2, (n, n), (0, 0), (-1, -1), k)
            pool = arr.pool
            ctx.array_destroy(arr)
            return pool

        block_op("map", do_map, equal(refs["map"]))
        block_op("zip", do_zip, equal(refs["zip"]))
        block_op("fold", do_fold, close(refs["fold"], FOLD_RTOL))
        block_op("create", do_create, equal(a))

    a_mat, rhs = random_system(gauss_n, seed=seed)
    x_ref = np.linalg.solve(a_mat, rhs)
    dist = random_distance_matrix(shp_n, density=0.25, seed=seed)
    paths_ref = shortest_paths_oracle(dist)

    def app(driver, *inputs) -> Callable[[], Result]:
        def run() -> Result:
            with env.machine(app_p, backend=backend, workers=workers) as m:
                with env.span("apps", driver.__name__):
                    value, rep = driver(env.context(m), *inputs)
                res = finish(m, value)
                res.sim_s = rep.seconds
                return res

        return run

    add(f"gauss_simple/p{app_p}/n{gauss_n}", app(gauss_simple, a_mat, rhs),
        lambda res: bool(np.allclose(res.value, x_ref, rtol=1e-6, atol=1e-8)), "apps")
    add(f"shpaths/p{app_p}/n{shp_n}", app(shpaths, dist),
        lambda res: bool(np.allclose(res.value, paths_ref)), "apps")

    def close_all() -> None:
        for m in machines:
            m.close()

    sizes = {"blocks": [{"n": n, "p": p} for n, p in configs],
             "gauss_simple": {"p": app_p, "n": gauss_n},
             "shpaths": {"p": app_p, "n": shp_n},
             "calls_per_op": iters, "workers": workers}
    return ops, close_all, sizes


def build(env: Env, seed: int, quick: bool) -> Workload:
    workers = min(4, nproc())

    def on_sim(n: int) -> tuple[list[Op], list[Pass]]:
        """The same ops on the sim backend, arrays freed afterwards."""
        sim_ops, sim_close, _ = build_ops(Env(), "sim", workers, seed, quick, None)
        try:
            return sim_ops, [run_pass(sim_ops) for _ in range(n)]
        finally:
            sim_close()

    # the reference for clocks and counts
    ref_sim = {i: (o.sim_s, o.counts)
               for i, o in on_sim(1)[1][0].outcomes.items() if o.ok}

    ops, close_all, sizes = build_ops(env, "threads", workers, seed, quick, ref_sim)

    def probes(base_wall_s: float) -> dict[str, float]:
        sim_ops, sim_passes = on_sim(3)
        sim_wall = math.fsum(best(sim_ops, sim_passes[1:], "wall").values())
        out = {
            "machine.backend.workers": workers,
            # base: the identical ops on the sim backend (warm, least time
            # per op), over this run's untraced passes on threads
            "machine.backend.speedup_x": sim_wall / base_wall_s,
        }
        out.update(_dispatch_probe("threads", workers, ""))
        if "mp" in BACKENDS:
            out.update(_dispatch_probe("mp", workers, "mp_"))
            out.update(_mp_speedup(seed, workers, quick))
        first = sizes["blocks"][0]
        out.update(arrays_probe(
            seeded(seed, 1, first["n"]).uniform(-1.0, 1.0, (first["n"],) * 2),
            first["p"]))
        return out

    return Workload(ops, probes=probes, close=close_all, sizes=sizes)


def _dispatch_probe(backend: str, workers: int, prefix: str) -> dict[str, float]:
    """A no-op kernel through ``ExecBackend.run_blocks``: start-up, cost per
    block once warm, and tear-down."""
    blocks, reps = 64, 10
    t0 = perf_counter()
    m = Machine(blocks, backend=backend, workers=workers)
    arr = DistArray.from_global(m, np.zeros((blocks, 8)))
    tasks = [(arr.local(r), arr.index_grids(r), None) for r in range(blocks)]
    m.backend.run_blocks(_noop, tasks)
    t1 = perf_counter()
    for _ in range(reps):
        m.backend.run_blocks(_noop, tasks)
    t2 = perf_counter()
    m.close()
    t3 = perf_counter()
    out = {f"machine.backend.{prefix}dispatch_us": 1e6 * (t2 - t1) / (reps * blocks)}
    if not prefix:
        out["machine.backend.startup_s"] = t1 - t0
        out["machine.backend.close_s"] = t3 - t2
    return out


def _mp_speedup(seed: int, workers: int, quick: bool) -> dict[str, float]:
    """One map on ``mp`` against the same map on ``sim`` (base: sim)."""
    n, p, reps = (64, 4, 2) if quick else (1024, 4, 3)
    a = seeded(seed, 1, n).uniform(-1.0, 1.0, (n, n))
    walls = {}
    for backend in ("sim", "mp"):
        with Machine(p, backend=backend, workers=workers) as m:
            ctx = Env().context(m)
            k = block_kernels(Env(), a)["map"]
            src = DistArray.from_global(m, a)
            dst = DistArray.from_global(m, np.zeros((n, n)))
            ctx.array_map(k, src, dst)  # ships the kernel, starts the workers
            t0 = perf_counter()
            for _ in range(reps):
                ctx.array_map(k, src, dst)
            walls[backend] = perf_counter() - t0
    return {"machine.backend.mp_speedup_x": walls["sim"] / walls["mp"]}
