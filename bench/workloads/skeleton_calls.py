"""``skeleton_calls``: direct ``SkilContext.array_*`` calls on large arrays.

Why: the same ``skeletons`` layer as ``paper_tables`` used the other way
round.  Blocks are large, so the numpy kernel and the pool-fused path
dominate and glue is small.  The cyclic ops (boxed per-element kernels, and
rank-dependent kernels on the per-rank path) are the writes beside the
reads: a fast-path gain that costs the fallback shows here.

Every array lives on a machine built in set-up and is reused by every pass;
an op resets its machine's clocks, so its simulated seconds are those of the
op alone.  References are plain numpy, computed in set-up.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

from repro.arrays.darray import DistArray
from repro.arrays.distribution import BlockDistribution, CyclicDistribution
from repro.machine.machine import DISTR_TORUS2D, Machine
from repro.skeletons import MIN, PLUS

from bench.env import Env, Op, Result
from bench.workloads import Workload, seeded

PS = (1, 4, 64)
FOLD_RTOL = 1e-9


def min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sequential (min,+) product, a few rows at a time."""
    out = np.empty((a.shape[0], b.shape[1]))
    for lo in range(0, a.shape[0], 16):
        out[lo:lo + 16] = np.min(a[lo:lo + 16, :, None] + b[None, :, :], axis=1)
    return out


def block_kernels(env: Env, data: np.ndarray) -> dict[str, Callable]:
    """The env-free vectorized kernels of the block ops."""
    return {
        "map": env.kernel(
            lambda v, ix: v * 1.0001 + ix[0], 2,
            lambda block, grids, e: block * 1.0001 + grids[0], env_free=True),
        "zip": env.kernel(
            lambda x, y, ix: x * y + ix[1], 2,
            lambda ba, bb, grids, e: ba * bb + grids[1], env_free=True),
        "fold": env.kernel(
            lambda v, ix: v * v + ix[0], 2,
            lambda block, grids, e: block * block + grids[0], env_free=True),
        "create": env.kernel(
            lambda ix: data[ix], 1,
            lambda grids, e: data[grids[0], grids[1]], env_free=True),
    }


def block_refs(a: np.ndarray, b: np.ndarray) -> dict[str, np.ndarray]:
    rows = np.arange(a.shape[0])[:, None]
    cols = np.arange(a.shape[1])[None, :]
    return {
        "map": a * 1.0001 + rows,
        "zip": a * b + cols,
        "fold": np.sum(a * a + rows),
    }


def finish(machine, value=None) -> Result:
    return Result(
        sim_s=machine.time,
        counts={"msgs": machine.stats.messages, "bytes": machine.stats.bytes_sent},
        value=value,
    )


def equal(ref: np.ndarray) -> Callable[[Result], bool]:
    return lambda res: bool(np.array_equal(res.value, ref))


def close(ref, rtol: float, atol: float = 0.0) -> Callable[[Result], bool]:
    return lambda res: bool(np.allclose(res.value, ref, rtol=rtol, atol=atol))


def build(env: Env, seed: int, quick: bool) -> Workload:
    n = 64 if quick else 1024
    side = 16 if quick else 192  # (min,+) product side
    n_cyc = 64 if quick else 96  # at least one row per rank at p = 64
    # calls per op: the boxed per-element ops are slow enough once
    iters = {"block": 1 if quick else 2, "cyclic": 1, "rankdep": 1 if quick else 2}

    a = seeded(seed, 1).uniform(-1.0, 1.0, (n, n))
    b = seeded(seed, 2).uniform(-1.0, 1.0, (n, n))
    vec = seeded(seed, 3).uniform(-1.0, 1.0, n * n) * 1e-3
    ga = seeded(seed, 4).uniform(1.0, 3.0, (side, side))
    gb = seeded(seed, 5).uniform(1.0, 3.0, (side, side))
    ca = seeded(seed, 6).uniform(-1.0, 1.0, (n_cyc, n_cyc))
    cb = seeded(seed, 7).uniform(-1.0, 1.0, (n_cyc, n_cyc))

    refs = block_refs(a, b)
    perm = (5 * np.arange(n) + 3) % n
    ref_perm = np.empty_like(a)
    ref_perm[perm] = a
    ref_scan = np.cumsum(vec)
    ref_gen = min_plus(ga, gb)
    kern = block_kernels(env, a)

    def shuffle(i: int) -> int:
        return (5 * i + 3) % n

    shuffle.ops = 2.0
    shuffle.perm_vectorized = lambda ix: (5 * ix + 3) % n

    ops: list[Op] = []

    def writes(target: DistArray, call: Callable[[], None]) -> Callable:
        """An op body: make the call, hand back what it wrote."""

        def body():
            call()
            return target.pool if target.pool is not None else target.global_view()

        return body

    def ops_at(p: int) -> None:
        m = env.machine(p)
        ctx = env.context(m)

        def add(group: str, name: str, body: Callable, check: Callable) -> None:
            def run() -> Result:
                m.reset()
                value = None
                for _ in range(iters[group]):
                    value = body()
                return finish(m, value)

            ops.append(Op(f"{group}/{name}/p{p}", run, check, group=group))

        src = DistArray.from_global(m, a)
        src_b = DistArray.from_global(m, b)
        dst = DistArray.from_global(m, np.zeros((n, n)))
        bc = DistArray.from_global(m, a)
        s1 = DistArray.from_global(m, vec)
        d1 = DistArray.from_global(m, np.zeros(n * n))
        ta = DistArray.from_global(m, ga, DISTR_TORUS2D)
        tb = DistArray.from_global(m, gb, DISTR_TORUS2D)
        tc = DistArray.from_global(m, np.full((side, side), np.inf), DISTR_TORUS2D)

        def create():
            arr = ctx.array_create(2, (n, n), (0, 0), (-1, -1), kern["create"])
            pool = arr.pool
            ctx.array_destroy(arr)
            return pool

        # DISTR_DEFAULT splits rows over all p ranks
        rows_per = n // p
        bc_ix = (n // 2, 0)
        owner = bc_ix[0] // rows_per
        ref_bc = np.tile(a[owner * rows_per:(owner + 1) * rows_per], (p, 1))

        add("block", "map", writes(dst, lambda: ctx.array_map(kern["map"], src, dst)),
            equal(refs["map"]))
        add("block", "zip",
            writes(dst, lambda: ctx.array_zip(kern["zip"], src, src_b, dst)),
            equal(refs["zip"]))
        add("block", "fold", lambda: ctx.array_fold(kern["fold"], PLUS, src),
            close(refs["fold"], FOLD_RTOL))
        add("block", "create", create, equal(a))
        add("block", "copy", writes(dst, lambda: ctx.array_copy(src, dst)), equal(a))
        add("block", "scan", writes(d1, lambda: ctx.array_scan(PLUS, s1, d1)),
            close(ref_scan, 1e-9, atol=1e-10))
        add("block", "broadcast_part",
            writes(bc, lambda: ctx.array_broadcast_part(bc, bc_ix)), equal(ref_bc))
        add("block", "permute_rows",
            writes(dst, lambda: ctx.array_permute_rows(src, shuffle, dst)),
            equal(ref_perm))
        add("block", "gen_mult",
            writes(tc, lambda: ctx.array_gen_mult(ta, tb, MIN, PLUS, tc)),
            close(ref_gen, 1e-12))

        # strided layout: no pool, so no fused path
        def cyclic(data: np.ndarray) -> DistArray:
            arr = DistArray(m, CyclicDistribution(data.shape, (p, 1)), data.dtype)
            arr.fill_from_global(data)
            return arr

        xa, xb, xd = cyclic(ca), cyclic(cb), cyclic(np.zeros_like(ca))
        rows_c = np.arange(n_cyc)[:, None]
        cols_c = np.arange(n_cyc)[None, :]

        # kernels without a vectorized form: applied element by element
        b_map = env.kernel(lambda v, ix: v * 1.0001 + ix[0], 2)
        b_zip = env.kernel(lambda x, y, ix: x * y + ix[1], 2)
        b_fold = env.kernel(lambda v, ix: v * v + ix[0], 2)
        add("cyclic", "map", writes(xd, lambda: ctx.array_map(b_map, xa, xd)),
            close(ca * 1.0001 + rows_c, 1e-15))
        add("cyclic", "zip", writes(xd, lambda: ctx.array_zip(b_zip, xa, xb, xd)),
            close(ca * cb + cols_c, 1e-15))
        add("cyclic", "fold", lambda: ctx.array_fold(b_fold, PLUS, xa),
            close(np.sum(ca * ca + rows_c), FOLD_RTOL))

        # kernels that read the per-rank environment: per-rank path
        r_map = env.kernel(lambda v, ix: v, 1,
                           lambda block, grids, e: block + e.rank, env_free=False)
        r_zip = env.kernel(lambda x, y, ix: x, 2,
                           lambda ba, bb, grids, e: ba * bb + e.rank, env_free=False)
        r_fold = env.kernel(lambda v, ix: v, 1,
                            lambda block, grids, e: block + e.rank, env_free=False)
        owner_of_row = (np.arange(n_cyc) % p)[:, None].astype(float)
        add("rankdep", "map", writes(xd, lambda: ctx.array_map(r_map, xa, xd)),
            close(ca + owner_of_row, 1e-15))
        add("rankdep", "zip", writes(xd, lambda: ctx.array_zip(r_zip, xa, xb, xd)),
            close(ca * cb + owner_of_row, 1e-15))
        add("rankdep", "fold", lambda: ctx.array_fold(r_fold, PLUS, xa),
            close(np.sum(ca + owner_of_row), FOLD_RTOL))

    for p in PS:
        ops_at(p)

    def layers(rows, results) -> dict[str, float]:
        wall = {p: sum(r.dur for r in rows
                       if r.layer == "bench" and r.op.startswith("block/")
                       and r.op.endswith(f"/p{p}")) for p in (1, 64)}
        return {"skeletons.glue_x_p64": wall[64] / wall[1]}

    def probes(base_wall_s: float) -> dict[str, float]:
        return arrays_probe(a, max(PS))

    sizes = {"n": n, "gen_mult_side": side, "cyclic_n": n_cyc, "ps": list(PS),
             "calls_per_op": iters}
    return Workload(ops, layers=layers, probes=probes, sizes=sizes)


def arrays_probe(data: np.ndarray, p: int) -> dict[str, float]:
    """Time the ``arrays`` layer's public entry points on the workload's
    own data: scatter, assemble, and partition geometry fresh vs memoized."""
    machine = Machine(p)
    t0 = perf_counter()
    arr = DistArray.from_global(machine, data)
    t1 = perf_counter()
    arr.global_view()
    t2 = perf_counter()
    dist = BlockDistribution(data.shape, arr.dist.grid)
    t3 = perf_counter()
    for r in range(p):
        dist.bounds(r)
        dist.index_grids(r)
    t4 = perf_counter()
    for r in range(p):
        dist.bounds(r)
        dist.index_grids(r)
    t5 = perf_counter()
    return {
        "arrays.from_global_s": t1 - t0,
        "arrays.global_view_s": t2 - t1,
        "arrays.geometry_cold_s": t4 - t3,
        "arrays.geometry_warm_s": t5 - t4,
    }
