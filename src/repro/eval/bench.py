"""Wall-clock benchmark harness: ``python -m repro.eval bench``.

Simulated seconds are charged analytically and never depend on how fast
the Python host executes — but *wall-clock* does, and the ROADMAP's
"runs as fast as the hardware allows" goal is about wall-clock.  This
harness times the skeleton hot paths twice, once with the fused
whole-array execution layer enabled and once with it disabled (the
historical per-rank path), and records both together with their
speedup into ``BENCH_perf.json``:

* **microbenchmarks** — ``map`` / ``zip`` / ``fold`` / ``create`` /
  ``copy`` plus the fused-communication paths ``genmult`` /
  ``broadcast_part`` / ``permute_rows`` / ``scan`` at ``p ∈ {4, 16, 64}``
  over seeded block-distributed arrays.
  Only the skeleton calls are inside the timed region; setup (machine
  construction, RNG data generation, initial distribution) happens once
  per mode, untimed, so the ratio measures skeleton execution and not
  harness overhead shared by both paths;
* **end-to-end drivers** — one Table 1 cell (shortest paths) and one
  Table 2 cell (Gaussian elimination), plus (without ``--quick``) the
  full ``python -m repro.eval all`` driver set.  These are timed whole —
  for an end-to-end driver the setup is part of the workload.

Every pair of runs also asserts that the **simulated** seconds are
bit-identical between the fused and per-rank paths — the harness
doubles as the perf-equivalence gate.

``--check-against FILE`` compares the measured fused speedups of the
``map``/``fold``/``genmult``/``broadcast_part`` microbenchmarks against
a previously committed ``BENCH_perf.json`` and fails (exit 1) when any
of them regressed by more than 25 % — the CI ``bench-smoke`` contract.

``--backend threads`` additionally times the dispatch-eligible
micros (``map``/``fold``) plus the communication-bound ``genmult`` on
the requested real execution backend and records wall-clock vs the sim
backend — together with the host's core count — into a ``backend``
section of the report.  Simulated seconds must stay bit-identical
(the backends never touch the cost model).  The wall-clock ratio is
recorded, not gated: the 1.5x ``threads`` target is unmet on every host
measured so far (docs/PERFORMANCE.md, "Real backends").

The ``fusion`` section pairs each workload with *compiler-level*
skeleton fusion off vs on (:mod:`repro.lang.fusion`).  These pairs are
deliberately **not** sim-identical — eliminating whole skeleton rounds
is the point — so the gates are: values bit-equal, fused simulated
seconds ≤ unfused, and the ``map_map`` micro keeps a
≥ :data:`FUSION_ROUNDS_FLOOR` × round reduction.

``--section NAME`` reruns exactly one section (``microbench``,
``end_to_end``, ``scale``, ``obs_overhead``, ``profile_overhead``,
``fusion`` or ``backend``) and merges it into the ``--out`` report,
leaving the other sections of an existing file untouched —
``repro.obs.regress`` treats sections absent from a baseline as
informational, so a merged report stays comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable

import numpy as np

BENCH_SCHEMA = "repro-bench/1"

#: processor counts exercised by the microbenchmarks
MICRO_PS = (4, 16, 64)

#: regression tolerance for --check-against (fraction of the committed
#: speedup that must still be reached)
REGRESSION_FLOOR = 0.75

#: microbenchmark names gated by --check-against, mapped to the
#: processor counts whose speedup is gated (None = every p).  map/fold
#: speedup ratios are stable across problem sizes, so the quick CI run
#: can be held against the committed full-size run at every p; the
#: communication micros are gated at p = 64 only — the regime the batch
#: charging targets — because their mid-p ratios swing with the smaller
#: ``--quick`` sizes.
GATED_MICROS = {
    "map": None,
    "fold": None,
    "genmult": (64,),
    "broadcast_part": (64,),
}

#: absolute ceiling on the stream-mode wall-clock overhead relative to
#: trace-off (the ``obs_overhead`` gate).  Streaming charges one
#: vectorized aggregate update per communication wave, so its overhead
#: is a small constant factor; 8x leaves generous headroom for host
#: noise while still catching an accidental per-message Python loop.
OBS_OVERHEAD_LIMIT = 8.0

#: processor counts for the extreme-scale collective micros — the
#: closed-form charging tier must stay cheap all the way to 2^16 ranks
SCALE_PS = (1024, 4096, 16384, 65536)

#: collectives timed in the scale section (one call each, wall-clock)
SCALE_COLLECTIVES = ("broadcast", "allreduce", "gather")

#: micros timed under a real backend (--backend): the two block-dispatch
#: paths plus the communication-bound genmult (which must *not* slow
#: down — its rotations stay in the main process)
BACKEND_MICROS = ("map", "fold", "genmult")

#: processor counts for the backend section (64 would leave sub-cache
#: blocks per rank — not the regime real dispatch targets)
BACKEND_MICRO_PS = (4, 16)

#: ceiling on the wall-clock cost of attaching the wall profiler
#: (``profile_overhead`` gate): a profiled run may be at most this much
#: slower than the same run unprofiled.  The profiler adds two
#: ``monotonic()`` stamps per block plus O(1) bookkeeping per dispatch,
#: so 1.25x is generous; blowing it means a hot-path regression.
PROFILE_OVERHEAD_LIMIT = 1.25

#: CI floor on the skeleton-round ratio of the fused map∘map micro:
#: compiler-level fusion must eliminate at least 1.3x of the unfused
#: program's rounds (the guaranteed collapse is 7 -> 4: one map pair,
#: the temp's create and its destroy all disappear)
FUSION_ROUNDS_FLOOR = 1.3

#: the sections a ``--section`` run may regenerate in isolation
BENCH_SECTION_NAMES = (
    "microbench", "end_to_end", "scale", "obs_overhead",
    "profile_overhead", "fusion", "backend",
)

#: the fused map∘map micro: two maps through a temporary that dies
#: right after — the compiler pass collapses the pair to one map,
#: deletes the temp's create/destroy, and elides the dead inits
_FUSION_MAPMAP_SRC = """\
int ramp (Index ix) { return ix[0] %% 9973; }
int step1 (int v, Index ix) { return ((v * 3 + 1) %% 9973); }
int step2 (int v, Index ix) { return ((v * 5 + 2) %% 9973); }

array<int> entry () {
  array<int> a, t, b;
  a = array_create (1, {%d}, {0}, {-1}, ramp, DISTR_DEFAULT);
  t = array_create (1, {%d}, {0}, {-1}, ramp, DISTR_DEFAULT);
  b = array_create (1, {%d}, {0}, {-1}, ramp, DISTR_DEFAULT);
  array_map (step1, a, t);
  array_map (step2, t, b);
  array_destroy (t);
  array_destroy (a);
  return b;
}
"""


def _set_fusion(enabled: bool) -> bool:
    """Flip the global fusion default; returns False when the fused
    layer is not available (pre-optimization baseline capture)."""
    try:
        from repro.skeletons.fuse import set_fusion_default
    except ImportError:
        return False
    set_fusion_default(enabled)
    return True


def _fusion_available() -> bool:
    try:
        from repro.skeletons import fuse  # noqa: F401
    except ImportError:
        return False
    return True


def _time_best(fn: Callable[[], float], repeat: int) -> tuple[float, float]:
    """Run *fn* ``repeat`` times; returns (best wall seconds, simulated
    seconds of the last run).  *fn* returns the run's simulated time."""
    best = float("inf")
    sim = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        sim = fn()
        best = min(best, time.perf_counter() - t0)
    return best, sim


# ---------------------------------------------------------------------------
# microbenchmarks — each is a *factory*: called once per execution mode it
# does the (untimed) setup and returns the measured closure, which runs the
# skeleton loop and returns the machine's accumulated simulated seconds
# ---------------------------------------------------------------------------
def _micro_ctx(p: int):
    from repro.machine.machine import Machine
    from repro.skeletons import SkilContext

    return SkilContext(Machine(p))


def _seed_data(shape: tuple[int, ...], seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=shape)


def _micro_map(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray
    from repro.skeletons import skil_fn

    ctx = _micro_ctx(p)
    src = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))
    dst = DistArray.from_global(ctx.machine, np.zeros((n, m)))
    f = skil_fn(
        ops=2, vectorized=lambda block, grids, env: block * 1.0001 + grids[0]
    )(lambda v, ix: v * 1.0001 + ix[0])

    def run() -> float:
        for _ in range(iters):
            ctx.array_map(f, src, dst)
        return ctx.machine.time

    return run


def _micro_zip(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray
    from repro.skeletons import skil_fn

    ctx = _micro_ctx(p)
    a = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))
    b = DistArray.from_global(ctx.machine, _seed_data((n, m), seed + 1))
    dst = DistArray.from_global(ctx.machine, np.zeros((n, m)))
    f = skil_fn(
        ops=2, vectorized=lambda ba, bb, grids, env: ba * bb + grids[1]
    )(lambda x, y, ix: x * y + ix[1])

    def run() -> float:
        for _ in range(iters):
            ctx.array_zip(f, a, b, dst)
        return ctx.machine.time

    return run


def _micro_fold(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray
    from repro.skeletons import PLUS, skil_fn

    ctx = _micro_ctx(p)
    arr = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))
    conv = skil_fn(
        ops=2, vectorized=lambda block, grids, env: block * block + grids[0]
    )(lambda v, ix: v * v + ix[0])

    def run() -> float:
        acc = 0.0
        for _ in range(iters):
            acc += ctx.array_fold(conv, PLUS, arr)
        assert np.isfinite(acc)
        return ctx.machine.time

    return run


def _micro_create(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.skeletons import skil_fn

    ctx = _micro_ctx(p)
    data = _seed_data((n, m), seed)
    init = skil_fn(
        ops=1, vectorized=lambda grids, env: data[grids[0], grids[1]]
    )(lambda ix: data[ix])

    def run() -> float:
        for _ in range(iters):
            arr = ctx.array_create(2, (n, m), (0, 0), (-1, -1), init)
            ctx.array_destroy(arr)
        return ctx.machine.time

    return run


def _micro_copy(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray

    ctx = _micro_ctx(p)
    src = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))
    dst = DistArray.from_global(ctx.machine, np.zeros((n, m)))

    def run() -> float:
        for _ in range(iters):
            ctx.array_copy(src, dst)
        return ctx.machine.time

    return run


def _micro_genmult(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    """Min-plus semiring product (the generic chunked path, not BLAS) on
    a square torus — exercises the batched rotations and per-rank-batched
    semiring reductions.  The matrix side is ``m // 4`` (divisible by
    every torus grid in MICRO_PS): small per-processor partitions, the
    communication/orchestration-bound regime of Gentleman's algorithm
    that the rotation fusion targets (cf. the paper's 64-transputer
    shortest-paths runs)."""
    from repro.arrays.darray import DistArray
    from repro.machine.machine import DISTR_TORUS2D
    from repro.skeletons import MIN, PLUS

    side = m // 4
    ctx = _micro_ctx(p)
    a = DistArray.from_global(
        ctx.machine, _seed_data((side, side), seed) + 2.0, DISTR_TORUS2D
    )
    b = DistArray.from_global(
        ctx.machine, _seed_data((side, side), seed + 1) + 2.0, DISTR_TORUS2D
    )
    c = DistArray.from_global(ctx.machine, np.zeros((side, side)), DISTR_TORUS2D)
    reps = max(1, iters - 3)

    def run() -> float:
        for _ in range(reps):
            ctx.array_gen_mult(a, b, MIN, PLUS, c)
        return ctx.machine.time

    return run


def _micro_bcastpart(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray

    ctx = _micro_ctx(p)
    arr = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))

    def run() -> float:
        for i in range(iters):
            ctx.array_broadcast_part(arr, (i % n, (i * 7) % m))
        return ctx.machine.time

    return run


def _micro_permute(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray

    ctx = _micro_ctx(p)
    src = DistArray.from_global(ctx.machine, _seed_data((n, m), seed))
    dst = DistArray.from_global(ctx.machine, np.zeros((n, m)))

    def shuffle(i: int) -> int:
        return (5 * i + 3) % n

    shuffle.ops = 2.0
    shuffle.perm_vectorized = lambda ix: (5 * ix + 3) % n

    def run() -> float:
        for _ in range(iters):
            ctx.array_permute_rows(src, shuffle, dst)
        return ctx.machine.time

    return run


def _micro_scan(p: int, n: int, m: int, iters: int, seed: int) -> Callable[[], float]:
    from repro.arrays.darray import DistArray
    from repro.skeletons import PLUS

    ctx = _micro_ctx(p)
    src = DistArray.from_global(
        ctx.machine, _seed_data((n * m,), seed) * 1e-3
    )
    dst = DistArray.from_global(ctx.machine, np.zeros(n * m))

    def run() -> float:
        for _ in range(iters):
            ctx.array_scan(PLUS, src, dst)
        return ctx.machine.time

    return run


MICROBENCHES: dict[str, Callable[[int, int, int, int, int], Callable[[], float]]] = {
    "map": _micro_map,
    "zip": _micro_zip,
    "fold": _micro_fold,
    "create": _micro_create,
    "copy": _micro_copy,
    "genmult": _micro_genmult,
    "broadcast_part": _micro_bcastpart,
    "permute_rows": _micro_permute,
    "scan": _micro_scan,
}


# ---------------------------------------------------------------------------
# end-to-end drivers
# ---------------------------------------------------------------------------
def _e2e_shpaths(p: int, n: int, seed: int) -> float:
    from repro.eval.harness import run_shpaths

    return run_shpaths("skil", p, n, seed=seed).seconds


def _e2e_gauss(p: int, n: int, seed: int) -> float:
    from repro.eval.harness import run_gauss

    return run_gauss("skil", p, n - n % p, seed=seed).seconds


def _e2e_eval_all(scale: float) -> float:
    """The whole ``python -m repro.eval all`` driver set; returns the sum
    of all simulated seconds as the invariance fingerprint."""
    from repro.eval.experiments import (
        ablation_equal_c,
        ablation_full_gauss,
        ablation_instantiation,
        ablation_sync_comm,
        ablation_topology,
        table1,
        table2,
    )

    total = 0.0
    total += sum(r.skil_seconds + r.dpfl_seconds + r.c_old_seconds
                 for r in table1(scale=scale))
    total += sum(c.skil_seconds + c.c_seconds + (c.dpfl_seconds or 0.0)
                 for c in table2(scale=scale))
    for ab in (
        ablation_equal_c(scale=scale),
        ablation_full_gauss(scale=scale),
        ablation_instantiation(scale=scale),
        ablation_topology(scale=scale),
        ablation_sync_comm(scale=scale),
    ):
        total += ab.measured_ratio
    return total


# ---------------------------------------------------------------------------
# observability overhead — how much wall-clock the trace modes cost
# ---------------------------------------------------------------------------
def run_obs_overhead(quick: bool, repeat: int, seed: int) -> dict:
    """Time one shortest-paths run at trace off / record / stream.

    Asserts the simulated makespan is bit-identical across all three
    (tracing must never perturb the simulation) and reports the
    wall-clock overhead factors; ``stream_overhead`` is gated against
    :data:`OBS_OVERHEAD_LIMIT` by ``main``.
    """
    from repro.eval.tracecmd import run_traced

    p, n = (16, 16) if quick else (64, 48)

    def _runner(mode: str) -> Callable[[], float]:
        def run() -> float:
            machine = run_traced(
                "shpaths",
                p=p,
                n=n,
                seed=seed,
                trace_level=0 if mode == "off" else 2,
                trace_mode="stream" if mode == "stream" else "record",
            ).machine
            return machine.time

        return run

    off_s, sim_off = _time_best(_runner("off"), repeat)
    record_s, sim_record = _time_best(_runner("record"), repeat)
    stream_s, sim_stream = _time_best(_runner("stream"), repeat)
    return {
        "name": "obs_overhead_shpaths",
        "p": p,
        "n": n,
        "off_s": round(off_s, 6),
        "record_s": round(record_s, 6),
        "stream_s": round(stream_s, 6),
        "record_overhead": round(record_s / off_s, 3) if off_s > 0 else None,
        "stream_overhead": round(stream_s / off_s, 3) if off_s > 0 else None,
        "sim_seconds": sim_off,
        "sim_identical": sim_off == sim_record == sim_stream,
    }


def run_profile_overhead(quick: bool, repeat: int, seed: int) -> dict:
    """Time one gauss run on the threads backend, profiler off vs on.

    The wall profiler must be near-free when attached: the ``overhead``
    factor is gated against :data:`PROFILE_OVERHEAD_LIMIT` by ``main``,
    and the simulated makespan must stay bit-identical (profiling reads
    wall clocks only, never the cost model).  gauss is the app whose
    kernels actually dispatch to workers, so the per-block stamping hot
    path is exercised for real.
    """
    from repro.eval.tracecmd import run_traced

    p, n = (16, 32) if quick else (64, 64)

    def _runner(profile: bool) -> Callable[[], float]:
        def run() -> float:
            r = run_traced(
                "gauss", p=p, n=n, seed=seed, trace_level=0,
                backend="threads", workers=2, profile=profile,
            )
            sim = r.machine.time
            r.machine.close()
            return sim

        return run

    off_s, sim_off = _time_best(_runner(False), repeat)
    profiled_s, sim_on = _time_best(_runner(True), repeat)
    return {
        "name": "profile_overhead_gauss",
        "backend": "threads",
        "workers": 2,
        "p": p,
        "n": n,
        "off_s": round(off_s, 6),
        "profiled_s": round(profiled_s, 6),
        "overhead": round(profiled_s / off_s, 3) if off_s > 0 else None,
        "sim_seconds": sim_off,
        "sim_identical": sim_off == sim_on,
        "limit": PROFILE_OVERHEAD_LIMIT,
    }


# ---------------------------------------------------------------------------
# extreme scale — closed-form collectives at p up to 65536
# ---------------------------------------------------------------------------
def run_scale_bench(quick: bool, seed: int = 0) -> list[dict]:
    """Time one closed-form collective call per (name, p) at extreme p.

    The point of the closed-form tier is that a collective at
    p = 65536 charges ``O(log p)`` vectorized waves instead of ``O(p)``
    Python iterations, and allocates ``O(p)`` scaffolding instead of a
    dense ``(p, p)`` hop matrix.  Simulated seconds and message counts
    are deterministic; ``wall_s`` documents that a full collective at
    2^16 ranks costs milliseconds.
    """
    from repro.machine.machine import Machine

    entries: list[dict] = []
    ps = SCALE_PS[:2] if quick else SCALE_PS
    nbytes = 4096
    for p in ps:
        for name in SCALE_COLLECTIVES:
            machine = Machine(p, trace_level=0)
            net = machine.network
            topo = machine.topology()
            t0 = time.perf_counter()
            if name == "broadcast":
                net.broadcast(0, nbytes, topo)
            elif name == "allreduce":
                net.allreduce(nbytes, topo, combine_seconds=1e-6)
            else:
                net.gather(0, nbytes, topo)
            wall = time.perf_counter() - t0
            entries.append({
                "name": name,
                "p": p,
                "nbytes": nbytes,
                "wall_s": round(wall, 6),
                "sim_seconds": machine.time,
                "messages": int(net.stats.messages),
            })
            print(
                f"scale {name:9s} p={p:<6d} wall {wall:.4f}s  "
                f"sim {machine.time:.6f}s  msgs {net.stats.messages}"
            )
    return entries


# ---------------------------------------------------------------------------
# real execution backends — wall-clock vs cores
# ---------------------------------------------------------------------------
def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def run_backend_bench(
    backend: str, quick: bool, repeat: int | None, seed: int
) -> dict:
    """Time :data:`BACKEND_MICROS` under *backend* vs the sim backend.

    Uses larger arrays than the fused-vs-per-rank micros: real dispatch
    pays a fixed per-rank scheduling cost, so the honest regime is
    blocks big enough for numpy to release the GIL on.  Each micro is
    set up and timed twice — once with the sim backend, once with the
    real one — through the same factory, with the backend chosen via
    the process-wide default the factory's ``Machine(p)`` picks up.
    The simulated seconds of both runs must be bit-identical: backends
    execute kernels but never touch the analytic cost model.
    """
    from repro.machine.backend import (
        backend_default,
        default_workers,
        set_backend_default,
    )

    if repeat is None:
        repeat = 3 if quick else 5
    n, m = (256, 64) if quick else (1536, 256)
    iters = 3 if quick else 5
    cores = _host_cores()
    section: dict = {
        "backend": backend,
        "cores": cores,
        "entries": [],
    }
    prior = backend_default()
    available = _fusion_available()
    if available:
        from repro.skeletons.fuse import fusion_default

        prior_fusion = fusion_default()
    _set_fusion(True)  # block dispatch rides the fused layer
    try:
        for name in BACKEND_MICROS:
            fn = MICROBENCHES[name]
            for p in BACKEND_MICRO_PS:
                set_backend_default("sim")
                sim_s, sim_t = _time_best(fn(p, n, m, iters, seed), repeat)
                set_backend_default(backend)
                wall_s, real_t = _time_best(fn(p, n, m, iters, seed), repeat)
                entry = {
                    "name": name,
                    "p": p,
                    "n": n,
                    "m": m,
                    "iters": iters,
                    "workers": default_workers(p),
                    "sim_s": round(sim_s, 6),
                    "wall_s": round(wall_s, 6),
                    "speedup_vs_sim": round(sim_s / wall_s, 3)
                    if wall_s > 0
                    else None,
                    "sim_seconds": real_t,
                    "sim_identical": sim_t == real_t,
                }
                section["entries"].append(entry)
                print(
                    f"back  {name:7s} p={p:<3d} {backend}"
                    f"({entry['workers']}w/{cores}c) "
                    f"{entry['wall_s']:.4f}s  sim {entry['sim_s']:.4f}s  "
                    f"speedup {entry['speedup_vs_sim']}x  "
                    f"sim-identical={entry['sim_identical']}"
                )
    finally:
        set_backend_default(prior)
        if available:
            _set_fusion(prior_fusion)
    return section


# ---------------------------------------------------------------------------
# compiler-level skeleton fusion — fewer rounds, bit-equal values
# ---------------------------------------------------------------------------
def run_fusion_bench(quick: bool, repeat: int | None, seed: int) -> list[dict]:
    """Pair each workload with compiler-level fusion off vs on.

    Unlike :func:`_run_pair` this does **not** assert sim-identity —
    eliminating whole skeleton rounds is the point, so fused simulated
    seconds must be *at most* the unfused ones while the computed
    values stay bit-equal.  The ``map_map`` micro is additionally gated
    (by ``main``) at :data:`FUSION_ROUNDS_FLOOR` x fewer rounds.
    """
    from repro.lang.compiler import compile_skil
    from repro.machine.machine import Machine
    from repro.skeletons import SkilContext

    if repeat is None:
        repeat = 3 if quick else 5
    n = 256 if quick else 2048
    entries: list[dict] = []

    src = _FUSION_MAPMAP_SRC % (n, n, n)
    mod_u = compile_skil(src, fusion=False)
    mod_f = compile_skil(src, fusion=True)
    for p in MICRO_PS:
        def run_mod(mod=mod_u):
            with Machine(p) as m:
                out = mod.run("entry", ctx=SkilContext(m))
                return np.array(out.global_view()), m.stats.skeleton_calls, m.time

        unfused_s, _ = _time_best(lambda: run_mod(mod_u)[2], repeat)
        fused_s, _ = _time_best(lambda: run_mod(mod_f)[2], repeat)
        v_u, rounds_u, sim_u = run_mod(mod_u)
        v_f, rounds_f, sim_f = run_mod(mod_f)
        entry = {
            "name": "map_map",
            "p": p,
            "n": n,
            "rounds_unfused": rounds_u,
            "rounds_fused": rounds_f,
            "rounds_ratio": round(rounds_u / rounds_f, 3) if rounds_f else None,
            "sim_unfused": sim_u,
            "sim_fused": sim_f,
            "sim_seconds": sim_f,
            "unfused_s": round(unfused_s, 6),
            "fused_s": round(fused_s, 6),
            "values_equal": bool(np.array_equal(v_u, v_f)),
        }
        entries.append(entry)
        print(
            f"fusio map_map p={p:<3d} rounds {rounds_u}->{rounds_f} "
            f"({entry['rounds_ratio']}x)  sim {sim_u:.6f}->{sim_f:.6f}s  "
            f"values-equal={entry['values_equal']}"
        )

    # the Table 1/2 drivers, mirrored through ctx.fusion
    from repro.apps.gauss import gauss_full
    from repro.apps.shortest_paths import (
        random_distance_matrix,
        round_up_to_grid,
        shpaths,
    )

    p = 16
    def _driver(name, fn):
        runs = {}
        for fusion in (False, True):
            with Machine(p) as m:
                value, rep = fn(SkilContext(m, fusion=fusion))
                runs[fusion] = (np.asarray(value), m.stats.skeleton_calls,
                                rep.seconds)
        v_u, rounds_u, sim_u = runs[False]
        v_f, rounds_f, sim_f = runs[True]
        entry = {
            "name": name,
            "p": p,
            "rounds_unfused": rounds_u,
            "rounds_fused": rounds_f,
            "rounds_ratio": round(rounds_u / rounds_f, 3) if rounds_f else None,
            "sim_unfused": sim_u,
            "sim_fused": sim_f,
            "sim_seconds": sim_f,
            "values_equal": bool(np.array_equal(v_u, v_f)),
        }
        entries.append(entry)
        print(
            f"fusio {name:13s} p={p} rounds {rounds_u}->{rounds_f}  "
            f"sim {sim_u:.4f}->{sim_f:.4f}s  "
            f"values-equal={entry['values_equal']}"
        )

    shp_n = round_up_to_grid(32 if quick else 64, 4)
    dist = random_distance_matrix(shp_n, density=0.25, seed=seed)
    _driver("table1_shpaths", lambda ctx: shpaths(ctx, dist))

    g_n = 32 if quick else 64
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((g_n, g_n)) + g_n * np.eye(g_n)
    rhs = rng.standard_normal(g_n)
    _driver("table2_gauss", lambda ctx: gauss_full(ctx, a_mat, rhs))
    return entries


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
def _run_pair(
    make_run: Callable[[], Callable[[], float]], repeat: int, available: bool
) -> dict:
    """Time a measurement under both execution modes.

    *make_run* is called once per mode **after** the fusion default is
    set; it performs any untimed setup and returns the closure that is
    actually timed (micros separate the two, e2e drivers time
    everything).  Checks sim-time identity between the modes.
    """
    _set_fusion(False)
    unfused_s, sim_unfused = _time_best(make_run(), repeat)
    _set_fusion(True)
    fused_s, sim_fused = _time_best(make_run(), repeat)
    entry = {
        "fused_s": round(fused_s, 6),
        "unfused_s": round(unfused_s, 6),
        "speedup": round(unfused_s / fused_s, 3) if fused_s > 0 else None,
        "sim_seconds": sim_fused,
        "sim_identical": sim_fused == sim_unfused,
    }
    if not available:
        entry["sim_identical"] = True  # single path, trivially identical
    return entry


def _default_repeat(quick: bool, repeat: int | None) -> int:
    # best-of needs headroom: the micros run low-millisecond kernels
    # where scheduler noise easily doubles a single measurement
    return repeat if repeat is not None else (3 if quick else 7)


def run_micro_section(quick: bool, repeat: int | None, seed: int) -> list[dict]:
    """The fused-vs-per-rank microbenchmarks over :data:`MICRO_PS`."""
    available = _fusion_available()
    repeat = _default_repeat(quick, repeat)
    n, m = (128, 64) if quick else (512, 192)
    iters = 3 if quick else 5
    entries: list[dict] = []
    for name, fn in MICROBENCHES.items():
        for p in MICRO_PS:
            entry = _run_pair(
                lambda fn=fn, p=p: fn(p, n, m, iters, seed), repeat, available
            )
            entry.update({"name": name, "p": p, "n": n, "m": m, "iters": iters})
            entries.append(entry)
            print(
                f"micro {name:7s} p={p:<3d} fused {entry['fused_s']:.4f}s  "
                f"per-rank {entry['unfused_s']:.4f}s  "
                f"speedup {entry['speedup']}x  "
                f"sim-identical={entry['sim_identical']}"
            )
    return entries


def run_e2e_section(
    quick: bool,
    repeat: int | None,
    seed: int,
    eval_all_scale: float | None = None,
) -> list[dict]:
    """The end-to-end fused-vs-per-rank driver timings."""
    available = _fusion_available()
    repeat = _default_repeat(quick, repeat)
    entries: list[dict] = []
    shp_n, gauss_n = (32, 32) if quick else (128, 128)
    for name, fn in (
        ("table1_shpaths", lambda: _e2e_shpaths(16, shp_n, seed)),
        ("table2_gauss", lambda: _e2e_gauss(16, gauss_n, seed)),
    ):
        entry = _run_pair(lambda fn=fn: fn, max(1, repeat - 1), available)
        entry.update({"name": name, "p": 16, "n": shp_n if "shpaths" in name else gauss_n})
        entries.append(entry)
        print(
            f"e2e   {name:15s} fused {entry['fused_s']:.3f}s  "
            f"per-rank {entry['unfused_s']:.3f}s  "
            f"speedup {entry['speedup']}x  "
            f"sim-identical={entry['sim_identical']}"
        )
    if eval_all_scale is not None:
        entry = _run_pair(
            lambda: lambda: _e2e_eval_all(eval_all_scale), 1, available
        )
        entry.update({"name": "eval_all", "scale": eval_all_scale})
        entries.append(entry)
        print(
            f"e2e   eval_all scale={eval_all_scale} "
            f"fused {entry['fused_s']:.2f}s  "
            f"per-rank {entry['unfused_s']:.2f}s  "
            f"speedup {entry['speedup']}x  "
            f"sim-identical={entry['sim_identical']}"
        )
    return entries


def _print_obs(obs: dict) -> None:
    print(
        f"obs   {obs['name']:15s} off {obs['off_s']:.4f}s  "
        f"record {obs['record_overhead']}x  stream {obs['stream_overhead']}x  "
        f"sim-identical={obs['sim_identical']}"
    )


def _print_profile(profo: dict) -> None:
    print(
        f"prof  {profo['name']:15s} off {profo['off_s']:.4f}s  "
        f"profiled {profo['profiled_s']:.4f}s  "
        f"overhead {profo['overhead']}x  "
        f"sim-identical={profo['sim_identical']}"
    )


def run_bench(
    quick: bool = False,
    repeat: int | None = None,
    seed: int = 0,
    e2e: bool = True,
    eval_all_scale: float | None = None,
) -> dict:
    """Run the benchmark suite; returns the BENCH_perf.json document."""
    available = _fusion_available()
    if available:
        from repro.skeletons.fuse import fusion_default

        prior_default = fusion_default()
    repeat = _default_repeat(quick, repeat)

    report: dict = {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "fusion_available": available,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeat": repeat,
        "microbench": [],
        "end_to_end": [],
    }

    report["microbench"] = run_micro_section(quick, repeat, seed)
    report["scale"] = run_scale_bench(quick, seed)

    obs = run_obs_overhead(quick, repeat, seed)
    report["obs_overhead"] = obs
    _print_obs(obs)

    profo = run_profile_overhead(quick, repeat, seed)
    report["profile_overhead"] = profo
    _print_profile(profo)

    report["fusion"] = run_fusion_bench(quick, repeat, seed)

    if e2e:
        report["end_to_end"] = run_e2e_section(
            quick, repeat, seed, eval_all_scale
        )

    if available:
        _set_fusion(prior_default)
    return report


def validate_schema(doc: dict, partial: bool = False) -> list[str]:
    """Structural validation of a BENCH_perf.json document.

    *partial* relaxes the non-empty-microbench requirement — a
    ``--section`` run regenerating one section into a fresh file
    legitimately carries empty lists for the sections it did not run.
    """
    problems = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    for section in ("microbench", "end_to_end"):
        entries = doc.get(section)
        if not isinstance(entries, list):
            problems.append(f"{section} is not a list")
            continue
        for i, e in enumerate(entries):
            for key in ("name", "fused_s", "unfused_s", "speedup", "sim_identical"):
                if key not in e:
                    problems.append(f"{section}[{i}] missing {key!r}")
    if not doc.get("microbench") and not partial:
        problems.append("no microbenchmark entries")
    # the fusion section arrived with compiler-level skeleton fusion;
    # tolerate committed baselines written before it existed
    fus = doc.get("fusion")
    if fus is not None:
        if not isinstance(fus, list):
            problems.append("fusion is not a list")
        else:
            for i, e in enumerate(fus):
                for key in ("name", "p", "rounds_unfused", "rounds_fused",
                            "sim_unfused", "sim_fused", "values_equal"):
                    if key not in e:
                        problems.append(f"fusion[{i}] missing {key!r}")
    # the scale section arrived with the closed-form collective tier;
    # tolerate committed baselines written before it existed
    scale = doc.get("scale")
    if scale is not None:
        if not isinstance(scale, list):
            problems.append("scale is not a list")
        else:
            for i, e in enumerate(scale):
                for key in ("name", "p", "wall_s", "sim_seconds", "messages"):
                    if key not in e:
                        problems.append(f"scale[{i}] missing {key!r}")
    # the obs_overhead section arrived with the streaming layer; tolerate
    # committed baselines written before it existed
    obs = doc.get("obs_overhead")
    if obs is not None:
        for key in ("name", "off_s", "record_s", "stream_s",
                    "stream_overhead", "sim_identical"):
            if key not in obs:
                problems.append(f"obs_overhead missing {key!r}")
    # the profile_overhead section arrived with the wall profiler;
    # tolerate committed baselines written before it existed
    profo = doc.get("profile_overhead")
    if profo is not None:
        for key in ("name", "off_s", "profiled_s", "overhead",
                    "sim_identical"):
            if key not in profo:
                problems.append(f"profile_overhead missing {key!r}")
    # the backend section is optional: present only when the harness ran
    # with --backend threads
    back = doc.get("backend")
    if back is not None:
        for key in ("backend", "cores", "entries"):
            if key not in back:
                problems.append(f"backend missing {key!r}")
        for i, e in enumerate(back.get("entries", [])):
            for key in ("name", "p", "workers", "sim_s", "wall_s",
                        "speedup_vs_sim", "sim_identical"):
                if key not in e:
                    problems.append(f"backend.entries[{i}] missing {key!r}")
    return problems


def check_regressions(current: dict, committed: dict) -> list[str]:
    """Compare the fused map/fold microbenchmark speedups against a
    committed baseline; returns failure messages (empty = OK)."""
    failures = []
    committed_by_key = {
        (e["name"], e["p"]): e for e in committed.get("microbench", [])
    }
    for e in current.get("microbench", []):
        if e["name"] not in GATED_MICROS:
            continue
        gated_ps = GATED_MICROS[e["name"]]
        if gated_ps is not None and e["p"] not in gated_ps:
            continue
        ref = committed_by_key.get((e["name"], e["p"]))
        if ref is None or not ref.get("speedup") or not e.get("speedup"):
            continue
        floor = REGRESSION_FLOOR * float(ref["speedup"])
        if float(e["speedup"]) < floor:
            failures.append(
                f"micro {e['name']} p={e['p']}: fused speedup "
                f"{e['speedup']}x regressed below {floor:.2f}x "
                f"(committed baseline {ref['speedup']}x, tolerance 25%)"
            )
    for e in current.get("microbench", []) + current.get("end_to_end", []):
        if not e.get("sim_identical", True):
            failures.append(
                f"{e['name']}: simulated seconds differ between fused and "
                "per-rank execution"
            )
    return failures


def run_section(
    section: str,
    quick: bool,
    repeat: int | None,
    seed: int,
    backend: str | None = None,
    eval_all_scale: float | None = None,
):
    """Run one named section; returns its value for the report key."""
    if section == "microbench":
        return run_micro_section(quick, repeat, seed)
    if section == "end_to_end":
        return run_e2e_section(quick, repeat, seed, eval_all_scale)
    if section == "scale":
        return run_scale_bench(quick, seed)
    if section == "obs_overhead":
        obs = run_obs_overhead(quick, _default_repeat(quick, repeat), seed)
        _print_obs(obs)
        return obs
    if section == "profile_overhead":
        profo = run_profile_overhead(
            quick, _default_repeat(quick, repeat), seed
        )
        _print_profile(profo)
        return profo
    if section == "fusion":
        return run_fusion_bench(quick, repeat, seed)
    if section == "backend":
        return run_backend_bench(backend, quick=quick, repeat=repeat, seed=seed)
    raise ValueError(f"unknown bench section {section!r}")


def main(argv: list[str] | None = None) -> int:
    from repro.errors import UsageError
    from repro.eval.cliopts import (
        apply_backend,
        apply_fusion,
        obs_parent,
        representative_obs_run,
        validate_fusion_flags,
        validate_profile_flags,
    )

    ap = argparse.ArgumentParser(
        prog="python -m repro.eval bench",
        description="Wall-clock benchmarks of the skeleton hot paths "
        "(fused vs per-rank execution).",
        parents=[obs_parent()],
    )
    ap.add_argument("--quick", action="store_true",
                    help="small sizes / few repeats (CI smoke)")
    ap.add_argument("--repeat", type=int, default=None,
                    help="timing repeats per measurement (best-of)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_perf.json",
                    help="output JSON path (default: BENCH_perf.json)")
    ap.add_argument("--no-e2e", action="store_true",
                    help="microbenchmarks only")
    ap.add_argument("--eval-all-scale", type=float, default=None,
                    metavar="S",
                    help="also time the full eval driver set at scale S "
                    "(slow; used for the committed perf record)")
    ap.add_argument("--check-against", metavar="FILE", default=None,
                    help="fail if fused map/fold speedups regressed >25%% "
                    "against this committed BENCH_perf.json")
    ap.add_argument("--section", choices=BENCH_SECTION_NAMES, default=None,
                    metavar="NAME",
                    help="run only this section and merge it into --out, "
                    "leaving every other section of an existing report "
                    "untouched (choices: %(choices)s)")
    args = ap.parse_args(argv)
    try:
        # bench drives backends itself, so only --workers applies here
        validate_profile_flags(args)
        validate_fusion_flags(args)
        if args.section == "backend" and args.backend != "threads":
            raise UsageError(
                "--section backend needs --backend threads (the one real "
                "backend there is to time)"
            )
        apply_backend(None, args.workers)
        apply_fusion(args.fusion, args.fused)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.section is not None:
        # regenerate one section, keep the rest of an existing report
        report = {
            "schema": BENCH_SCHEMA,
            "quick": args.quick,
            "fusion_available": _fusion_available(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "repeat": _default_repeat(args.quick, args.repeat),
            "microbench": [],
            "end_to_end": [],
        }
        if os.path.exists(args.out):
            with open(args.out) as fh:
                report.update(json.load(fh))
        report[args.section] = run_section(
            args.section,
            quick=args.quick,
            repeat=args.repeat,
            seed=args.seed,
            backend=args.backend,
            eval_all_scale=args.eval_all_scale,
        )
    else:
        report = run_bench(
            quick=args.quick,
            repeat=args.repeat,
            seed=args.seed,
            e2e=not args.no_e2e,
            eval_all_scale=args.eval_all_scale,
        )
        if args.backend == "threads":
            report["backend"] = run_backend_bench(
                args.backend, quick=args.quick, repeat=args.repeat,
                seed=args.seed
            )
        elif args.backend == "sim":
            print("--backend sim is the baseline; no backend section recorded")
    problems = validate_schema(report, partial=args.section is not None)
    if problems:
        for pb in problems:
            print(f"SCHEMA PROBLEM: {pb}", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not args.quiet:
        print(f"wrote {args.out}")

    footer = representative_obs_run(
        args.trace, args.metrics_out,
        profile=args.profile, profile_path=args.profile_out,
    )
    if footer and not args.quiet:
        print("\n".join(footer))

    failures = []
    for e in report["microbench"] + report["end_to_end"]:
        if not e.get("sim_identical", True):
            failures.append(
                f"{e['name']}: simulated seconds differ between paths"
            )
    obs = report.get("obs_overhead")
    if obs is not None:
        if not obs["sim_identical"]:
            failures.append(
                f"{obs['name']}: simulated seconds differ across trace "
                "modes (tracing must not perturb the simulation)"
            )
        overhead = obs.get("stream_overhead")
        if overhead is not None and overhead > OBS_OVERHEAD_LIMIT:
            failures.append(
                f"{obs['name']}: stream-mode overhead {overhead}x exceeds "
                f"the {OBS_OVERHEAD_LIMIT}x ceiling vs trace-off"
            )
    profo = report.get("profile_overhead")
    if profo is not None:
        if not profo["sim_identical"]:
            failures.append(
                f"{profo['name']}: simulated seconds differ with the wall "
                "profiler attached (profiling must not perturb the "
                "simulation)"
            )
        overhead = profo.get("overhead")
        if overhead is not None and overhead > PROFILE_OVERHEAD_LIMIT:
            failures.append(
                f"{profo['name']}: profiled wall {overhead}x exceeds the "
                f"{PROFILE_OVERHEAD_LIMIT}x ceiling vs the unprofiled run"
            )
    fus = report.get("fusion")
    if fus is not None:
        for e in fus:
            where = f"fusion {e['name']} p={e.get('p', '?')}"
            if not e.get("values_equal", True):
                failures.append(
                    f"{where}: fused values differ from unfused "
                    "(fusion must be value-preserving)"
                )
            su, sf = e.get("sim_unfused"), e.get("sim_fused")
            if su is not None and sf is not None and sf > su:
                failures.append(
                    f"{where}: fused simulated seconds {sf:.6g} exceed "
                    f"unfused {su:.6g} (fusion made the schedule slower)"
                )
            if (
                e.get("name") == "map_map"
                and e.get("rounds_ratio") is not None
                and e["rounds_ratio"] < FUSION_ROUNDS_FLOOR
            ):
                failures.append(
                    f"{where}: rounds ratio {e['rounds_ratio']}x is below "
                    f"the {FUSION_ROUNDS_FLOOR}x floor "
                    f"({e['rounds_unfused']} -> {e['rounds_fused']} rounds)"
                )
    back = report.get("backend")
    if back is not None:
        for e in back["entries"]:
            if not e.get("sim_identical", True):
                failures.append(
                    f"backend {back['backend']} {e['name']} p={e['p']}: "
                    "simulated seconds differ from the sim backend "
                    "(backends must never touch the cost model)"
                )
    if args.check_against is not None:
        with open(args.check_against) as fh:
            committed = json.load(fh)
        problems = validate_schema(committed)
        for pb in problems:
            failures.append(f"committed baseline schema: {pb}")
        if not problems:
            failures.extend(check_regressions(report, committed))
    for f in failures:
        print(f"BENCH FAILURE: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
