"""Backend-equivalence conformance (the ``backend`` pillar).

``Machine(p, backend=...)`` promises that the execution backend changes
only *wall-clock*: the analytic network is the single cost oracle, so
simulated seconds, pool contents, :class:`~repro.machine.trace.TraceStats`
and metrics must be **bitwise identical** under ``sim`` and ``threads``.
Every trial runs one workload once per backend on otherwise identical
machines and compares:

* every result array's ``global_view()`` with ``np.array_equal`` (no
  tolerance — a slab dispatched to a worker sees the same elements,
  index values and element arithmetic, so even floats match bitwise),
* scalar results with ``==`` after ``repr`` round-trip guarding NaN,
* every per-rank clock bitwise,
* the stats counters exactly and the stats floats bitwise,
* the metrics registries via their rendered exposition text.

Three trial families interleave:

1. **compiled programs** — the fuzz pillar's generated Skil programs
   (``generate_spec``/``render`` → ``compile_skil``), so every kernel
   class the instantiation pipeline can emit is dispatched in slabs;
2. **skeleton workloads** — randomly composed create/map/zip/fold/scan/
   copy sequences over hand-built closure kernels at p ∈ {4, 16},
   including env-*reading* kernels (which must fall back to the
   sequential loop identically on every backend) and scalar-only
   kernels;
3. **applications** — Gaussian elimination and shortest paths at
   p ∈ {4, 16}.

Every trial runs each backend once at ``trace_level=1``, where every
span and every dispatch takes wall stamps: they read wall clocks only
and must never perturb the cost model on any backend.  The worker count
(2 or 3) and up to two extra rows on axis 0 are drawn last, so no older
draw moved.

Worker threads are reused across a trial's skeleton calls but never
across machines (each machine is closed before the next one starts), so
a trial also exercises pool teardown.
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
from repro.obs.metrics import isolated_metrics
from repro.skeletons import MAX, MIN, PLUS, SkilContext
from repro.skeletons.functional import skil_fn

__all__ = ["run_backend", "run_backend_raw", "BACKENDS_CHECKED"]

#: the backends every trial compares; ``sim`` is the reference
BACKENDS_CHECKED = ("sim", "threads")


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
        stats.skeleton_calls,
    )


class _Run:
    """What one backend's execution of a trial produced."""

    def __init__(self, machine: Machine, arrays: list[np.ndarray], scalars: list):
        self.clocks = machine.network.clocks.copy()
        self.stats = _stats_tuple(machine.stats)
        self.metrics = (
            machine.metrics.render_text() if machine.metrics is not None else ""
        )
        self.arrays = arrays
        self.scalars = scalars


def _compare_runs(ref: _Run, got: _Run, backend: str, label: str) -> str | None:
    """``sim`` reference vs another backend, bitwise."""
    if not np.array_equal(ref.clocks, got.clocks):
        i = int(np.argmax(ref.clocks != got.clocks))
        return (
            f"clock mismatch ({label}): rank {i} sim={float(ref.clocks[i])!r} "
            f"{backend}={float(got.clocks[i])!r}"
        )
    if ref.stats != got.stats:
        return (
            f"stats mismatch ({label}): sim={ref.stats} {backend}={got.stats}"
        )
    if len(ref.arrays) != len(got.arrays):
        return (
            f"result arity mismatch ({label}): sim produced "
            f"{len(ref.arrays)} arrays, {backend} {len(got.arrays)}"
        )
    for k, (ea, ga) in enumerate(zip(ref.arrays, got.arrays)):
        if not np.array_equal(ea, ga):
            bad = np.argwhere(ea != ga)[:3]
            return (
                f"array {k} contents differ ({label}) at {bad.tolist()}: "
                f"sim={ea[tuple(bad[0])]!r} {backend}={ga[tuple(bad[0])]!r}"
            )
    for k, (es, gs) in enumerate(zip(ref.scalars, got.scalars)):
        if not (es == gs or repr(es) == repr(gs)):  # NaN-safe
            return (
                f"scalar {k} differs ({label}): sim={es!r} {backend}={gs!r}"
            )
    if ref.metrics != got.metrics:
        return f"metrics exposition mismatch ({label})"
    return None


def _run_everywhere(workload, p: int, label: str, workers: int) -> str | None:
    """Run *workload(ctx)* once per backend; compare each run bitwise to
    the ``sim`` reference.

    *workload* returns ``(arrays, scalars)`` — DistArrays still alive
    (their ``global_view`` is compared) and scalar results.
    """
    runs: dict[str, _Run] = {}
    for backend in BACKENDS_CHECKED:
        machine = Machine(p, trace_level=1, backend=backend, workers=workers)
        try:
            with isolated_metrics():
                arrays, scalars = workload(SkilContext(machine))
                views = [a.global_view() for a in arrays]
            runs[backend] = _Run(machine, views, scalars)
        finally:
            machine.close()
    for backend, run in runs.items():
        if backend == "sim":
            continue
        msg = _compare_runs(runs["sim"], run, backend, label)
        if msg is not None:
            return msg
    return None


# ---------------------------------------------------------------------------
# trial family 1: compiled Skil programs
# ---------------------------------------------------------------------------
def trial_backend_program(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A fuzzer-generated Skil program, compiled and run per backend."""
    from repro.check.fuzz import generate_spec, render
    from repro.lang.compiler import compile_skil

    spec_seed = rng.randrange(2**31)
    # fuzz specs deliberately use small shapes (the interpreter oracle is
    # per-element); they fit p<=4 only — the other families cover p=16
    p = rng.choice([2, 4, 4])
    spec = generate_spec(spec_seed)
    src = render(spec)
    workers = rng.choice([2, 3])
    cov = {"backend.program": 1, f"backend.p{p}": 1, f"backend.workers{workers}": 1}

    def workload(ctx: SkilContext):
        mod = compile_skil(src)
        out = mod.run("entry", ctx=ctx)
        if hasattr(out, "global_view"):
            return [out], []
        return [], [out]

    label = f"program spec_seed={spec_seed} p={p} elem={spec.elem} workers={workers}"
    return _run_everywhere(workload, p, label, workers), cov


# ---------------------------------------------------------------------------
# trial family 2: random skeleton workloads
# ---------------------------------------------------------------------------
def _random_kernels(rng: random.Random):
    """Init/map/zip kernel triple with random closure constants.

    The constants live in lambda *defaults* — the shape
    :func:`~repro.lang.runtime.make_kernel` produces.  One of four map
    kernels *reads the env* (rank-dependent): those must fall back to the
    per-rank loop identically on every backend.
    """
    c1 = float(rng.randint(1, 9))
    c2 = float(rng.randint(1, 9))

    init = skil_fn(
        ops=2, vectorized=lambda g, e, _a=c1: (g[0] * _a + g[-1]).astype(float)
    )(lambda i, _a=c1: float(i[0] * _a + i[-1]))

    style = rng.randrange(4)
    if style == 0:  # plain elementwise
        map_f = skil_fn(ops=2, vectorized=lambda b, g, e, _k=c2: b * _k + g[0])(
            lambda x, i, _k=c2: x * _k + i[0]
        )
    elif style == 1:  # nonlinear, still env-free
        map_f = skil_fn(
            ops=3,
            vectorized=lambda b, g, e, _k=c2: np.where(b > _k, b - _k, b + g[-1]),
        )(lambda x, i, _k=c2: x - _k if x > _k else x + i[-1])
    elif style == 2:  # scalar-only: no vectorized kernel at all
        map_f = skil_fn(ops=2)(lambda x, i, _k=c2: x * _k + 1.0)
    else:  # env-reading: every backend must take the sequential loop
        def _env_vec(b, g, e, _k=c2):
            return b * _k + e.rank

        map_f = skil_fn(ops=2, vectorized=_env_vec)(lambda x, i, _k=c2: x * _k)

    zip_f = skil_fn(ops=1, vectorized=lambda x, y, g, e, _k=c1: x * _k + y)(
        lambda x, y, i, _k=c1: x * _k + y
    )
    conv = skil_fn(ops=1, vectorized=lambda b, g, e, _k=c2: b + _k)(
        lambda x, i, _k=c2: x + _k
    )
    return init, map_f, zip_f, conv, style


def trial_backend_skeletons(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """A random create/map/zip/fold/scan/copy sequence per backend."""
    p = rng.choice([4, 4, 16])
    dim = rng.choice([1, 1, 2])
    if dim == 1:
        shape = (p * rng.randint(2, 5),)
        distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    else:
        # second dim a multiple of 4 so the p=16 torus grid (4x4) fits
        shape = (p * rng.randint(1, 3), 4 * rng.randint(1, 2))
        distr = rng.choice([DISTR_DEFAULT, DISTR_TORUS2D])
    init, map_f, zip_f, conv, style = _random_kernels(rng)
    ops = [rng.choice(["map", "map", "zip", "fold", "copy", "scan"])
           for _ in range(rng.randint(2, 6))]
    section = rng.choice([PLUS, MIN, MAX])
    workers = rng.choice([2, 3])
    shape = (shape[0] + rng.choice([0, 0, 1, 2]), *shape[1:])
    cov = {
        "backend.skeletons": 1,
        f"backend.p{p}": 1,
        f"backend.kernel_style{style}": 1,
        f"backend.workers{workers}": 1,
        "backend.uneven_slabs": int(shape[0] % workers != 0),
    }
    for op in ops:
        cov[f"backend.op_{op}"] = 1

    def workload(ctx: SkilContext):
        zeros = (0,) * dim
        negs = (-1,) * dim
        a = ctx.array_create(dim, shape, zeros, negs, init, distr)
        b = ctx.array_create(dim, shape, zeros, negs, init, distr)
        scalars = []
        for op in ops:
            if op == "map":
                ctx.array_map(map_f, a, b)
            elif op == "zip":
                ctx.array_zip(zip_f, a, b, b)
            elif op == "fold":
                scalars.append(ctx.array_fold(conv, section, a))
            elif op == "copy":
                ctx.array_copy(b, a)
            elif op == "scan" and dim == 1:
                ctx.array_scan(section, a, b)
        return [a, b], scalars

    label = f"skeletons p={p} shape={shape} distr={distr} ops={ops} workers={workers}"
    return _run_everywhere(workload, p, label, workers), cov


# ---------------------------------------------------------------------------
# trial family 3: applications
# ---------------------------------------------------------------------------
def trial_backend_app(rng: random.Random) -> tuple[str | None, dict[str, int]]:
    """Gaussian elimination / shortest paths, compared across backends."""
    app = rng.choice(["shpaths", "gauss"])
    p = rng.choice([4, 4, 16])
    seed = rng.randrange(2**31)
    cov = {f"backend.app_{app}": 1, f"backend.p{p}": 1}

    if app == "shpaths":
        n = int(round(p**0.5)) * rng.randint(1, 3)

        def workload(ctx: SkilContext):
            from repro.apps.shortest_paths import (
                random_distance_matrix,
                shpaths,
            )

            out, _report = shpaths(
                ctx, random_distance_matrix(n, density=0.3, seed=seed)
            )
            return [], [np.asarray(out).tobytes()]

    else:
        n = p * rng.randint(2, 3)

        def workload(ctx: SkilContext):
            from repro.apps.gauss import gauss_simple, random_system

            a_mat, rhs = random_system(n, seed=seed)
            out, _report = gauss_simple(ctx, a_mat, rhs)
            return [], [np.asarray(out).tobytes()]

    workers = rng.choice([2, 3])
    cov[f"backend.workers{workers}"] = 1
    label = f"{app} p={p} n={n} seed={seed} workers={workers}"
    return _run_everywhere(workload, p, label, workers), cov


# the default budget is lower than the other pillars' because every trial
# runs its workload once per backend, threads pool included
_RUNNER = TrialRunner(
    "backend",
    (trial_backend_skeletons, trial_backend_program, trial_backend_app),
    budget=30,
)
run_backend, run_backend_raw = _RUNNER.run, _RUNNER.run_raw
