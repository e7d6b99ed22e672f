"""Backend-equivalence pillar tests (pillar 7, ``repro.check backend``).

Direct assertions that ``sim`` and ``threads`` produce bitwise identical
pool contents, simulated clocks, ``TraceStats`` and metrics, plus a
budgeted run of the pillar's own trial families.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.check.backendcheck import (
    BACKENDS_CHECKED,
    _stats_tuple,
    run_backend,
    run_backend_raw,
)
from repro.errors import BackendError
from repro.machine.machine import Machine
from repro.obs.metrics import isolated_metrics
from repro.skeletons import MIN, PLUS, SkilContext
from repro.skeletons.functional import skil_fn


def _collect(p, backend, workload, workers=2):
    m = Machine(p, trace_level=1, backend=backend, workers=workers)
    try:
        with isolated_metrics():
            arrays, scalars = workload(SkilContext(m))
            views = [a.global_view() for a in arrays]
        return (
            views,
            scalars,
            m.network.clocks.copy(),
            _stats_tuple(m.stats),
            m.metrics.render_text(),
        )
    finally:
        m.close()


def _assert_equivalent(p, workload, workers=2):
    ref = _collect(p, "sim", workload)
    for backend in BACKENDS_CHECKED[1:]:
        got = _collect(p, backend, workload, workers)
        for k, (ea, ga) in enumerate(zip(ref[0], got[0])):
            assert np.array_equal(ea, ga), f"{backend} p={p}: array {k} differs"
        assert ref[1] == got[1], f"{backend} p={p}: scalar results differ"
        assert np.array_equal(ref[2], got[2]), (
            f"{backend} p={p}: simulated clocks differ"
        )
        assert ref[3] == got[3], f"{backend} p={p}: TraceStats differ"
        assert ref[4] == got[4], f"{backend} p={p}: metrics differ"


@pytest.mark.parametrize("p,per_rank,workers", [
    (4, 6, 2),
    (16, 6, 2),
    (4, 6, 3),  # 4 partitions on 3 workers: slabs of 2 + 1 + 1
    (16, 6.5, 3),  # 104 rows on 16 ranks: partitions of 7 and 6 rows
], ids=["4", "16", "4-workers3", "16-uneven-workers3"])
def test_skeleton_workload_bitwise_identical(p, per_rank, workers):
    """create → map → zip → scan → fold, all float, compared bitwise."""
    n = int(p * per_rank)
    init = skil_fn(
        ops=2, vectorized=lambda g, e: (g[0] * 7 + 1).astype(np.float64)
    )(lambda i: float(i[0] * 7 + 1))
    tri = skil_fn(
        ops=3, vectorized=lambda b, g, e: np.where(b > 40.0, b * 0.5, b + g[0])
    )(lambda x, i: x * 0.5 if x > 40.0 else x + i[0])
    mix = skil_fn(ops=1, vectorized=lambda x, y, g, e: x * 3.0 + y)(
        lambda x, y, i: x * 3.0 + y
    )
    ident = skil_fn(ops=0, vectorized=lambda b, g, e: b)(lambda x, i: x)

    def workload(ctx: SkilContext):
        a = ctx.array_create(1, (n,), (0,), (-1,), init)
        b = ctx.array_create(1, (n,), (0,), (-1,), init)
        ctx.array_map(tri, a, b)
        ctx.array_zip(mix, a, b, b)
        ctx.array_scan(PLUS, b, a)
        s1 = ctx.array_fold(ident, PLUS, a)
        s2 = ctx.array_fold(ident, MIN, b)
        return [a, b], [s1, s2]

    _assert_equivalent(p, workload, workers)


@pytest.mark.parametrize("p", [4, 16])
def test_gauss_bitwise_identical(p):
    def workload(ctx: SkilContext):
        from repro.apps.gauss import gauss_simple, random_system

        a_mat, rhs = random_system(2 * p, seed=42)
        x, _report = gauss_simple(ctx, a_mat, rhs)
        return [], [np.asarray(x).tobytes()]

    _assert_equivalent(p, workload)


@pytest.mark.parametrize("p", [4, 16])
def test_shortest_paths_bitwise_identical(p):
    def workload(ctx: SkilContext):
        from repro.apps.shortest_paths import random_distance_matrix, shpaths

        side = int(round(p**0.5))
        d, _report = shpaths(
            ctx, random_distance_matrix(2 * side, density=0.4, seed=7)
        )
        return [], [np.asarray(d).tobytes()]

    _assert_equivalent(p, workload)


def test_env_reading_kernel_falls_back_identically():
    """A rank-dependent kernel must take the sequential loop under every
    backend — and still agree bitwise (including the env.rank values)."""
    init = skil_fn(ops=1, vectorized=lambda g, e: g[0] * 1.0)(
        lambda i: float(i[0])
    )

    def _rank_vec(b, g, e):
        return b + e.rank  # reads the per-rank env

    shift = skil_fn(ops=1, vectorized=_rank_vec)(lambda x, i: x)

    def workload(ctx: SkilContext):
        a = ctx.array_create(1, (16,), (0,), (-1,), init)
        b = ctx.array_create(1, (16,), (0,), (-1,), init)
        ctx.array_map(shift, a, b)
        return [a, b], []

    _assert_equivalent(4, workload)


def _select_by_argument(name):
    Machine(4, backend=name)


def _select_by_env(name):
    # REPRO_BACKEND is read when repro.machine.backend is imported, so
    # only a fresh interpreter sees it the way a user's shell sets it
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.machine import Machine; Machine(4)"],
        env={**os.environ, "REPRO_BACKEND": name, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    kind, _, message = proc.stderr.strip().splitlines()[-1].partition(": ")
    assert kind == "repro.errors.BackendError", proc.stderr
    raise BackendError(message)


def _select_by_flag(name):
    from repro.eval.__main__ import _build_parser

    _build_parser().parse_args(["table1", "--backend", name])


@pytest.mark.parametrize("backend", ["sim", "threads"])
@pytest.mark.parametrize("bad", [0, -1, 2.5, "2", True])
def test_bad_worker_count_rejected_on_every_backend(backend, bad):
    """One check for both backends, the same type as a bad REPRO_WORKERS
    (``tests/eval/test_cliopts.py``), naming the value as it was given."""
    with pytest.raises(BackendError, match="not a positive worker count") as exc:
        Machine(4, backend=backend, workers=bad)
    assert f"workers={bad!r}" in str(exc.value)


def test_unknown_backend_rejected():
    with pytest.raises(BackendError, match="unknown backend 'gpu'"):
        Machine(4, backend="gpu")


@pytest.mark.parametrize(
    "select", [_select_by_argument, _select_by_env, _select_by_flag]
)
def test_removed_mp_backend_rejected_at_selection(select):
    """The pruned backend is not "unknown": wherever it is asked for,
    the error says it was removed and names the one to use instead."""
    with pytest.raises(BackendError, match="removed.*use 'threads'"):
        select("mp")


def test_backend_flag_error_is_a_clean_exit(capsys):
    from repro.eval.__main__ import main

    assert main(["table1", "--backend", "mp"]) == 2
    err = capsys.readouterr().err
    assert "backend 'mp' was removed" in err and "threads" in err
    assert "Traceback" not in err


def test_pillar_budget_clean():
    """A slice of the pillar's own trials (all three families)."""
    res = run_backend(seed=3, budget=9)
    assert res.trials == 9
    assert res.failures == [], "\n".join(f.detail for f in res.failures)
    assert any(k.startswith("backend.") for k in res.coverage)


def test_pillar_raw_replay_runs():
    res = run_backend_raw(seed=3 * 1_000_003, budget=1)
    assert res.trials == 1
    assert res.failures == []


def test_pillar_dispatches_at_its_default_seed():
    """The skeleton trials of ``backend --seed 0 --budget 200`` (every
    third trial seed) include calls big enough to dispatch on
    ``threads``: the pillar keeps the dispatch path covered."""
    from repro.check.backendcheck import _RUNNER, trial_backend_skeletons

    assert _RUNNER.families.index(trial_backend_skeletons) == 0
    dispatched = 0
    for trial_seed in range(0, 200, len(_RUNNER.families)):
        res = run_backend_raw(seed=trial_seed, budget=1)
        assert res.failures == [], res.failures[0].detail
        dispatched += res.coverage["backend.dispatched"]
    assert dispatched > 0
