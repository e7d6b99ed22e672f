"""Fused-vs-per-rank equivalence properties.

The fused whole-array fast path (:mod:`repro.skeletons.fuse`) is an
implementation detail: for every skeleton call it must produce

* bit-identical array contents,
* bit-identical per-processor simulated clocks (the per-rank cost
  vectors are computed from the same geometry with the same arithmetic),
* identical trace spans (names, nesting, times, per-span stats)

as the per-rank loop.  These tests run the same scenario twice — once
with ``fused=True``, once with ``fused=False`` — and compare all three.
"""

import numpy as np
import pytest

from repro.apps.gauss import gauss_full, gauss_simple, random_system
from repro.arrays.darray import DistArray
from repro.machine.costmodel import DPFL, SKIL
from repro.machine.machine import Machine
from repro.skeletons import PLUS, SkilContext, papply, skil_fn


@skil_fn(ops=2, vectorized=lambda block, grids, env: block * 2.0 + grids[0])
def double_plus_row(v, ix):
    return v * 2.0 + ix[0]


@skil_fn(ops=1, vectorized=lambda a, b, grids, env: a - b + grids[1])
def sub_plus_col(x, y, ix):
    return x - y + ix[1]


@skil_fn(ops=1, vectorized=lambda block, grids, env: np.abs(block))
def absval(v, ix):
    return abs(v)


def _rankful_vec(block, grids, env):
    # reads the per-rank env: must fall back to the per-rank loop
    return block + env.rank


@skil_fn(ops=1, vectorized=_rankful_vec)
def rankful(v, ix):
    from repro.skeletons.base import current_context

    return v + current_context().proc_id()


def _data(shape, seed):
    return np.random.default_rng(seed).uniform(-10.0, 10.0, size=shape)


def _run_both(scenario, p, profile=SKIL):
    """Run *scenario(ctx)* under both execution modes; return the pairs."""
    out = {}
    for fused in (False, True):
        machine = Machine(p, trace_level=2)
        ctx = SkilContext(machine, profile, fused=fused)
        result = scenario(ctx)
        out[fused] = (result, machine)
    return out[True], out[False]


def _span_tuple(s):
    return (
        s.name,
        s.category,
        s.parent,
        s.depth,
        s.begin_time,
        s.end_time,
        s.compute_seconds,
        s.comm_seconds,
        s.idle_seconds,
        s.messages,
        s.bytes_sent,
    )


def assert_equivalent(scenario, p, profile=SKIL):
    (res_f, m_f), (res_u, m_u) = _run_both(scenario, p, profile)
    # contents bit-identical
    assert len(res_f) == len(res_u)
    for a, b in zip(res_f, res_u):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    # per-processor clocks bit-identical (not just the makespan)
    assert np.array_equal(m_f.network.clocks, m_u.network.clocks)
    # trace spans identical
    spans_f = [_span_tuple(s) for s in m_f.tracer.spans]
    spans_u = [_span_tuple(s) for s in m_u.tracer.spans]
    assert spans_f == spans_u


@pytest.mark.parametrize("p", [1, 4, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_map_equivalence(p, seed):
    def scenario(ctx):
        src = DistArray.from_global(ctx.machine, _data((16, 12), seed))
        dst = DistArray.from_global(ctx.machine, np.zeros((16, 12)))
        ctx.array_map(double_plus_row, src, dst)
        ctx.array_map(absval, dst, dst)  # in-situ
        return [src.global_view(), dst.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
@pytest.mark.parametrize("seed", [0, 3])
def test_zip_equivalence(p, seed):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _data((16, 12), seed))
        b = DistArray.from_global(ctx.machine, _data((16, 12), seed + 100))
        dst = DistArray.from_global(ctx.machine, np.zeros((16, 12)))
        ctx.array_zip(sub_plus_col, a, b, dst)
        return [dst.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
@pytest.mark.parametrize("seed", [0, 5])
def test_fold_equivalence(p, seed):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _data((16, 12), seed))
        total = ctx.array_fold(absval, PLUS, a)
        return [np.asarray(total)]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
def test_create_and_copy_equivalence(p):
    init = skil_fn(ops=1, vectorized=lambda grids, env: grids[0] * 100.0 + grids[1])(
        lambda ix: ix[0] * 100.0 + ix[1]
    )

    def scenario(ctx):
        a = ctx.array_create(2, (16, 12), (0, 0), (-1, -1), init)
        b = ctx.array_create(
            2, (16, 12), (0, 0), (-1, -1),
            skil_fn(ops=1, vectorized=lambda grids, env: np.zeros(1))(lambda ix: 0.0),
        )
        ctx.array_copy(a, b)
        return [a.global_view(), b.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
def test_rank_dependent_kernel_falls_back(p):
    """A kernel that reads ``env.rank`` must give rank-dependent results
    — identical under both modes because the fused path refuses it."""

    def scenario(ctx):
        src = DistArray.from_global(ctx.machine, _data((16, 12), 7))
        dst = DistArray.from_global(ctx.machine, np.zeros((16, 12)))
        ctx.array_map(rankful, src, dst)
        return [dst.global_view()]

    assert_equivalent(scenario, p)
    # refused up front: skil_fn judged the kernel from its code
    assert rankful.vectorized.env_free is False


@pytest.mark.parametrize("p", [4, 16])
def test_map_equivalence_under_dpfl(p):
    """copy_on_update profiles charge the extra copy traffic in both
    modes identically."""

    def scenario(ctx):
        src = DistArray.from_global(ctx.machine, _data((16, 12), 2))
        dst = DistArray.from_global(ctx.machine, np.zeros((16, 12)))
        ctx.array_map(double_plus_row, src, dst)
        return [dst.global_view()]

    assert_equivalent(scenario, p, profile=DPFL)


@pytest.mark.parametrize("driver", [gauss_simple, gauss_full])
@pytest.mark.parametrize("p,n", [(4, 16), (8, 32)])
def test_gauss_equivalence(driver, p, n):
    """The grid-indexed gauss kernels give the same solution, clocks and
    spans over slabs of row blocks as over one rank's block each."""
    a_mat, rhs = random_system(n, seed=4)

    def scenario(ctx):
        x, report = driver(ctx, a_mat, rhs)
        return [x, np.float64(report.seconds)]

    assert_equivalent(scenario, p)
