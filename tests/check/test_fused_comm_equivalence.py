"""Fused-vs-per-rank equivalence for the communication skeletons.

The fused data-movement paths (pool gather for ``array_permute_rows``,
interleaved-view assignment for ``array_broadcast_part``, the
whole-matrix product of ``array_gen_mult``, the batched
local scans of ``array_scan``) are implementation details: contents,
per-rank clocks, trace spans and per-rank timelines must be
bit-identical to the per-rank loops.  Same scheme as
``test_fused_equivalence.py``, applied to the comm skeletons and run
both traced and untraced, async (SKIL) and rendezvous (PARIX_C_OLD).
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.machine.costmodel import PARIX_C_OLD, SKIL
from repro.machine.machine import DISTR_TORUS2D, Machine
from repro.skeletons import MIN, PLUS, TIMES, SkilContext
from repro.skeletons.comm import array_rotate_rows


def _run_both(scenario, p, profile=SKIL, trace_level=2):
    out = {}
    for fused in (False, True):
        machine = Machine(p, trace_level=trace_level)
        ctx = SkilContext(machine, profile, fused=fused)
        result = scenario(ctx)
        out[fused] = (result, machine)
    return out[True], out[False]


def assert_equivalent(scenario, p, profile=SKIL, trace_level=2):
    (res_f, m_f), (res_u, m_u) = _run_both(scenario, p, profile, trace_level)
    assert len(res_f) == len(res_u)
    for a, b in zip(res_f, res_u):
        np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    assert np.array_equal(m_f.network.clocks, m_u.network.clocks)
    s_f, s_u = m_f.stats, m_u.stats
    assert (s_f.messages, s_f.bytes_sent, s_f.hops_crossed) == (
        s_u.messages, s_u.bytes_sent, s_u.hops_crossed
    )
    assert s_f.comm_seconds == s_u.comm_seconds
    assert s_f.idle_seconds == s_u.idle_seconds
    assert s_f.compute_seconds == s_u.compute_seconds
    assert s_f.records == s_u.records
    if trace_level >= 1:
        spans_f = [(s.name, s.begin_time, s.end_time, s.messages,
                    s.bytes_sent, s.comm_seconds, s.idle_seconds)
                   for s in m_f.tracer.spans]
        spans_u = [(s.name, s.begin_time, s.end_time, s.messages,
                    s.bytes_sent, s.comm_seconds, s.idle_seconds)
                   for s in m_u.tracer.spans]
        assert spans_f == spans_u
    if trace_level >= 2:
        for r in range(p):
            assert m_f.timeline.for_rank(r) == m_u.timeline.for_rank(r)


def _matrix(n, seed):
    return np.random.default_rng(seed).uniform(-9.0, 9.0, size=(n, n))


@pytest.mark.parametrize("p", [2, 4, 16])
@pytest.mark.parametrize("profile", [SKIL, PARIX_C_OLD])
def test_broadcast_part_equivalence(p, profile):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 0))
        ctx.array_broadcast_part(a, (3 % 16, 5 % 16))
        return [a.global_view()]

    assert_equivalent(scenario, p, profile)


@pytest.mark.parametrize("p", [4, 16])
def test_broadcast_part_unequal_partitions_fall_back(p):
    """18 rows over a grid that does not divide evenly: no interleaved
    view exists, both modes take the per-rank loop (or both raise)."""

    def scenario(ctx):
        a = DistArray.from_global(
            ctx.machine,
            np.random.default_rng(1).uniform(size=(18, 16)),
        )
        try:
            ctx.array_broadcast_part(a, (0, 0))
        except SkeletonError as e:
            return [np.frombuffer(str(e).encode(), dtype=np.uint8)]
        return [a.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [2, 4, 16])
@pytest.mark.parametrize("shift", [1, 7, -3])
def test_rotate_rows_equivalence(p, shift):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 2))
        b = DistArray.from_global(ctx.machine, np.zeros((16, 16)))
        array_rotate_rows(ctx, a, shift, b)
        return [a.global_view(), b.global_view()]

    assert_equivalent(scenario, p, SKIL)


@pytest.mark.parametrize("p", [4, 16])
@pytest.mark.parametrize("profile", [SKIL, PARIX_C_OLD])
def test_permute_rows_scalar_function_equivalence(p, profile):
    """A plain Python perm function (no perm_vectorized) still fuses the
    data movement; evaluation stays row-by-row in both modes."""

    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 3))
        b = DistArray.from_global(ctx.machine, np.zeros((16, 16)))

        def bit_reverse(i):
            return int(f"{i:04b}"[::-1], 2)

        bit_reverse.ops = 4.0
        ctx.array_permute_rows(a, bit_reverse, b)
        return [b.global_view()]

    assert_equivalent(scenario, p, profile)


@pytest.mark.parametrize("p", [4, 16])
def test_permute_rows_vectorized_function_equivalence(p):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 4))
        b = DistArray.from_global(ctx.machine, np.zeros((16, 16)))

        def shuffle(i):
            return (5 * i + 3) % 16

        shuffle.ops = 2.0
        shuffle.perm_vectorized = lambda ix: (5 * ix + 3) % 16
        ctx.array_permute_rows(a, shuffle, b)
        return [b.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
def test_permute_rows_non_bijection_rejected_in_both_modes(p):
    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 5))
        b = DistArray.from_global(ctx.machine, np.zeros((16, 16)))

        def collapse(i):
            return 0

        collapse.ops = 1.0
        collapse.perm_vectorized = lambda ix: np.zeros_like(ix)
        with pytest.raises(SkeletonError, match="not a bijection"):
            ctx.array_permute_rows(a, collapse, b)
        return [b.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("profile", [SKIL, PARIX_C_OLD])
def test_scan_equivalence(p, profile):
    def scenario(ctx):
        v = DistArray.from_global(
            ctx.machine,
            np.random.default_rng(6).uniform(0.0, 4.0, size=64),
        )
        w = DistArray.from_global(ctx.machine, np.zeros(64))
        ctx.array_scan(PLUS, v, w)
        return [w.global_view()]

    assert_equivalent(scenario, p, profile)


@pytest.mark.parametrize("p", [4, 16])
def test_scan_integer_and_min_equivalence(p):
    def scenario(ctx):
        v = DistArray.from_global(
            ctx.machine,
            np.random.default_rng(7).integers(0, 100, size=64),
        )
        w = DistArray.from_global(ctx.machine, np.zeros(64, dtype=np.int64))
        ctx.array_scan(MIN, v, w)
        return [w.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [1, 4, 16])
@pytest.mark.parametrize("semiring", [(PLUS, TIMES), (MIN, PLUS)])
def test_gen_mult_equivalence(p, semiring):
    gen_add, gen_mult = semiring

    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 8), DISTR_TORUS2D)
        b = DistArray.from_global(ctx.machine, _matrix(16, 9), DISTR_TORUS2D)
        c = DistArray.from_global(
            ctx.machine, np.zeros((16, 16)), DISTR_TORUS2D
        )
        ctx.array_gen_mult(a, b, gen_add, gen_mult, c)
        return [a.global_view(), b.global_view(), c.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
def test_gen_mult_object_semiring_falls_back(p):
    """A Python-only folding function cannot batch; both modes must take
    the per-rank path and agree."""
    from repro.skeletons.functional import skil_fn

    add = skil_fn(ops=1, commutative_associative=True)(lambda x, y: x + y)
    mul = skil_fn(ops=1)(lambda x, y: x * y)

    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(8, 10), DISTR_TORUS2D)
        b = DistArray.from_global(ctx.machine, _matrix(8, 11), DISTR_TORUS2D)
        c = DistArray.from_global(
            ctx.machine, np.zeros((8, 8)), DISTR_TORUS2D
        )
        ctx.array_gen_mult(a, b, add, mul, c)
        return [c.global_view()]

    assert_equivalent(scenario, p)


@pytest.mark.parametrize("p", [4, 16])
def test_untraced_comm_chain_equivalence(p):
    """trace_level=0: only clocks and aggregate stats exist — the fused
    paths must not depend on any observability object being attached."""

    def scenario(ctx):
        a = DistArray.from_global(ctx.machine, _matrix(16, 12))
        b = DistArray.from_global(ctx.machine, np.zeros((16, 16)))
        ctx.array_broadcast_part(a, (0, 0))
        array_rotate_rows(ctx, a, 4, b)
        v = DistArray.from_global(
            ctx.machine, np.random.default_rng(13).uniform(size=32)
        )
        w = DistArray.from_global(ctx.machine, np.zeros(32))
        ctx.array_scan(PLUS, v, w)
        return [a.global_view(), b.global_view(), w.global_view()]

    assert_equivalent(scenario, p, trace_level=0)
