"""Golden simulated results: seconds only move when a PR means them to.

Each cell pins ``float.hex()`` of the makespan plus the integer message
and byte counts of one small run — the harness cells of Tables 1/2 and
ablation A1 under every profile, and one direct call of each skeleton
the apps do not reach, under ``DPFL`` (the only profile whose
``comm_byte_factor`` is not 1 and that sets ``copy_on_update``).  The
float stats (``comm_seconds`` ...) are left out: their ``np.sum`` order
is not fixed across numpy builds.

A refactor must leave this file untouched.  A PR that *intends* to move
simulated time regenerates the table and says why::

    PYTHONPATH=src python tests/eval/test_golden_sim.py
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.arrays.distribution import CyclicDistribution
from repro.eval.harness import run_gauss, run_matmul, run_shpaths
from repro.machine.costmodel import DPFL
from repro.machine.machine import DISTR_DEFAULT, DISTR_TORUS2D, Machine
from repro.skeletons import PLUS, SkilContext, skil_fn


# --------------------------------------------------------------- harness cells
def _harness_cells():
    for p in (4, 16):
        for lang in ("skil", "dpfl", "parix-c-old", "parix-c", "skil-closures"):
            yield f"shpaths/{lang}/p{p}", lambda lang=lang, p=p: run_shpaths(lang, p, 16)
        for lang in ("skil", "dpfl", "parix-c", "skil-closures"):
            yield f"gauss/{lang}/p{p}", lambda lang=lang, p=p: run_gauss(lang, p, 32)
        yield f"gauss-full/skil/p{p}", lambda p=p: run_gauss("skil", p, 32, full=True)
        for lang in ("skil", "parix-c"):
            yield f"matmul/{lang}/p{p}", lambda lang=lang, p=p: run_matmul(lang, p, 16)


# ---------------------------------------------------------- direct DPFL calls
@skil_fn(ops=1, vectorized=lambda grids, env: grids[0] * 1000.0 + grids[-1])
def _init(ix):
    return ix[0] * 1000.0 + ix[-1]


@skil_fn(ops=3, vectorized=lambda a, b, grids, env: a + 2.0 * b)
def _axpy(x, y, ix):
    return x + 2.0 * y


@skil_fn(ops=2, vectorized=lambda v, grids, env: v * 0.5)
def _halve(v, ix):
    return v * 0.5


@skil_fn(ops=5)
def _smooth(get, ix):
    return (get(0, 0) + get(-1, 0) + get(1, 0) + get(0, -1) + get(0, 1)) / 5.0


@skil_fn(ops=1)
def _times3(i):
    return (3 * i) % 8  # rows 2 and 6 swap owners, the rest are local copies


@skil_fn(ops=20)
def _square(t):
    return t * t


def _mat(ctx, distr=DISTR_TORUS2D):
    return ctx.array_create(2, (8, 8), (0, 0), (-1, -1), _init, distr)


def _vec(ctx):
    return ctx.array_create(1, (32,), (0,), (-1,), _init)


def _scan(ctx):
    ctx.array_scan(PLUS, _vec(ctx), _vec(ctx))


def _zip(ctx):
    a = _mat(ctx)
    ctx.array_zip(_axpy, a, _mat(ctx), a)


def _permute_rows(ctx):
    ctx.array_permute_rows(_mat(ctx), _times3, _mat(ctx))


def _broadcast_part(ctx):
    ctx.array_broadcast_part(_mat(ctx, DISTR_DEFAULT), (5, 0))


def _map_overlap(ctx):
    ctx.array_map_overlap(_smooth, _mat(ctx, DISTR_DEFAULT), _mat(ctx, DISTR_DEFAULT))


def _copy(ctx):
    ctx.array_copy(_mat(ctx), _mat(ctx))


def _cyclic_map(ctx):
    dist = CyclicDistribution((64,), (ctx.p,))
    a, b = (DistArray(ctx.machine, dist, np.float64) for _ in range(2))
    ctx.array_map(_halve, a, b)


def _farm(ctx):
    ctx.farm(_square, list(range(23)), size_of=lambda t: 1 + t % 4)


def _dc(ctx):
    ctx.divide_and_conquer(
        skil_fn(ops=1)(lambda pb: len(pb) <= 2),
        skil_fn(ops=4)(lambda pb: sorted(pb)),
        skil_fn(ops=2)(lambda pb: [pb[: len(pb) // 2], pb[len(pb) // 2:]]),
        skil_fn(ops=2)(lambda parts: sorted(parts[0] + parts[1])),
        [(7 * i) % 61 for i in range(48)],
    )


DIRECT = {
    "array_scan": _scan,
    "array_zip": _zip,
    "array_permute_rows": _permute_rows,
    "array_broadcast_part": _broadcast_part,
    "array_map_overlap": _map_overlap,
    "array_copy": _copy,
    "array_map/cyclic": _cyclic_map,
    "farm": _farm,
    "divide_and_conquer": _dc,
}


def direct_run(name: str, profile=DPFL, p: int = 4, fused: bool = True) -> Machine:
    """One direct skeleton call on a fresh machine; returns the machine."""
    ctx = SkilContext(Machine(p), profile, fused=fused)
    DIRECT[name](ctx)
    return ctx.machine


def _direct_cells():
    for name in DIRECT:
        yield f"dpfl/{name}", lambda name=name: direct_run(name)
        # the per-rank reference path is bit-identical by contract, so it
        # is held to the same golden row
        yield f"dpfl/{name}/unfused", lambda name=name: direct_run(name, fused=False)


def _row(result) -> tuple[str, int, int]:
    if isinstance(result, Machine):
        stats = result.stats
        return (float(result.time).hex(), stats.messages, stats.bytes_sent)
    return (float(result.seconds).hex(), result.messages, result.bytes_sent)


CELLS = dict([*_harness_cells(), *_direct_cells()])

#: generated at the parent of the PR that added this file (commit 854283f);
#: the ``shpaths/parix-c`` rows at commit fd6a11e, before the comparators
#: kept their blocks in one stack
GOLDEN: dict[str, tuple[str, int, int]] = {
    'shpaths/skil/p4': ('0x1.2a760ac931b78p-4', 64, 32768),
    'shpaths/dpfl/p4': ('0x1.c58f9158019e7p-2', 64, 196608),
    'shpaths/parix-c-old/p4': ('0x1.872522cf37e11p-4', 64, 32768),
    'shpaths/parix-c/p4': ('0x1.eee6d30850304p-5', 48, 24576),
    'shpaths/skil-closures/p4': ('0x1.fa5977eb74021p-4', 64, 32768),
    'gauss/skil/p4': ('0x1.3a89b6a293e9cp-3', 96, 25344),
    'gauss/dpfl/p4': ('0x1.c0cb32c3cc9e4p-1', 96, 152064),
    'gauss/parix-c/p4': ('0x1.2bdf4c2b51bcep-4', 96, 25344),
    'gauss/skil-closures/p4': ('0x1.c1921e50222e0p-3', 96, 25344),
    'gauss-full/skil/p4': ('0x1.3ddbff9aaa66ap-2', 288, 29952),
    'matmul/skil/p4': ('0x1.4722d4405e94fp-6', 16, 8192),
    'matmul/parix-c/p4': ('0x1.019f3c70c996cp-6', 12, 6144),
    'shpaths/skil/p16': ('0x1.eddd68a65ca0cp-6', 576, 73728),
    'shpaths/dpfl/p16': ('0x1.3bf6b0f6d8640p-3', 576, 442368),
    'shpaths/parix-c-old/p16': ('0x1.b4084548df6bfp-5', 576, 73728),
    'shpaths/parix-c/p16': ('0x1.893c544424f37p-6', 480, 61440),
    'shpaths/skil-closures/p16': ('0x1.61a434d31b706p-5', 576, 73728),
    'gauss/skil/p16': ('0x1.36884ceb15367p-4', 480, 126720),
    'gauss/dpfl/p16': ('0x1.5c4a45f455fd5p-2', 480, 760320),
    'gauss/parix-c/p16': ('0x1.8fc2eba27ae86p-5', 480, 126720),
    'gauss/skil-closures/p16': ('0x1.9a49520382ecbp-4', 480, 126720),
    'gauss-full/skil/p16': ('0x1.a26e51c23f83fp-3', 1440, 149760),
    'matmul/skil/p16': ('0x1.0847cd1e2b643p-7', 144, 18432),
    'matmul/parix-c/p16': ('0x1.9e94ab1d4f9c2p-8', 120, 15360),
    'dpfl/array_scan': ('0x1.665f2f90666a2p-9', 6, 288),
    'dpfl/array_zip': ('0x1.047a0d374b1adp-8', 0, 0),
    'dpfl/array_permute_rows': ('0x1.5d8038ca76dc3p-9', 4, 768),
    'dpfl/array_broadcast_part': ('0x1.761f161ac984ep-9', 3, 2304),
    'dpfl/array_map_overlap': ('0x1.d707e4250319bp-8', 6, 2304),
    'dpfl/array_copy': ('0x1.eda0acde44ef3p-10', 0, 0),
    'dpfl/array_map/cyclic': ('0x1.97fade0229500p-10', 0, 0),
    'dpfl/farm': ('0x1.6f17e5cfd311bp-6', 49, 2392),
    'dpfl/divide_and_conquer': ('0x1.d7774aba38758p-6', 6, 960),
}


@pytest.mark.parametrize("cell", CELLS)
def test_golden(cell):
    assert _row(CELLS[cell]()) == GOLDEN[cell.removesuffix("/unfused")]


if __name__ == "__main__":
    print("GOLDEN: dict[str, tuple[str, int, int]] = {")
    for cell, run in CELLS.items():
        if not cell.endswith("/unfused"):
            print(f"    {cell!r}: {_row(run())!r},")
    print("}")
