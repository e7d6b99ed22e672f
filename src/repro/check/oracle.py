"""Sequential reference oracle for every public skeleton.

Each distributed skeleton in :mod:`repro.skeletons` is checked against
a straightforward sequential implementation on one global numpy array,
across randomized shapes, element types, processor counts,
distributions (block and cyclic where the skeleton's contract allows
cyclic) and virtual topologies (``DISTR_DEFAULT`` / ``DISTR_RING`` /
``DISTR_TORUS2D``, plus the folded-vs-naive torus embedding toggle).

The block-only skeletons (``array_scan``, ``array_broadcast_part``,
``array_permute_rows``, ``array_gen_mult``, ``array_map_overlap``)
are additionally probed with cyclic inputs to assert they *reject* them
(a :class:`~repro.errors.SkeletonError`) instead of silently computing
garbage — the latent-bug class this oracle originally surfaced.
"""

from __future__ import annotations

import random

import numpy as np

from repro.arrays.darray import DistArray
from repro.arrays.distribution import CyclicDistribution
from repro.check.report import TrialRunner
from repro.errors import SkeletonError
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
)
from repro.skeletons import (
    MAX,
    MIN,
    PLUS,
    TIMES,
    SkilContext,
    divide_and_conquer,
    farm,
)
from repro.skeletons.comm import array_rotate_rows
from repro.skeletons.extensions import array_map_overlap

__all__ = ["run_oracle", "run_oracle_raw", "ORACLE_TRIALS"]

_TOPOS = [DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _ctx(p: int, rng: random.Random) -> SkilContext:
    machine = Machine(p, use_virtual_topologies=bool(rng.getrandbits(1)))
    return SkilContext(machine)


def _topo(rng: random.Random) -> str:
    return rng.choice(_TOPOS)


def _block(ctx: SkilContext, data: np.ndarray, distr: str) -> DistArray:
    return DistArray.from_global(ctx.machine, data, distr)


def _cyclic(ctx: SkilContext, data: np.ndarray, distr: str) -> DistArray:
    grid = (ctx.p,) + (1,) * (data.ndim - 1)
    dist = CyclicDistribution(data.shape, grid)
    arr = DistArray(ctx.machine, dist, data.dtype, distr)
    arr.fill_from_global(data)
    return arr


def _randint(rng: random.Random, shape) -> np.ndarray:
    return np.array(
        [rng.randint(-50, 50) for _ in range(int(np.prod(shape)))],
        dtype=np.int64,
    ).reshape(shape)


def _mismatch(name: str, expected: np.ndarray, actual: np.ndarray) -> str | None:
    if expected.shape != actual.shape:
        return f"{name}: shape {actual.shape}, expected {expected.shape}"
    if not np.array_equal(expected, actual):
        bad = np.argwhere(expected != actual)[:3]
        return (
            f"{name}: values differ at {bad.tolist()} "
            f"(expected {expected[tuple(bad[0])]}, got {actual[tuple(bad[0])]})"
        )
    return None


def _shape_for(rng: random.Random, p: int, dim: int) -> tuple[int, ...]:
    if dim == 1:
        return (rng.randint(max(6, p), 24),)
    return (rng.randint(max(3, p), 9), rng.randint(3, 9))


# ---------------------------------------------------------------------------
# per-skeleton trials — each returns None (pass) or a message (fail)
# ---------------------------------------------------------------------------
def trial_array_create(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3, 4])
    ctx = _ctx(p, rng)
    dim = rng.choice([1, 2])
    shape = _shape_for(rng, p, dim)
    distr = _topo(rng) if dim == 2 else rng.choice([DISTR_DEFAULT, DISTR_RING])
    a_coef = rng.randint(1, 5)

    def init_f(ix):
        return a_coef * ix[0] + (ix[1] if len(ix) > 1 else 0) - 7

    arr = ctx.array_create(dim, shape, (0,) * dim, (-1,) * dim, init_f, distr,
                           dtype=np.int64)
    expected = np.zeros(shape, dtype=np.int64)
    for ix in np.ndindex(*shape):
        expected[ix] = init_f(ix)
    out = _mismatch(f"array_create[{distr}]", expected, arr.global_view())
    arr.destroy()
    if arr.alive:
        return "array_destroy left the array alive"
    if out is not None:
        return out
    # the fusion pass's uninitialised variant: same shape and layout,
    # zero skeleton rounds charged; values defined after a full overwrite
    rounds_before = ctx.machine.stats.skeleton_calls
    uninit = ctx.array_create_uninit(
        dim, shape, (0,) * dim, (-1,) * dim, distr, dtype=np.int64
    )
    if ctx.machine.stats.skeleton_calls != rounds_before:
        return "array_create_uninit charged a skeleton round"
    if uninit.global_view().shape != shape:
        return (
            f"array_create_uninit[{distr}]: shape "
            f"{uninit.global_view().shape}, expected {shape}"
        )
    src = ctx.array_create(dim, shape, (0,) * dim, (-1,) * dim, init_f,
                           distr, dtype=np.int64)
    ctx.array_copy(src, uninit)
    return _mismatch(
        f"array_create_uninit[{distr}]", expected, uninit.global_view()
    )


def trial_array_map(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3, 4])
    ctx = _ctx(p, rng)
    dim = rng.choice([1, 2])
    shape = _shape_for(rng, p, dim)
    distr = _topo(rng) if dim == 2 else rng.choice([DISTR_DEFAULT, DISTR_RING])
    layout = rng.choice(["block", "cyclic"])
    data = _randint(rng, shape)
    make = _block if layout == "block" else _cyclic
    src = make(ctx, data, distr)
    in_situ = rng.random() < 0.4
    dst = src if in_situ else make(ctx, np.zeros(shape, dtype=np.int64), distr)
    k = rng.randint(1, 7)

    def f(v, ix):
        return k * v + ix[0]

    ctx.array_map(f, src, dst)
    expected = np.empty(shape, dtype=np.int64)
    for ix in np.ndindex(*shape):
        expected[ix] = k * data[ix] + ix[0]
    return _mismatch(f"array_map[{layout},{distr}]", expected, dst.global_view())


def trial_array_zip(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 4])
    ctx = _ctx(p, rng)
    shape = _shape_for(rng, p, rng.choice([1, 2]))
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    layout = rng.choice(["block", "cyclic"])
    make = _block if layout == "block" else _cyclic
    da, db = _randint(rng, shape), _randint(rng, shape)
    a, b = make(ctx, da, distr), make(ctx, db, distr)
    dst = a if rng.random() < 0.3 else make(ctx, np.zeros(shape, np.int64), distr)

    def f(x, y, ix):
        return x * 2 - y + ix[-1]

    ctx.array_zip(f, a, b, dst)
    expected = np.empty(shape, dtype=np.int64)
    for ix in np.ndindex(*shape):
        expected[ix] = da[ix] * 2 - db[ix] + ix[-1]
    return _mismatch(f"array_zip[{layout},{distr}]", expected, dst.global_view())


def trial_array_fold(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3, 4])
    ctx = _ctx(p, rng)
    shape = _shape_for(rng, p, rng.choice([1, 2]))
    distr = _topo(rng) if len(shape) == 2 else rng.choice([DISTR_DEFAULT, DISTR_RING])
    layout = rng.choice(["block", "cyclic"])
    make = _block if layout == "block" else _cyclic
    data = _randint(rng, shape)
    arr = make(ctx, data, distr)
    comb_name, comb, ref = rng.choice(
        [("+", PLUS, np.sum), ("min", MIN, np.min), ("max", MAX, np.max)]
    )
    off = rng.randint(0, 9)

    def conv(v, ix):
        return v + off

    got = ctx.array_fold(conv, comb, arr)
    expected = int(ref(data + off))
    if int(got) != expected:
        return (
            f"array_fold[{layout},{distr},{comb_name}]: got {got}, "
            f"expected {expected}"
        )
    return None


def trial_array_scan(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3, 4])
    ctx = _ctx(p, rng)
    n = rng.randint(max(6, p), 24)
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    data = _randint(rng, (n,))
    src = _block(ctx, data, distr)
    dst = _block(ctx, np.zeros(n, np.int64), distr)
    comb_name, comb, acc = rng.choice(
        [("+", PLUS, np.cumsum), ("min", MIN, np.minimum.accumulate),
         ("max", MAX, np.maximum.accumulate)]
    )
    ctx.array_scan(comb, src, dst)
    out = _mismatch(f"array_scan[{comb_name},{distr}]", acc(data), dst.global_view())
    if out is not None:
        return out
    # the cyclic layout breaks the rank-order offset logic: must reject
    if p > 1:
        csrc = _cyclic(ctx, data, distr)
        cdst = _cyclic(ctx, np.zeros(n, np.int64), distr)
        try:
            ctx.array_scan(comb, csrc, cdst)
        except SkeletonError:
            return None
        return "array_scan accepted a cyclic distribution (silently wrong offsets)"
    return None


def trial_array_copy(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 4])
    ctx = _ctx(p, rng)
    shape = _shape_for(rng, p, rng.choice([1, 2]))
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    layout = rng.choice(["block", "cyclic"])
    make = _block if layout == "block" else _cyclic
    data = _randint(rng, shape)
    src = make(ctx, data, distr)
    dst = make(ctx, np.zeros(shape, np.int64), distr)
    ctx.array_copy(src, dst)
    return _mismatch(f"array_copy[{layout},{distr}]", data, dst.global_view())


def trial_array_broadcast_part(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 4])
    ctx = _ctx(p, rng)
    rows = p * rng.randint(1, 4)
    cols = rng.randint(3, 8)
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    data = _randint(rng, (rows, cols))
    arr = _block(ctx, data, distr)
    pick = (rng.randrange(rows), rng.randrange(cols))
    owner = arr.owner(pick)
    ob = arr.part_bounds(owner)
    ctx.array_broadcast_part(arr, pick)
    expected = np.empty_like(data)
    block = data[ob.lower[0] : ob.upper[0], ob.lower[1] : ob.upper[1]]
    for r in range(p):
        b = arr.part_bounds(r)
        expected[b.lower[0] : b.upper[0], b.lower[1] : b.upper[1]] = block
    out = _mismatch(f"array_broadcast_part[{distr}]", expected, arr.global_view())
    if out is not None:
        return out
    if p > 1:
        carr = _cyclic(ctx, data, distr)
        try:
            ctx.array_broadcast_part(carr, pick)
        except SkeletonError:
            return None
        return "array_broadcast_part accepted a cyclic distribution"
    return None


def trial_array_permute_rows(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3])
    ctx = _ctx(p, rng)
    rows = rng.randint(max(3, p), 9)
    cols = rng.randint(3, 7)
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    data = _randint(rng, (rows, cols))
    src = _block(ctx, data, distr)
    dst = _block(ctx, np.zeros((rows, cols), np.int64), distr)
    perm = list(range(rows))
    rng.shuffle(perm)
    ctx.array_permute_rows(src, lambda i: perm[i], dst)
    expected = np.empty_like(data)
    for i in range(rows):
        expected[perm[i], :] = data[i, :]
    # rotate_rows is a wrapper over the same machinery
    shift = rng.randint(-rows, rows)
    dst2 = _block(ctx, np.zeros((rows, cols), np.int64), distr)
    array_rotate_rows(ctx, src, shift, dst2)
    expected2 = np.roll(data, shift, axis=0)
    out = (_mismatch(f"array_permute_rows[{distr}]", expected, dst.global_view())
           or _mismatch(f"array_rotate_rows[{distr}]", expected2, dst2.global_view()))
    if out is not None:
        return out
    if p > 1:
        csrc = _cyclic(ctx, data, distr)
        cdst = _cyclic(ctx, np.zeros((rows, cols), np.int64), distr)
        try:
            ctx.array_permute_rows(csrc, lambda i: perm[i], cdst)
        except SkeletonError:
            return None
        return "array_permute_rows accepted a cyclic distribution"
    return None


def _semiring_case(rng: random.Random, da: np.ndarray, db: np.ndarray):
    """A random ``(c, add, mul, tag, expected)`` for ``c = add(c, a mul
    b)``: (min, +) on a large ``c`` or (+, *) on a random one."""
    n = da.shape[0]
    if rng.random() < 0.5:
        dc = np.full((n, n), 10**6, dtype=np.int64)
        expected = dc.copy()
        for i in range(n):
            for j in range(n):
                expected[i, j] = min(
                    int(dc[i, j]),
                    int(np.min(da[i, :] + db[:, j])),
                )
        return dc, MIN, PLUS, "min-plus", expected
    dc = _randint(rng, (n, n))
    return dc, PLUS, TIMES, "plus-times", dc + da @ db


def trial_array_gen_mult(rng: random.Random) -> str | None:
    p = rng.choice([1, 4])
    ctx = _ctx(p, rng)
    g = int(round(p ** 0.5))
    n = g * rng.randint(2, 4)
    da = _randint(rng, (n, n)) % 10
    db = _randint(rng, (n, n)) % 10
    dc, add, mul, tag, expected = _semiring_case(rng, da, db)
    a = _block(ctx, da, DISTR_TORUS2D)
    b = _block(ctx, db, DISTR_TORUS2D)
    c = _block(ctx, dc, DISTR_TORUS2D)
    ctx.array_gen_mult(a, b, add, mul, c)
    # arguments must be observably unchanged (unskew contract)
    return (
        _mismatch(f"array_gen_mult[{tag},p={p}]", expected, c.global_view())
        or _mismatch("array_gen_mult: a changed", da, a.global_view())
        or _mismatch("array_gen_mult: b changed", db, b.global_view())
    )


def trial_array_gen_mult_square(rng: random.Random) -> str | None:
    """The fusion target for ``copy(a, b); gen_mult(a, b, ...)``.

    Checked two ways: against the sequential reference, and against the
    two-skeleton idiom it replaces (bit-equal, strictly fewer rounds).
    """
    p = rng.choice([1, 4])
    ctx = _ctx(p, rng)
    g = int(round(p ** 0.5))
    n = g * rng.randint(2, 4)
    da = _randint(rng, (n, n)) % 10
    dc, add, mul, tag, expected = _semiring_case(rng, da, da)
    a = _block(ctx, da, DISTR_TORUS2D)
    c = _block(ctx, dc, DISTR_TORUS2D)
    rounds0 = ctx.machine.stats.skeleton_calls
    ctx.array_gen_mult_square(a, add, mul, c)
    rounds_square = ctx.machine.stats.skeleton_calls - rounds0
    out = (_mismatch(f"array_gen_mult_square[{tag},p={p}]", expected, c.global_view())
           or _mismatch("array_gen_mult_square: a changed", da, a.global_view()))
    if out is not None:
        return out

    # the unfused pair must agree and cost strictly more rounds
    ctx2 = _ctx(p, rng)
    a2 = _block(ctx2, da, DISTR_TORUS2D)
    b2 = _block(ctx2, np.zeros((n, n), np.int64), DISTR_TORUS2D)
    c2 = _block(ctx2, dc, DISTR_TORUS2D)
    rounds0 = ctx2.machine.stats.skeleton_calls
    ctx2.array_copy(a2, b2)
    ctx2.array_gen_mult(a2, b2, add, mul, c2)
    rounds_pair = ctx2.machine.stats.skeleton_calls - rounds0
    out = _mismatch(f"array_gen_mult_square vs copy+gen_mult[{tag}]",
                    c2.global_view(), c.global_view())
    if out is not None:
        return out
    if not rounds_square < rounds_pair:
        return (
            f"array_gen_mult_square[{tag},p={p}]: expected fewer rounds "
            f"than copy+gen_mult, got {rounds_square} vs {rounds_pair}"
        )
    return None


def trial_array_map_overlap(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 3])
    ctx = _ctx(p, rng)
    dim = rng.choice([1, 2])
    shape = _shape_for(rng, p, dim)
    distr = rng.choice([DISTR_DEFAULT, DISTR_RING])
    data = _randint(rng, shape)
    src = _block(ctx, data, distr)
    dst = _block(ctx, np.zeros(shape, np.int64), distr)

    if dim == 1:
        def stencil(get, ix):
            return get(-1) + get(0) + get(1)
    else:
        def stencil(get, ix):
            return get(-1, 0) + get(0, 0) + get(1, 0) + get(0, -1) + get(0, 1)

    array_map_overlap(ctx, stencil, src, dst, overlap=1)
    expected = np.empty(shape, dtype=np.int64)
    for ix in np.ndindex(*shape):
        offs = ([(-1,), (0,), (1,)] if dim == 1
                else [(-1, 0), (0, 0), (1, 0), (0, -1), (0, 1)])
        total = 0
        for off in offs:
            tgt = tuple(
                min(max(i + o, 0), s - 1) for i, o, s in zip(ix, off, shape)
            )
            total += data[tgt]
        expected[ix] = total
    return _mismatch(f"array_map_overlap[{dim}d,{distr}]", expected,
                     dst.global_view())


def trial_divide_and_conquer(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 4])
    ctx = _ctx(p, rng)
    xs = [rng.randint(-1000, 1000) for _ in range(rng.randint(1, 40))]

    def merge(a, b):
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            if a[i] <= b[j]:
                out.append(a[i]); i += 1
            else:
                out.append(b[j]); j += 1
        return out + a[i:] + b[j:]

    got = divide_and_conquer(
        ctx,
        is_trivial=lambda v: len(v) <= 1,
        solve=lambda v: list(v),
        split=lambda v: [v[: len(v) // 2], v[len(v) // 2 :]],
        join=lambda parts: merge(parts[0], parts[1]),
        problem=xs,
    )
    if got != sorted(xs):
        return f"divide_and_conquer[p={p}]: {got} != {sorted(xs)}"
    return None


def trial_farm(rng: random.Random) -> str | None:
    p = rng.choice([1, 2, 4, 5])
    ctx = _ctx(p, rng)
    tasks = [
        [rng.randint(0, 100) for _ in range(rng.randint(1, 8))]
        for _ in range(rng.randint(0, 12))
    ]

    def worker(t):
        return sum(t) * 2 + len(t)

    got = farm(ctx, worker, tasks)
    expected = [worker(t) for t in tasks]
    if got != expected:
        return f"farm[p={p}]: {got} != {expected}"
    return None


#: name -> trial function; trial seed *s* runs the ``s % 13``-th, so 13
#: consecutive seeds cover every skeleton
ORACLE_TRIALS = {
    "array_create": trial_array_create,
    "array_map": trial_array_map,
    "array_zip": trial_array_zip,
    "array_fold": trial_array_fold,
    "array_scan": trial_array_scan,
    "array_copy": trial_array_copy,
    "array_broadcast_part": trial_array_broadcast_part,
    "array_permute_rows": trial_array_permute_rows,
    "array_gen_mult": trial_array_gen_mult,
    "array_gen_mult_square": trial_array_gen_mult_square,
    "array_map_overlap": trial_array_map_overlap,
    "divide_and_conquer": trial_divide_and_conquer,
    "farm": trial_farm,
}


def _family(name: str):
    """The trial *name* as a family, looked up when it runs."""

    def family(rng: random.Random) -> tuple[str | None, dict[str, int]]:
        return ORACLE_TRIALS[name](rng), {name: 1}

    family.__name__ = f"skeleton oracle: {name}"
    return family


_RUNNER = TrialRunner("oracle", tuple(map(_family, ORACLE_TRIALS)), budget=60)
run_oracle, run_oracle_raw = _RUNNER.run, _RUNNER.run_raw
