"""Which path ``fuse.run_elementwise`` takes, observed from outside.

map, zip, fold and create reach their kernels only through the one
executor, so one table covers all four.  A path is recognised by what it
does to the objects the test hands in: how often the backend's
``run_blocks`` is called and how many rows each kernel call is given
(or how many element calls a scalar-only function gets).
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.arrays.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
)
from repro.errors import SkeletonError
from repro.machine.backend import SimBackend, ThreadsBackend
from repro.machine.machine import DISTR_DEFAULT, DISTR_TORUS2D, Machine
from repro.skeletons import PLUS, SkilContext, fuse, skil_fn

P, ROWS, COLS, WORKERS = 4, 8, 3, 3

#: a (BIG_ROWS, BIG_COLS) float array holds two slab budgets
BIG_COLS = 128
BIG_ROWS = 2 * fuse.SLAB_BYTES // (8 * BIG_COLS)

#: layout -> (distribution class, shape, grid).  ``big`` and ``torus``
#: arrays touch 2 MiB each; ``torus`` has 2 grid rows, fewer than WORKERS
LAYOUTS = {
    "block": (BlockDistribution, (ROWS, COLS), (P, 1)),
    "cyclic": (CyclicDistribution, (ROWS, COLS), (P, 1)),
    "big": (BlockDistribution, (BIG_ROWS, BIG_COLS), (P, 1)),
    "torus": (BlockDistribution, (BIG_ROWS, BIG_COLS), (2, 2)),
}

#: (backend, layout, kind, ctx.fused, skeleton) -> path of every call
#: with the same function (the first call is no different from the
#: second); first matching row wins, "*" is any.  ``(how, k)``: the
#: pooled call in k slabs, run inline or dispatched
TABLE = [
    # a scalar-only function has no kernel to send anywhere
    (("*", "*", "scalar", "*", "*"), "boxed"),
    # a kernel that may read its env, a strided layout, or fused=False
    # (on every backend): the per-rank loop
    (("*", "*", "reads_rank", "*", "*"), "ranks"),
    (("*", "cyclic", "*", "*", "*"), "ranks"),
    (("*", "*", "*", False, "*"), "ranks"),
    # the pooled call in k = min(bytes // SLAB_BYTES, grid rows) pieces,
    # inline below the dispatch size (k < min(workers, grid rows))
    (("*", "block", "*", "*", "*"), ("inline", 1)),
    (("*", "big", "*", "*", "create"), ("inline", 2)),  # one array: k = 2
    (("sim", "big", "*", "*", "*"), ("inline", 4)),
    (("sim", "torus", "*", "*", "*"), ("inline", 2)),
    # at the dispatch size: one slab per worker, at most one per grid row
    (("threads", "big", "*", "*", "*"), ("dispatch", WORKERS)),
    (("threads", "torus", "*", "*", "*"), ("dispatch", 2)),
]

#: env-free kinds: "generated" carries the verdict the way lang/codegen.py
#: attaches it, "handwritten" is judged by skil_fn from its code, and
#: "fused_form" is the shape that replaced the ``skil_fn(fused=...)``
#: whole-array forms: rank-dependent values read from the global index
#: grids.  "reads_rank" computes the same values from ``env.rank``
KINDS = ["generated", "handwritten", "reads_rank", "fused_form", "scalar"]

#: (skeleton, layout, backend, kind, fused); array_create builds block
#: layouts only, and scalar-only functions stay on the small layouts
CASES = [
    (skeleton, layout, backend, kind, fused)
    for skeleton in ("map", "zip", "fold", "create")
    for layout in LAYOUTS
    for backend in ("sim", "threads")
    for kind in KINDS
    for fused in (True, False)
    if (skeleton, layout) != ("create", "cyclic")
    and not (kind == "scalar" and layout in ("big", "torus"))
]


def expected_path(*case):
    for pattern, path in TABLE:
        if all(want in ("*", got) for want, got in zip(pattern, case)):
            return path
    raise AssertionError(case)


class Counting:
    calls = 0

    def run_blocks(self, kernel, tasks):
        self.calls += 1
        return super().run_blocks(kernel, tasks)


class CountingSim(Counting, SimBackend):
    pass


class CountingThreads(Counting, ThreadsBackend):
    pass


def make_backend(name):
    return CountingSim() if name == "sim" else CountingThreads(WORKERS)


def owner_table(layout):
    """The owning rank of every element."""
    cls, shape, grid = LAYOUTS[layout]
    dist = cls(shape, grid)
    owners = np.empty(shape)
    for r in range(P):
        owners[np.ix_(*dist.index_vectors(r))] = r
    return owners


def make_fn(kind, n_inputs, owners, log):
    """A fresh function of the given kind for *n_inputs* sources (create
    has none, map and fold one, zip two).  Vectorized kernels log how
    many rows they are given.  Env-free kinds compute ``2*sum(blocks) +
    row``, or for ``fused_form`` ``sum(blocks) + owner``; ``reads_rank``
    computes ``sum(blocks) + rank``."""

    def free(blocks, grids):
        log.append(len(grids[0]))
        return 2.0 * sum(blocks) + grids[0]

    def owned(blocks, grids, rank=None):
        log.append(len(grids[0]))
        if rank is None:
            rank = owners[grids[0], grids[1]]
        return sum(blocks) + rank + 0 * grids[0]

    def scalar(*args):
        *elems, ix = args
        log.append("scalar")
        return 2.0 * sum(elems) + ix[0]

    kernels = {
        "handwritten": [
            lambda g, env: free((), g),
            lambda b, g, env: free((b,), g),
            lambda x, y, g, env: free((x, y), g),
        ],
        "fused_form": [
            lambda g, env: owned((), g),
            lambda b, g, env: owned((b,), g),
            lambda x, y, g, env: owned((x, y), g),
        ],
        "reads_rank": [
            lambda g, env: owned((), g, env.rank),
            lambda b, g, env: owned((b,), g, env.rank),
            lambda x, y, g, env: owned((x, y), g, env.rank),
        ],
    }
    if kind == "scalar":
        return skil_fn(ops=1)(scalar)
    if kind == "generated":
        def kernel(*args):
            *blocks, grids, _ = args
            return free(blocks, grids)

        kernel.env_free = True  # what lang/codegen.py attaches
        return skil_fn(ops=1, vectorized=kernel)(scalar)
    return skil_fn(ops=1, vectorized=kernels[kind][n_inputs])(scalar)


def make_array(machine, layout, data):
    cls, shape, grid = LAYOUTS[layout]
    arr = DistArray(machine, cls(shape, grid), data.dtype)
    arr.fill_from_global(data)
    return arr


def reference(kind, n_inputs, data, owners):
    rows = np.arange(data.shape[0], dtype=float)[:, None]
    total = n_inputs * data  # every input holds the same data
    if kind in ("reads_rank", "fused_form"):
        return total + owners
    return 2.0 * total + rows


def observed(path, skeleton, layout, n_elems, like):
    """``(run_blocks calls, sorted log)`` a path leaves behind."""
    if path == "boxed":
        return 0, ["scalar"] * n_elems
    if path == "ranks":
        return 0, sorted(like.local(r).shape[0] for r in range(P))
    how, k = path
    rows = sorted(s.stop - s.start for s in like.dist.slab_rows(k))
    assert len(rows) == k
    if how == "inline":
        return 0, rows
    return (1 if skeleton == "fold" else 2), rows  # the kernel, the store


def call_skeleton(skeleton, ctx, fn, layout, a, b, dst):
    """Make the call; return (value it produced, number of inputs)."""
    if skeleton == "map":
        ctx.array_map(fn, a, dst)
        return dst.global_view(), 1
    if skeleton == "zip":
        ctx.array_zip(fn, a, b, dst)
        return dst.global_view(), 2
    if skeleton == "fold":
        return ctx.array_fold(fn, PLUS, a), 1
    distr = DISTR_TORUS2D if layout == "torus" else DISTR_DEFAULT
    arr = ctx.array_create(2, a.shape, (0, 0), (-1, -1), fn, distr)
    assert arr.dist.grid == a.dist.grid
    value = arr.global_view()
    ctx.array_destroy(arr)
    return value, 0


N_INPUTS = {"map": 1, "zip": 2, "fold": 1, "create": 0}


@pytest.mark.parametrize("skeleton,layout,backend_name,kind,fused", CASES)
def test_path_taken(skeleton, layout, backend_name, kind, fused):
    backend = make_backend(backend_name)
    path = expected_path(backend_name, layout, kind, fused, skeleton)
    shape = LAYOUTS[layout][1]
    owners = owner_table(layout)
    with Machine(P, backend=backend) as machine:
        ctx = SkilContext(machine, fused=fused)
        # small integers: sums are exact, so fold agrees across paths too
        data = np.arange(np.prod(shape), dtype=float).reshape(shape)
        a, b, dst = (make_array(machine, layout, d)
                     for d in (data, data, np.zeros_like(data)))
        log = []
        fn = make_fn(kind, N_INPUTS[skeleton], owners, log)
        want = observed(path, skeleton, layout, data.size, a)
        for _ in range(2):
            del log[:]
            backend.calls = 0
            value, n_inputs = call_skeleton(skeleton, ctx, fn, layout, a, b, dst)
            # sorted: dispatched slabs log in completion order
            assert (backend.calls, sorted(log)) == want, path
            ref = reference(kind, n_inputs, data, owners)
            if skeleton == "fold":
                ref = ref.sum()
            np.testing.assert_array_equal(
                value, np.broadcast_to(ref, np.shape(value))
            )


@pytest.mark.parametrize("traced", [False, True])
def test_kernel_error_in_a_dispatched_task_propagates(traced):
    """A kernel that raises in one dispatched slab: the caller sees that
    very exception (no fallback, no wrapper), no ``procId`` is left
    behind, and the machine dispatches again."""

    class Boom(Exception):
        pass

    def kernel(block, grids, env):
        if grids[0][0, 0] == BIG_ROWS // 2:  # the second slab only
            raise Boom("slab 1")
        return 2.0 * block + grids[0]

    bad = skil_fn(ops=1, vectorized=kernel)(lambda v, ix: 2.0 * v + ix[0])
    backend = CountingThreads(2)
    with Machine(P, backend=backend, trace_level=int(traced)) as machine:
        ctx = SkilContext(machine)
        data = np.arange(BIG_ROWS * BIG_COLS, dtype=float).reshape(BIG_ROWS, BIG_COLS)
        a = make_array(machine, "big", data)
        dst = make_array(machine, "big", np.zeros_like(data))
        with pytest.raises(Boom) as exc:
            ctx.array_map(bad, a, dst)
        assert type(exc.value) is Boom
        assert ctx.current_rank is None
        with pytest.raises(SkeletonError):
            ctx.proc_id()
        assert backend.calls == 1  # nothing was stored
        ctx.array_map(make_fn("generated", 1, None, []), a, dst)
        assert backend.calls == 3
        np.testing.assert_array_equal(
            dst.global_view(), reference("generated", 1, data, None)
        )


def test_pooled_call_builds_no_per_rank_tasks(monkeypatch):
    """ROADMAP item 1a: on ``sim`` a pooled map used to build p task
    tuples of ``local(r)`` + ``index_grids(r)`` and throw them away."""
    p = 64
    machine = Machine(p, backend="sim")
    ctx = SkilContext(machine, fused=True)
    data = np.arange(p * 4, dtype=float).reshape(p * 2, 2)
    a = DistArray.from_global(machine, data)
    dst = DistArray.from_global(machine, np.zeros_like(data))
    fn = make_fn("generated", 1, None, [])

    touched = []
    for name in ("local", "index_grids"):
        original = getattr(DistArray, name)

        def counting(self, rank, _name=name, _original=original):
            touched.append(_name)
            return _original(self, rank)

        monkeypatch.setattr(DistArray, name, counting)
    ctx.array_map(fn, a, dst)
    assert touched == []
    monkeypatch.undo()
    np.testing.assert_array_equal(
        dst.global_view(), 2.0 * data + np.arange(p * 2)[:, None]
    )


# ---------------------------------------------------------------------------
# slabs against the per-rank loop, bitwise
# ---------------------------------------------------------------------------
def _vec_only(ops, vec):
    """``skil_fn`` around a kernel whose scalar form must never run."""
    def scalar(*args):
        raise AssertionError("the scalar form was called")

    return skil_fn(ops=ops, vectorized=vec)(scalar)


def _slab_kernels():
    """Float kernels whose results depend on the element *and* on both
    index values, so a slab handed the wrong rows or grids shows."""
    def last(g):
        return g[-1] * 0.25

    return {
        "init": _vec_only(2, lambda g, e: np.sqrt(g[0] * 3.0 + 1.0) + last(g)),
        "map": _vec_only(
            3, lambda b, g, e: np.sqrt(np.abs(b)) * 1.1 + g[0] - last(g)),
        "zip": _vec_only(2, lambda x, y, g, e: x * 0.3 + y / 7.0 + last(g)),
        "conv": _vec_only(2, lambda b, g, e: b * b + g[0]),
        "ident": _vec_only(0, lambda b, g, e: b),
    }


def _slab_workload(machine, shape, grid, fused):
    """create -> map -> zip into a source -> in-situ map -> identity map
    of a view of the target pool -> fold; returns every result."""
    ctx = SkilContext(machine, fused=fused)
    k = _slab_kernels()
    dim = len(shape)

    def new(data):
        arr = DistArray(machine, BlockDistribution(shape, grid), float)
        arr.fill_from_global(data)
        return arr

    seed = np.arange(np.prod(shape), dtype=float).reshape(shape) / 3.0
    a, b = new(seed), new(np.zeros(shape))
    c = ctx.array_create(dim, shape, (0,) * dim, (-1,) * dim, k["init"])
    ctx.array_map(k["map"], a, b)
    ctx.array_zip(k["zip"], a, b, b)  # the target aliases a source
    ctx.array_map(k["map"], a, a)  # in situ
    ctx.array_map(k["ident"], b, b)  # the result is a view of the target
    total = ctx.array_fold(k["conv"], PLUS, a)
    return [x.global_view().copy() for x in (a, b, c)], total


@pytest.mark.parametrize(
    "shape,grid,workers,slabs,dispatches",
    [
        # 5 map-likes with a store each and one fold; the last axis is
        # stretched until one array holds `workers` slab budgets
        ((10, 9), (3, 3), 2, 2, 11),  # rows do not divide: 4 + 3 + 3
        ((10, 9), (3, 3), 3, 3, 11),
        ((ROWS, COLS), (P, 1), 3, 3, 11),  # 4 rows of partitions, 3 workers
        ((23,), (4,), 3, 3, 11),  # 1-D
        ((2, 6), (2, 1), 3, 2, 11),  # n0 < workers: one slab per grid row
        # a 1 x p grid has nothing to cut; array_create lays out p x 1
        ((6, 8), (1, 4), 2, 1, 2),
    ],
)
def test_slabs_bitwise_equal_to_the_per_rank_loop(
    shape, grid, workers, slabs, dispatches
):
    p = int(np.prod(grid))
    shape = (*shape[:-1],
             shape[-1] * -(-workers * fuse.SLAB_BYTES // (8 * int(np.prod(shape)))))
    with Machine(p, backend="sim") as machine:
        want_arrays, want_total = _slab_workload(machine, shape, grid, fused=False)
    backend = CountingThreads(workers)
    with Machine(p, backend=backend) as machine:
        cut = BlockDistribution(shape, grid).slab_rows(min(workers, grid[0]))
        assert len(cut) == slabs
        got_arrays, got_total = _slab_workload(machine, shape, grid, fused=True)
        assert backend.calls == dispatches
    for want, got in zip(want_arrays, got_arrays):
        assert want.tobytes() == got.tobytes()
    assert repr(want_total) == repr(got_total)


def test_store_error_in_a_dispatched_task_propagates():
    """A result the target's dtype cannot hold fails in the store task:
    the caller sees numpy's own exception, and the machine dispatches
    again."""
    def kernel(block, grids, env):
        return np.full(block.shape, "x", dtype=object)

    bad = _vec_only(1, kernel)
    backend = CountingThreads(WORKERS)
    with Machine(P, backend=backend) as machine:
        ctx = SkilContext(machine)
        data = np.arange(BIG_ROWS * BIG_COLS, dtype=float).reshape(BIG_ROWS, BIG_COLS)
        a = make_array(machine, "big", data)
        dst = make_array(machine, "big", np.zeros_like(data))
        with pytest.raises(ValueError, match="could not convert string"):
            ctx.array_map(bad, a, dst)
        assert backend.calls == 2  # the kernels ran, the store raised
        assert ctx.current_rank is None
        ctx.array_map(make_fn("generated", 1, None, []), a, dst)
        assert backend.calls == 4
        np.testing.assert_array_equal(
            dst.global_view(), reference("generated", 1, data, None)
        )


@pytest.mark.parametrize(
    "backend_name,known_env_free,fused,piece",
    [
        # the first of three dispatched slabs of a big array
        ("threads", True, True, (BIG_ROWS // P, BIG_COLS)),
        ("sim", True, True, (ROWS, COLS)),  # the pool
        ("sim", None, True, (ROWS, COLS)),  # the pool, judged by skil_fn
        ("sim", True, False, (ROWS // P, COLS)),  # a partition
        ("threads", None, False, (ROWS // P, COLS)),
    ],
)
def test_result_that_does_not_fit_its_piece_is_a_skeleton_error(
    backend_name, known_env_free, fused, piece
):
    def lopsided(block, grids, env):
        return np.zeros((3, 5))

    if known_env_free:
        lopsided.env_free = True
    fn = _vec_only(1, lopsided)
    layout = "big" if piece[1] == BIG_COLS else "block"
    with Machine(P, backend=make_backend(backend_name)) as machine:
        ctx = SkilContext(machine, fused=fused)
        data = np.zeros(LAYOUTS[layout][1])
        a = make_array(machine, layout, data)
        dst = make_array(machine, layout, data)
        for call in (
            lambda: ctx.array_map(fn, a, dst),
            lambda: ctx.array_fold(fn, PLUS, a),
        ):
            with pytest.raises(SkeletonError) as exc:
                call()
            message = str(exc.value)
            assert "'lopsided'" in message and "(3, 5)" in message
            assert str(piece) in message
            assert ctx.current_rank is None


def test_more_workers_than_cores_under_a_short_switch_interval():
    """Slabs share the pools between worker threads: 60 in-situ rounds
    on 5 workers, preempted every few bytecodes, must leave exactly
    what the per-rank loop leaves (a slab written into or read from
    another slab's rows would not)."""
    import sys

    # 2.5 MiB an array: every call touches 5 slab budgets and dispatches
    shape, grid, rounds = (40, 8192), (8, 1), 60

    def run(machine, fused):
        ctx = SkilContext(machine, fused=fused)
        k = _slab_kernels()
        a = DistArray(machine, BlockDistribution(shape, grid), float)
        a.fill_from_global(np.arange(40 * 8192, dtype=float).reshape(shape) / 9.0)
        b = DistArray(machine, BlockDistribution(shape, grid), float)
        for _ in range(rounds):
            ctx.array_map(k["map"], a, a)
            ctx.array_zip(k["zip"], a, b, b)
        return a.global_view().tobytes(), b.global_view().tobytes()

    with Machine(8, backend="sim") as machine:
        want = run(machine, fused=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        backend = CountingThreads(5)
        with Machine(8, backend=backend) as machine:
            assert run(machine, fused=True) == want
        assert backend.calls == 4 * rounds  # kernel and store, map and zip
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# cache-sized slabs on sim
# ---------------------------------------------------------------------------


def _counted(kernels):
    """The kernels of ``_slab_kernels``, each logging the rows it is given."""
    rows = {name: [] for name in kernels}

    def wrap(name, fn):
        vec = fn.vectorized

        def counting(*args):
            grids = args[-2]
            rows[name].append(len(grids[0]))
            return vec(*args)

        counting.env_free = True
        return _vec_only(fn.ops, counting)

    return {name: wrap(name, fn) for name, fn in kernels.items()}, rows


def _big_call(skeleton, ctx, machine, kernels):
    """One skeleton call over big arrays; returns its value as bytes."""
    shape = (BIG_ROWS, BIG_COLS)
    data = np.arange(BIG_ROWS * BIG_COLS, dtype=float).reshape(shape) / 7.0
    a = DistArray.from_global(machine, data)
    b = DistArray.from_global(machine, data[::-1].copy())
    dst = DistArray.from_global(machine, np.zeros(shape))
    if skeleton == "map":
        ctx.array_map(kernels["map"], a, dst)
    elif skeleton == "zip":
        ctx.array_zip(kernels["zip"], a, b, dst)
    elif skeleton == "fold":
        return repr(ctx.array_fold(kernels["conv"], PLUS, a))
    else:
        dst = ctx.array_create(2, shape, (0, 0), (-1, -1), kernels["init"])
    return dst.global_view().tobytes()


KERNEL_OF = {"map": "map", "zip": "zip", "fold": "conv", "create": "init"}


@pytest.mark.parametrize("p", [4, 16, 64])
@pytest.mark.parametrize("skeleton", ["map", "zip", "fold", "create"])
def test_sim_cuts_big_calls_into_slabs_bitwise_equal(skeleton, p):
    """Above the slab budget a known env-free kernel runs once per
    cache-sized slab on sim, and the values are the per-rank loop's and
    the threads backend's, bit for bit."""
    got = {}
    for name, fused in (("slabs", True), ("ranks", False), ("threads", True)):
        kernels, rows = _counted(_slab_kernels())
        backend = "threads" if name == "threads" else "sim"
        with Machine(p, backend=backend, workers=WORKERS) as machine:
            got[name] = _big_call(skeleton, SkilContext(machine, fused=fused),
                                  machine, kernels)
        if name == "slabs":
            cut = rows[KERNEL_OF[skeleton]]
            assert len(cut) > 1  # not vacuous: the call was cut
            assert sum(cut) == BIG_ROWS
            n_arrays = {"create": 1, "zip": 3}.get(skeleton, 2)
            assert len(cut) == min(n_arrays * BIG_ROWS * BIG_COLS * 8
                                   // fuse.SLAB_BYTES, p)
    assert got["slabs"] == got["ranks"] == got["threads"]


@pytest.mark.parametrize("case", ["p1", "one_grid_row", "below_budget"])
def test_what_keeps_one_slab_on_sim(case):
    """p = 1 and a grid of one row have nothing to cut however big the
    arrays, and a call touching less than a slab budget is not cut."""
    log = []

    def vec(block, grids, env):
        log.append(len(grids[0]))
        return block * 2.0

    fn = _vec_only(1, vec)
    p, grid = {"p1": (1, (1, 1)), "one_grid_row": (4, (1, 4))}.get(case, (16, (16, 1)))
    shape = (16, 16) if case == "below_budget" else (BIG_ROWS, BIG_COLS)
    with Machine(p, backend="sim") as machine:
        ctx = SkilContext(machine)
        data = np.ones(shape)
        a, dst = (DistArray(machine, BlockDistribution(shape, grid), float)
                  for _ in range(2))
        a.fill_from_global(data)
        ctx.array_map(fn, a, dst)
        assert log == [shape[0]]
        np.testing.assert_array_equal(dst.global_view(), 2.0 * data)


def test_stacked_fold_reduces_slab_by_slab():
    """A ``reduce_all`` fold over several slabs reduces each slab's stack
    of blocks on its own (never a pool-sized concatenation) and equals
    ``functools.reduce`` over the converted elements."""
    import functools

    stacks = []

    class Largest:
        ops = 1.0
        commutative_associative = True

        def __call__(self, x, y):
            return max(x, y)

        def reduce_all(self, x):
            stacks.append(x.shape)
            return x.max(axis=-1)

    p = 16
    conv = _slab_kernels()["conv"]
    with Machine(p, backend="sim") as machine:
        data = np.sin(np.arange(BIG_ROWS * BIG_COLS)).reshape(BIG_ROWS, BIG_COLS)
        a = DistArray.from_global(machine, data)
        got = SkilContext(machine).array_fold(conv, Largest(), a)
    want = functools.reduce(
        max, (data * data + np.arange(BIG_ROWS)[:, None]).ravel().tolist()
    )
    assert got == want
    *local, tree = stacks
    assert len(local) > 1 and sum(s[0] for s in local) == p
    assert all(s == (s[0], BIG_ROWS * BIG_COLS // p) for s in local)
    assert tree == (p,)


# ---------------------------------------------------------------------------
# the boxed walk
# ---------------------------------------------------------------------------
def _ndindex_walk(f, ins, like, rank):
    """The element walk as it was written before it moved into C:
    ``np.ndindex`` over the partition, a tuple of Python ints per element."""
    out = np.empty(like.local(rank).shape, dtype=object)
    vecs = like.local_index_vectors(rank)
    for ix in np.ndindex(*(len(v) for v in vecs)):
        gix = tuple(int(v[i]) for v, i in zip(vecs, ix))
        out[ix] = f(*(b[ix] for b in ins), gix)
    return out


#: (distribution, grid) per layout
WALK_LAYOUTS = {
    "block-1d": (BlockDistribution((7,), (4,)), (4,)),
    "cyclic-1d": (CyclicDistribution((3,), (4,)), (4,)),
    "block-2d": (BlockDistribution((5, 3), (2, 2)), (2, 2)),
    "block-cyclic-2d": (BlockCyclicDistribution((9, 4), (2, 2), (4, 1)), (2, 2)),
    "cyclic-3d": (CyclicDistribution((5, 2, 3), (2, 1, 2)), (2, 1, 2)),
    "block-cyclic-3d": (
        BlockCyclicDistribution((3, 5, 2), (4, 1, 1), (1, 2, 1)), (4, 1, 1)
    ),
}


#: layouts that leave the last rank an empty partition
EMPTY_LAST_RANK = ("cyclic-1d", "block-cyclic-3d")


@pytest.mark.parametrize("n_inputs", [0, 1, 2])
@pytest.mark.parametrize("layout", sorted(WALK_LAYOUTS))
def test_boxed_walk_matches_the_ndindex_walk(layout, n_inputs):
    """Same elements (same numpy scalar types), same index tuples of
    Python ints, same order, same stored objects — on every rank,
    empty partitions included."""
    from repro.skeletons import fuse

    dist, grid = WALK_LAYOUTS[layout]
    p = int(np.prod(grid))
    with Machine(p, backend="sim") as machine:
        dtypes = [np.float32, np.int16]
        arrays = []
        for k in range(n_inputs):
            arr = DistArray(machine, dist, dtypes[k])
            arr.fill_from_global(
                np.arange(np.prod(dist.shape)).reshape(dist.shape) * (k + 2)
            )
            arrays.append(arr)
        like = arrays[0] if arrays else DistArray(machine, dist, float)
        for r in range(p):
            ins = [a.local(r) for a in arrays]
            logs = ([], [])

            def make_f(log):
                def f(*args):
                    *elems, gix = args
                    log.append(
                        (tuple((type(e), e) for e in elems), gix,
                         tuple(type(i) for i in gix))
                    )
                    return (sum(elems), gix)

                return f

            want = _ndindex_walk(make_f(logs[0]), ins, like, r)
            got = fuse._boxed_block(make_f(logs[1]), ins, like, r)
            assert logs[0] == logs[1]
            assert all(t is int for *_, types in logs[1] for t in types)
            assert got.shape == want.shape == like.local(r).shape
            assert got.dtype == object
            assert got.tolist() == want.tolist()
        if layout in EMPTY_LAST_RANK:
            assert like.local(p - 1).size == 0


@pytest.mark.parametrize(
    "result", [(1, 2), np.array([1.0, 2.0]), None], ids=["tuple", "array", "None"]
)
def test_boxed_result_is_stored_as_one_object(result):
    """Whatever a scalar-only function returns is one element of an
    object array, also where numpy would otherwise unpack a sequence."""
    with Machine(P, backend="sim") as machine:
        ctx = SkilContext(machine)
        a = make_array(machine, "cyclic", np.zeros((ROWS, COLS)))
        dst = DistArray(machine, CyclicDistribution((ROWS, COLS), (P, 1)), object)
        ctx.array_map(skil_fn(ops=1)(lambda v, ix: result), a, dst)
        for r in range(P):
            block = dst.local(r)
            assert block.shape == a.local(r).shape
            assert all(x is result for x in block.flat)
