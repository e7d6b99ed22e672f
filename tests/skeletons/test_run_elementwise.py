"""Which path ``fuse.run_elementwise`` takes, observed from outside.

map, zip, fold and create reach their kernels only through the one
executor, so one table covers all four.  A path is recognised by what it
does to the objects the test hands in: how often the backend's
``run_blocks`` is called, how often the kernel runs, and which env type
each kernel call sees.
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
from repro.machine.machine import Machine
from repro.skeletons import PLUS, SkilContext, fuse, skil_fn

P, ROWS, COLS, WORKERS = 4, 8, 3, 2

#: (backend, layout, kind, ctx.fused) -> path of the first and of the
#: second call with the same function; first matching row wins, "*" is
#: any.  Rows are in the order the executor tests its conditions.
TABLE = [
    # a scalar-only function has no kernel to send anywhere
    (("*", "*", "scalar", "*"), ("boxed", "boxed")),
    # 1. every array pooled.  Parallel backend and known env-free: one
    #    slab of the pool per worker, whatever ctx.fused says
    (("threads", "block", "generated", "*"), ("slabs", "slabs")),
    #    a hand-written kernel is known env-free once the one-slab call
    #    has probed it
    (("threads", "block", "handwritten", True), ("pool", "slabs")),
    #    ctx.fused: one call over the pool
    (("*", "block", "generated", True), ("pool", "pool")),
    (("*", "block", "handwritten", True), ("pool", "pool")),
    (("*", "block", "fused_form", True), ("pool", "pool")),
    #    an env-reading kernel aborts the probe and is not tried again
    (("*", "block", "reads_rank", True), ("probe+ranks", "ranks")),
    # 2. everything else: the per-rank loop — also a strided layout with
    #    an env-free kernel on a parallel backend (per-rank tasks for it
    #    measured slower than the loop and were dropped)
    (("*", "*", "*", "*"), ("ranks", "ranks")),
]

#: path -> (run_blocks calls, what each function call logged: the env
#: type a kernel saw, or "scalar" for an element-by-element call).
#: "slabs" dispatches the kernel and then the store of its results
#: (fold stores nothing: one call)
OBSERVED = {
    "boxed": (0, ["scalar"] * (ROWS * COLS)),
    "slabs": (2, ["FusedEnv"] * WORKERS),
    "pool": (0, ["FusedEnv"]),
    "ranks": (0, ["MapEnv"] * P),
    "probe+ranks": (0, ["FusedEnv"] + ["MapEnv"] * P),
}

KINDS = ["generated", "handwritten", "reads_rank", "fused_form", "scalar"]


def expected_paths(*case):
    for pattern, paths in TABLE:
        if all(want in ("*", got) for want, got in zip(pattern, case)):
            return paths
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


def owner_of_row(rows, layout):
    return rows // (ROWS // P) if layout == "block" else rows % P


def make_fn(kind, layout, log):
    """A fresh function of the given kind (probe memos live on the
    kernel object).  Kernels take ``(*blocks, grids, env)`` so the same
    function serves create (no block), map/fold (one) and zip (two).
    Env-free kinds compute ``2*sum(blocks) + row``, the others
    ``sum(blocks) + rank``."""

    def env_free_kernel(*args):
        *blocks, grids, env = args
        log.append(type(env).__name__)
        return 2.0 * sum(blocks) + grids[0]

    def rank_kernel(*args):
        *blocks, grids, env = args
        log.append(type(env).__name__)
        return sum(blocks) + float(env.rank) + 0 * grids[0]

    def whole_array_form(*args):
        *pools, grids, fenv = args
        log.append(type(fenv).__name__)
        return sum(pools) + owner_of_row(grids[0], layout) * 1.0

    def scalar(*args):
        *elems, ix = args
        log.append("scalar")
        return 2.0 * sum(elems) + ix[0]

    if kind == "scalar":
        return skil_fn(ops=1)(scalar)
    if kind == "generated":
        env_free_kernel.env_free = True  # what lang/codegen.py attaches
        return skil_fn(ops=1, vectorized=env_free_kernel)(scalar)
    if kind == "handwritten":
        return skil_fn(ops=1, vectorized=env_free_kernel)(scalar)
    if kind == "reads_rank":
        return skil_fn(ops=1, vectorized=rank_kernel)(scalar)
    rank_kernel.env_free = False
    return skil_fn(ops=1, vectorized=rank_kernel, fused=whole_array_form)(scalar)


def make_array(machine, layout, data):
    cls = BlockDistribution if layout == "block" else CyclicDistribution
    arr = DistArray(machine, cls(data.shape, (P, 1)), data.dtype)
    arr.fill_from_global(data)
    return arr


def reference(kind, layout, n_inputs, data):
    rows = np.arange(ROWS, dtype=float)[:, None]
    total = n_inputs * data  # every input holds the same data
    if kind in ("reads_rank", "fused_form"):
        return total + owner_of_row(rows, layout)
    return 2.0 * total + rows


def call_skeleton(skeleton, ctx, fn, a, b, dst):
    """Make the call; return (value it produced, number of inputs)."""
    if skeleton == "map":
        ctx.array_map(fn, a, dst)
        return dst.global_view(), 1
    if skeleton == "zip":
        ctx.array_zip(fn, a, b, dst)
        return dst.global_view(), 2
    if skeleton == "fold":
        return ctx.array_fold(fn, PLUS, a), 1
    arr = ctx.array_create(2, (ROWS, COLS), (0, 0), (-1, -1), fn)
    value = arr.global_view()
    ctx.array_destroy(arr)
    return value, 0


@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend_name", ["sim", "threads"])
@pytest.mark.parametrize(
    "skeleton,layout",
    [(s, lay) for s in ("map", "zip", "fold", "create")
     for lay in ("block", "cyclic")
     if (s, lay) != ("create", "cyclic")],  # array_create builds block layouts only
)
def test_path_taken(skeleton, layout, backend_name, kind, fused):
    backend = make_backend(backend_name)
    with Machine(P, backend=backend) as machine:
        ctx = SkilContext(machine, fused=fused)
        # small integers: sums are exact, so fold agrees across paths too
        data = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
        a, b, dst = (make_array(machine, layout, d)
                     for d in (data, data, np.zeros_like(data)))
        log = []
        fn = make_fn(kind, layout, log)
        for path in expected_paths(backend_name, layout, kind, fused):
            del log[:]
            backend.calls = 0
            value, n_inputs = call_skeleton(skeleton, ctx, fn, a, b, dst)
            dispatches, logged = OBSERVED[path]
            if path == "slabs" and skeleton == "fold":
                dispatches = 1
            assert backend.calls == dispatches, path
            assert log == logged, path
            want = reference(kind, layout, n_inputs, data)
            if skeleton == "fold":
                want = want.sum()
            np.testing.assert_array_equal(
                value, np.broadcast_to(want, np.shape(value))
            )


def test_fallback_inside_a_dispatched_task_lands_on_the_per_rank_loop():
    """A kernel marked env-free whose env use is conditional: the slab
    that reads the env raises FusionFallback (workers only ever get a
    FusedEnv), and the whole call is re-run per rank with equal values."""
    log = []

    def kernel(block, grids, env):
        log.append(type(env).__name__)
        if grids[0][0, 0] >= ROWS // 2:
            return 2.0 * block + grids[0] + 0 * env.rank
        return 2.0 * block + grids[0]

    kernel.env_free = True
    fn = skil_fn(ops=1, vectorized=kernel)(lambda v, ix: 2.0 * v + ix[0])
    backend = CountingThreads(2)
    with Machine(P, backend=backend) as machine:
        ctx = SkilContext(machine, fused=True)
        data = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
        a = make_array(machine, "block", data)
        dst = make_array(machine, "block", np.zeros_like(data))
        ctx.array_map(fn, a, dst)
        assert backend.calls == 1
        # counts, not order: a task still queued behind the failed one
        # may log its FusedEnv while the per-rank loop is already running
        assert log.count("MapEnv") == P
        assert 1 <= log.count("FusedEnv") <= WORKERS
        np.testing.assert_array_equal(
            dst.global_view(), reference("generated", "block", 1, data)
        )


@pytest.mark.parametrize("traced", [False, True])
def test_kernel_error_in_a_dispatched_task_propagates(traced):
    """A kernel that raises anything but FusionFallback in one slab: the
    caller sees that very exception (no fallback, no wrapper), no
    ``procId`` is left behind, and the machine dispatches again."""

    class Boom(Exception):
        pass

    def kernel(block, grids, env):
        if grids[0][0, 0] == ROWS // WORKERS:  # the second slab only
            raise Boom("slab 1")
        return 2.0 * block + grids[0]

    kernel.env_free = True
    bad = skil_fn(ops=1, vectorized=kernel)(lambda v, ix: 2.0 * v + ix[0])
    backend = CountingThreads(2)
    with Machine(P, backend=backend, trace_level=int(traced)) as machine:
        ctx = SkilContext(machine, fused=True)
        data = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
        a = make_array(machine, "block", data)
        dst = make_array(machine, "block", np.zeros_like(data))
        with pytest.raises(Boom) as exc:
            ctx.array_map(bad, a, dst)
        assert type(exc.value) is Boom
        assert ctx.current_rank is None
        with pytest.raises(SkeletonError):
            ctx.proc_id()
        assert backend.calls == 1  # nothing was stored
        ctx.array_map(make_fn("generated", "block", []), a, dst)
        assert backend.calls == 3
        np.testing.assert_array_equal(
            dst.global_view(), reference("generated", "block", 1, data)
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
    fn = make_fn("generated", "block", [])

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
def _env_free(vec):
    vec.env_free = True
    return vec


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
        "init": _vec_only(2, _env_free(
            lambda g, e: np.sqrt(g[0] * 3.0 + 1.0) + last(g))),
        "map": _vec_only(3, _env_free(
            lambda b, g, e: np.sqrt(np.abs(b)) * 1.1 + g[0] - last(g))),
        "zip": _vec_only(2, _env_free(
            lambda x, y, g, e: x * 0.3 + y / 7.0 + last(g))),
        "conv": _vec_only(2, _env_free(lambda b, g, e: b * b + g[0])),
        "ident": _vec_only(0, _env_free(lambda b, g, e: b)),
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
        # 5 map-likes with a store each and one fold
        ((10, 9), (3, 3), 2, 2, 11),  # rows do not divide: 4 + 3 + 3
        ((10, 9), (3, 3), 3, 3, 11),
        ((ROWS, COLS), (P, 1), 3, 3, 11),  # 4 rows of partitions, 3 workers
        ((23,), (4,), 3, 3, 11),  # 1-D
        ((2, 6), (2, 1), 3, 1, 0),  # n0 < workers: the one inline call
        # a 1 x p grid has nothing to cut; array_create lays out p x 1
        ((6, 8), (1, 4), 2, 1, 2),
    ],
)
def test_slabs_bitwise_equal_to_the_per_rank_loop(
    shape, grid, workers, slabs, dispatches
):
    p = int(np.prod(grid))
    with Machine(p, backend="sim") as machine:
        want_arrays, want_total = _slab_workload(machine, shape, grid, fused=False)
    backend = CountingThreads(workers)
    with Machine(p, backend=backend) as machine:
        assert len(BlockDistribution(shape, grid).slab_rows(workers)) == slabs
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

    bad = _vec_only(1, _env_free(kernel))
    backend = CountingThreads(WORKERS)
    with Machine(P, backend=backend) as machine:
        ctx = SkilContext(machine)
        data = np.arange(ROWS * COLS, dtype=float).reshape(ROWS, COLS)
        a = make_array(machine, "block", data)
        dst = make_array(machine, "block", np.zeros_like(data))
        with pytest.raises(ValueError, match="could not convert string"):
            ctx.array_map(bad, a, dst)
        assert backend.calls == 2  # the kernels ran, the store raised
        assert ctx.current_rank is None
        ctx.array_map(make_fn("generated", "block", []), a, dst)
        assert backend.calls == 4
        np.testing.assert_array_equal(
            dst.global_view(), reference("generated", "block", 1, data)
        )


@pytest.mark.parametrize(
    "backend_name,known_env_free,fused,piece",
    [
        ("threads", True, True, (ROWS // WORKERS, COLS)),  # a slab
        ("sim", True, True, (ROWS, COLS)),  # the pool
        ("sim", None, True, (ROWS, COLS)),  # the pool, probing
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
    with Machine(P, backend=make_backend(backend_name)) as machine:
        ctx = SkilContext(machine, fused=fused)
        data = np.zeros((ROWS, COLS))
        a = make_array(machine, "block", data)
        dst = make_array(machine, "block", data)
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

    shape, grid, rounds = (40, 7), (8, 1), 60

    def run(machine, fused):
        ctx = SkilContext(machine, fused=fused)
        k = _slab_kernels()
        a = DistArray(machine, BlockDistribution(shape, grid), float)
        a.fill_from_global(np.arange(280, dtype=float).reshape(shape) / 9.0)
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
        with Machine(8, backend="threads", workers=5) as machine:
            assert run(machine, fused=True) == want
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# cache-sized slabs on sim
# ---------------------------------------------------------------------------
#: a (BIG_ROWS, BIG_COLS) float array holds two slab budgets, so even a
#: create (no source) is cut on sim
BIG_COLS = 128
BIG_ROWS = 2 * fuse.SLAB_BYTES // (8 * BIG_COLS)


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


@pytest.mark.parametrize("case", ["fused_form", "probed", "p1"])
def test_what_keeps_one_slab_on_sim(case):
    """An explicit ``fused=`` form and the call that probes a hand-written
    kernel take the pool whole, and p = 1 has nothing to cut — however
    big the arrays."""
    log = []

    def vec(block, grids, env):
        log.append(len(grids[0]))
        return block * 2.0

    def whole(pool, grids, fenv):
        return vec(pool, grids, fenv)

    fn = _vec_only(1, vec)
    if case == "fused_form":
        vec.env_free = True
        fn = skil_fn(ops=1, vectorized=vec, fused=whole)(lambda v, ix: v * 2.0)
    p = 1 if case == "p1" else 16
    if case == "p1":
        vec.env_free = True
    with Machine(p, backend="sim") as machine:
        ctx = SkilContext(machine)
        data = np.ones((BIG_ROWS, BIG_COLS))
        a = DistArray.from_global(machine, data)
        dst = DistArray.from_global(machine, np.zeros_like(data))
        ctx.array_map(fn, a, dst)
        assert log == [BIG_ROWS]
        if case == "probed":  # known env-free from the second call on
            ctx.array_map(fn, a, dst)
            assert len(log) > 2
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
