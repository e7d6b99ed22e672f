"""The kernels every Table 1 / Table 2 cell pays for, against slow
references: the Floyd–Warshall oracle against Dijkstra, the stacked
(min,+) step of the C comparator against the oracle, and the one-call
pivot fold against ``functools.reduce`` and the per-block fold."""

import heapq
import math
from functools import reduce

import numpy as np
import pytest

from repro.apps.gauss import (
    ELEMREC,
    MaxAbsInCol,
    gauss_full,
    make_elemrec,
    random_system,
)
from repro.apps.shortest_paths import (
    random_distance_matrix,
    round_up_to_grid,
    shortest_paths_oracle,
)
from repro.baselines.parix_c import make_c_machine, shpaths_c
from repro.machine.costmodel import SKIL
from repro.machine.machine import DISTR_DEFAULT, Machine
from repro.skeletons import SkilContext, skil_fn


def _dijkstra(dist: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths, one heap Dijkstra per source, in Python."""
    n = dist.shape[0]
    out = np.full((n, n), math.inf)
    for s in range(n):
        best = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > best[u]:
                continue
            for v in range(n):
                w = float(dist[u, v])
                if v != u and w != math.inf and d + w < best.get(v, math.inf):
                    best[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        for v, d in best.items():
            out[s, v] = d
    return out


def _graph_with_unreachable_pairs(n: int, seed: int) -> np.ndarray:
    """A sparse graph whose last vertex has no outgoing edge."""
    dist = random_distance_matrix(n, density=0.1, seed=seed)
    if n > 1:
        dist[-1, :-1] = np.inf
    return dist


class TestFloydWarshallOracle:
    @pytest.mark.parametrize("n", [1, 5, 17, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_dijkstra(self, n, seed):
        dist = _graph_with_unreachable_pairs(n, seed)
        got = shortest_paths_oracle(dist)
        np.testing.assert_array_equal(got, _dijkstra(dist))
        if n > 1:
            assert np.isinf(got).any()

    def test_leaves_its_input_alone(self):
        dist = _graph_with_unreachable_pairs(17, 3)
        before = dist.copy()
        shortest_paths_oracle(dist)
        np.testing.assert_array_equal(dist, before)


class TestStackedMinPlusComparator:
    @pytest.mark.parametrize("p", [4, 9])
    @pytest.mark.parametrize("old", [False, True])
    def test_shpaths_c_equals_the_oracle(self, p, old):
        machine = make_c_machine(p, old=old)
        n = round_up_to_grid(25, machine.mesh.rows)
        dist = random_distance_matrix(n, density=0.1, seed=p)
        result, _ = shpaths_c(machine, dist, old=old)
        np.testing.assert_array_equal(result, shortest_paths_oracle(dist))


def _records(rng, shape) -> np.ndarray:
    """Small integer magnitudes of both signs, so |val| ties are common."""
    recs = np.zeros(shape, ELEMREC)
    recs["val"] = rng.integers(-3, 4, shape).astype(float)
    recs["row"] = rng.integers(0, 6, shape)
    recs["col"] = rng.integers(0, 3, shape)
    return recs


def _same_pick(f: MaxAbsInCol, got, ref) -> None:
    """Equal records, or both ineligible (no record of column k, row >= k)."""
    if f._eligible(ref):
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    else:
        assert got["col"] == -1 and not f._eligible(got)


class TestMaxAbsInColReduceAll:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_one_dimensional_is_the_left_fold(self, k):
        rng = np.random.default_rng(k)
        f = MaxAbsInCol(k)
        for m in range(1, 12):
            for _ in range(40):
                recs = _records(rng, m)
                got = f.reduce_all(recs)
                assert got.shape == ()
                _same_pick(f, got, reduce(f, list(recs)))

    @pytest.mark.parametrize("k", [0, 2])
    def test_stacks_fold_row_by_row(self, k):
        rng = np.random.default_rng(10 + k)
        f = MaxAbsInCol(k)
        for shape in [(1, 1), (4, 7), (16, 3), (3, 2, 5)]:
            recs = _records(rng, shape)
            got = f.reduce_all(recs)
            assert got.shape == shape[:-1]
            for ix in np.ndindex(shape[:-1]):
                _same_pick(f, got[ix], reduce(f, list(recs[ix])))

    def test_ties_go_to_the_first_smallest_row(self):
        f = MaxAbsInCol(0)
        recs = np.zeros(6, ELEMREC)
        recs["val"] = [3, -7, 2, 7, -7, 1]
        recs["row"] = [0, 4, 1, 2, 2, 5]
        best = f.reduce_all(recs)
        assert (best["val"], best["row"]) == (7.0, 2)
        assert best.tobytes() == reduce(f, list(recs)).tobytes()

    def test_rows_with_no_eligible_record_give_the_neutral_record(self):
        f = MaxAbsInCol(3)
        recs = np.zeros((2, 4), ELEMREC)
        recs["val"] = 9.0
        recs["row"] = [[0, 1, 2, 5], [4, 4, 4, 4]]
        recs["col"] = [[3, 3, 3, 1], [0, 1, 2, 3]]
        got = f.reduce_all(recs)
        assert got[0].tolist() == (0.0, 0, -1)
        assert got[1].tobytes() == recs[1, 3].tobytes()
        # the neutral record loses against any real record
        assert f(got[0], recs[1, 3]).tobytes() == recs[1, 3].tobytes()


def _gauss_full_run(p, n, seed, fused=True, **machine_kw):
    with Machine(p, **machine_kw) as machine:
        ctx = SkilContext(machine, SKIL, fused=fused)
        a, b = random_system(n, seed=seed)
        perm = np.random.default_rng(seed).permutation(n)
        x, report = gauss_full(ctx, a[perm], b[perm])
        return x, report.seconds, machine.stats.messages, machine.stats.bytes_sent


class TestStackedPivotFold:
    """One ``reduce_all`` call on the ``(p, m)`` stack against the
    per-block fold: values bitwise, clocks and traffic exactly."""

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_gauss_full_stacked_equals_per_block(self, p):
        n = 2 * p + 16
        ref = _gauss_full_run(p, n, p, fused=False)
        got = _gauss_full_run(p, n, p)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1:] == ref[1:]

    def test_multi_slab_threads_run(self):
        ref = _gauss_full_run(4, 24, 1, fused=False)
        got = _gauss_full_run(4, 24, 1, backend="threads", workers=2)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1:] == ref[1:]

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_one_call_per_phase(self, p):
        """Row blocks: the local phase folds the ``(p, m)`` stack, the tree
        phase the ``p`` partials, and the pick is the whole-array one."""
        a, _ = random_system(2 * p, seed=p)
        shapes = []

        class Spy(MaxAbsInCol):
            def reduce_all(self, recs):
                shapes.append(recs.shape)
                return super().reduce_all(recs)

        ctx = SkilContext(Machine(p), SKIL)
        init = skil_fn(ops=1, vectorized=lambda g, env: a[g[0], g[1]])(
            lambda ix: a[ix]
        )
        arr = ctx.array_create(2, a.shape, (0, 0), (-1, -1), init, DISTR_DEFAULT)
        for k in range(2 * p):
            e = ctx.array_fold(make_elemrec, Spy(k), arr)
            col = np.abs(a[k:, k])
            assert (int(e["row"]), int(e["col"])) == (k + int(col.argmax()), k)
        assert shapes == [(p, 2 * 2 * p), (p,)] * (2 * p)
