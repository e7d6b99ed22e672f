"""Interned geometry: machines and arrays of one shape share their
topologies (``repro.machine.topology.TOPOLOGIES``, keyed by
``DISTR_*`` constant, embedding and mesh shape) and block distributions
(``repro.arrays.distribution.BLOCK_DISTRIBUTIONS``, keyed by shape, grid
and overlap).

Pinned here: sharing leaks no state (clocks, statistics, records and
memory accounting stay per machine, a warm run equals a cold one, and a
machine is collectable while its topologies stay shared); embeddings
never mix; both tables stay under ``INTERN_BYTES`` over a p-sweep to
65 536 and their accounting covers what a warm value really holds;
threads asking for one key at once get one value; every array a shared
value hands out is read-only.
"""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.apps.shortest_paths import random_distance_matrix, shpaths
from repro.arrays.darray import DistArray
from repro.arrays.distribution import BLOCK_DISTRIBUTIONS, BlockDistribution
from repro.check.charging import _compare_machines
from repro.machine.machine import (
    DISTR_DEFAULT,
    DISTR_RING,
    DISTR_TORUS2D,
    Machine,
    _NaiveRing,
)
from repro.machine.topology import (
    INTERN_BYTES,
    TOPOLOGIES,
    EdgePlan,
    InternTable,
    Ring,
)
from repro.skeletons import SkilContext

DISTRS = (DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D)
GRAPH = random_distance_matrix(16, density=0.25, seed=3)


def _kept(table, value) -> bool:
    return any(v is value for v in table._values.values())


class TestSharing:
    def test_two_machines_share_geometry_and_nothing_else(self):
        m1, m2 = (Machine(16, trace_level=2) for _ in range(2))
        for distr in DISTRS:
            assert m1.topology(distr) is m2.topology(distr)
        a1 = DistArray.from_global(m1, np.ones((8, 8)), DISTR_TORUS2D)
        a2 = DistArray.uninitialized(m2, (8, 8), np.float64, DISTR_TORUS2D)
        assert a1.dist is a2.dist and a1.pool is not a2.pool

        # a run on one machine moves nothing on the other ...
        shpaths(SkilContext(m1), GRAPH)
        assert m2.time == 0.0 and not m2.network.clocks.any()
        assert m2.stats.messages == 0 and m2.stats.records == []
        assert [m2.memory_used(r) for r in range(16)] == [
            a2.partition_nbytes(r) for r in range(16)
        ]
        assert not a2.global_view().any() and a1.global_view().all()

        # ... and the same run on the other, warm, is the same run
        shpaths(SkilContext(m2), GRAPH)
        assert _compare_machines(m1, m2, "warm") is None

        # the tables refer to no machine: it goes when its user does
        topo, ref = m1.topology(DISTR_TORUS2D), weakref.ref(m1)
        del m1, a1
        gc.collect()
        assert ref() is None
        assert _kept(TOPOLOGIES, topo) and _kept(BLOCK_DISTRIBUTIONS, a2.dist)

    def test_skeleton_creates_share_the_distribution(self):
        ctx = SkilContext(Machine(4))
        a = ctx.array_create(2, (8, 8), (0, 0), (-1, -1), lambda ix: 1.0)
        b = DistArray.uninitialized(Machine(4), (8, 8), np.float64)
        assert a.dist is b.dist is BlockDistribution.shared([8, 8], (4, 1))

    def test_a_direct_construction_stays_cold_and_unshared(self):
        shared = BlockDistribution.shared((8, 8), (2, 2))
        direct = BlockDistribution((8, 8), (2, 2))
        assert direct is not shared and not direct._bounds_cache
        assert list(BLOCK_DISTRIBUTIONS._values.values()) == [shared]

    @pytest.mark.parametrize("naive_first", [False, True])
    @pytest.mark.parametrize("p", [4, 9, 16, 64])
    def test_embeddings_never_mix(self, naive_first, p):
        g = int(p ** 0.5)
        for folded in (False, True) if naive_first else (True, False):
            m = Machine(p, use_virtual_topologies=folded)
            torus, ring = m.topology(DISTR_TORUS2D), m.topology(DISTR_RING)
            assert torus.folded is folded
            assert type(ring) is (Ring if folded else _NaiveRing)
            wrap = max(torus.edge_hops(s, d) for s, d in torus.edges())
            assert wrap == (min(g - 1, 2) if folded else g - 1)
        twin = Machine(p, use_virtual_topologies=not folded)
        for distr in DISTRS:
            assert m.topology(distr) is not twin.topology(distr)


class TestTheTablesAreBounded:
    def test_retained_bytes_stay_under_the_bound_over_a_p_sweep(self):
        built = 0
        for p in sorted({2**k for k in range(17)} | {3 * 2**k for k in range(15)}):
            m = Machine(p)
            ranks = np.arange(p)
            for distr in DISTRS:
                topo = m.topology(distr)
                m.network.allreduce(64, topo)  # closed-form tree plans
                m.network.shift_batch(ranks, (ranks + 1) % p, 64, topo)
                built += topo.nbytes
            BlockDistribution.shared((2 * p,), (p,)).part_sizes()
            assert TOPOLOGIES.nbytes <= INTERN_BYTES
            assert BLOCK_DISTRIBUTIONS.nbytes <= INTERN_BYTES
        assert built > 2 * INTERN_BYTES  # the bound was binding
        assert _kept(TOPOLOGIES, m.topology()) and len(TOPOLOGIES._values) < 3 * 32
        # a value over the bound on its own is handed out, never kept
        big = BlockDistribution.shared((2 * p,), (p,))
        assert big.nbytes > INTERN_BYTES and not _kept(BLOCK_DISTRIBUTIONS, big)

    def test_least_recently_used_goes_first(self):
        class Value:
            def __init__(self, nbytes):
                self.nbytes = nbytes

        table = InternTable(100)
        a = table.get("a", lambda: Value(40))
        table.get("b", lambda: Value(40))
        assert table.get("a", lambda: Value(0)) is a  # a hit refreshes it
        table.get("c", lambda: Value(40))
        assert list(table._values) == ["a", "c"]
        a.nbytes = 90  # a kept value grew: trimming drops the older one
        table.trim()
        assert list(table._values) == ["c"]
        big = table.get("big", lambda: Value(101))
        assert table.get("big", lambda: Value(101)) is not big
        assert list(table._values) == ["c"] and table.nbytes == 40

    @pytest.mark.parametrize(
        "shape, grid",
        [((1,), (1,)), ((64,), (64,)), ((4096,), (64,)), ((64, 65), (64, 1)),
         ((64, 64), (8, 8)), ((300, 300), (3, 3)), ((8, 8, 8), (2, 2, 2))],
    )
    def test_a_warm_distribution_holds_no_more_than_it_accounts(self, shape, grid):
        gc.collect()
        tracemalloc.start()
        try:
            d = BlockDistribution.shared(shape, grid)
            for r in range(d.p):
                d.bounds(r), d.index_vectors(r), d.index_grids(r), d.part_slices(r)
            d.owner_vectors(), d.global_index_grids(), d.part_sizes()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= d.nbytes == BLOCK_DISTRIBUTIONS.nbytes

    @pytest.mark.parametrize("p", [1, 4, 16, 64, 256])
    def test_a_warm_topology_holds_no_more_than_it_accounts(self, p):
        m = Machine(p)
        ranks = np.arange(p)
        gc.collect()
        tracemalloc.start()
        try:
            topo = m.topology(DISTR_TORUS2D)
            for k in (1, 2, 3):
                m.network.shift_batch(ranks, (ranks + k) % p, 64, topo)
            for root in range(min(p, 4)):
                m.network.allreduce(8, topo, root=root)
                m.network.gather(root, 8, topo)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= topo.nbytes == TOPOLOGIES.nbytes


def test_threads_building_machines_get_one_value_per_key():
    """More threads than cores, a tiny switch interval, and every round a
    new key all threads ask for at once: with nothing evicted, every
    lookup of a key hands out the same object (a miss builds under the
    table's lock, so no second thread builds a twin)."""
    seen: dict = {}
    rounds, barrier = 60, threading.Barrier(8)

    def work():
        for p in range(1, rounds + 1):
            barrier.wait(timeout=30)
            topo = Machine(p).topology(DISTR_RING)
            dist = BlockDistribution.shared((p, 3), (p, 1))
            seen.setdefault(("topology", p), set()).add(id(topo))
            seen.setdefault(("distribution", p), set()).add(id(dist))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 2 * rounds and all(len(ids) == 1 for ids in seen.values())


def test_every_array_a_shared_value_hands_out_is_read_only():
    m = Machine(16)
    dist = DistArray.from_global(m, np.zeros((8, 8)), DISTR_TORUS2D).dist
    arrays = [
        *dist.index_vectors(5), *dist.index_grids(5), *dist.global_index_grids(),
        dist.part_sizes(), *dist.owner_vectors(),
    ]
    ranks = np.arange(16)
    for distr in DISTRS:
        topo = m.topology(distr)
        m.network.shift_batch(ranks, (ranks + 5) % 16, 64, topo, sync=True)
        m.network.allreduce(8, topo)
        m.network.gather(3, 8, topo)
        arrays += [topo.place_vector(), *topo.placed_coords()]
        for value, _ in topo._plans.values():
            for plan in value if isinstance(value, tuple) else (value,):
                if isinstance(plan, EdgePlan):
                    arrays += [plan.srcs, plan.dsts, plan.hops_f, *(plan.order or ())]
    assert len(arrays) > 50
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0
