"""Charge plans: the clock-independent half of a shift or a collective
round is built once per pattern on the topology
(:class:`repro.machine.topology.EdgePlan`) and ``Network`` only updates
clocks.

Pinned here: planned charging equals the scalar reference loops of
``repro.check.charging`` bit for bit (clocks, every ``TraceStats``
field, records, timelines, metrics) on first and on repeated use; a
repeated pattern does no hop or validity work; bad patterns keep
raising; the memo — plans and what they memoize — stays under
``PLAN_STORE_BYTES``; priced wire vectors and kept work terms never go
stale.  Machines of one shape and embedding share their topologies
(``TOPOLOGIES``), so a plan one of them stored is warm for the next
(``tests/machine/test_intern.py`` pins the sharing itself).
"""

import gc
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.arrays.distribution import BLOCK_DISTRIBUTIONS, BlockDistribution
from repro.check.charging import (
    _compare_machines,
    _ref_broadcast,
    _ref_fan,
    _ref_reduce,
    _ref_shift,
    _stats_tuple,
)
from repro.check.tracecheck import compare_observers
from repro.errors import MachineError, TopologyError
from repro.eval.tracecmd import run_traced
from repro.machine import topology as topology_mod
from repro.machine.charge import Charge
from repro.machine.costmodel import DPFL, T800_PARSYTEC
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.topology import PLAN_STORE_BYTES, TOPOLOGIES, VirtualTopology
from repro.obs.analysis import analyze_machine, run_whatif

TRACE = {
    "off": {},
    "metrics": {"trace_level": 1},
    "record": {"trace_level": 2, "trace_mode": "record"},
    "stream": {"trace_level": 2, "trace_mode": "stream"},
}

#: rank 1 sends then receives, rank 2 receives then sends, rank 6 receives
#: then sends, rank 5 sends to itself, ranks 0/3/4/7 do one thing only
MIXED = [(1, 2), (0, 1), (2, 3), (5, 5), (7, 6), (6, 4)]
ROTATION = [(r, (r + 3) % 8) for r in range(8)]
PER_SOURCE = {s: 17 * s * s + (s % 3) * 1000 for s in range(8)}


def _pair(p=8, **kwargs):
    return Machine(p, **kwargs), Machine(p, **kwargs)


def _skew_clocks(*machines):
    sec = np.linspace(0.0, 3e-4, machines[0].p) ** 1.5
    for m in machines:
        m.network.compute(sec[::-1].copy())


def _assert_same(m_ref, m_new, label=""):
    assert _compare_machines(m_ref, m_new, label) is None
    if m_ref.stream_obs is not None:
        assert compare_observers(m_ref.stream_obs, m_new.stream_obs) == []


class TestShiftsMatchTheScalarReference:
    @pytest.mark.parametrize("trace", TRACE)
    @pytest.mark.parametrize("sync", [False, True])
    @pytest.mark.parametrize("pairs", [MIXED, ROTATION], ids=["mixed", "rotation"])
    @pytest.mark.parametrize("nbytes", [0, 4096, PER_SOURCE], ids=["0", "4k", "map"])
    def test_first_and_repeated_use(self, trace, sync, pairs, nbytes):
        m_ref, m_new = _pair(**TRACE[trace])
        _skew_clocks(m_ref, m_new)
        for distr in (DISTR_TORUS2D, DISTR_RING, DISTR_TORUS2D, DISTR_TORUS2D):
            _ref_shift(m_ref.network, pairs, nbytes, m_ref.topology(distr), sync, "t")
            m_new.network.shift(pairs, nbytes, m_new.topology(distr), sync=sync, tag="t")
            _assert_same(m_ref, m_new, f"{distr} sync={sync}")

    def test_shift_batch_takes_arrays_and_lists_alike(self):
        m_a, m_b = _pair(trace_level=2)
        srcs, dsts = zip(*MIXED)
        m_a.network.shift_batch(list(srcs), list(dsts), 100, m_a.topology())
        m_b.network.shift_batch(
            np.array(srcs, dtype=np.int32), np.array(dsts)[::1], np.int64(100),
            m_b.topology(),
        )
        _assert_same(m_a, m_b)


class TestTreeAndFanPlans:
    @pytest.mark.parametrize("trace", TRACE)
    @pytest.mark.parametrize("sync", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 16])
    def test_interleaved_roots_match_the_scalar_rounds(self, trace, sync, p):
        # p = 2, 3, 4, 7: every round is a wave of one, two or three edges
        m_ref, m_new = _pair(p, **TRACE[trace])
        _skew_clocks(m_ref, m_new)
        t_ref, t_new = m_ref.topology(DISTR_RING), m_new.topology(DISTR_RING)
        for root, nb in [(3 % p, 64), (0, 4096), (3 % p, 1), (0, 0), (3 % p, 777)]:
            _ref_broadcast(m_ref.network, root, nb, t_ref, sync, "b")
            m_new.network.broadcast(root, nb, t_new, sync=sync, tag="b")
            _ref_reduce(m_ref.network, root, nb, t_ref, 2e-6, sync, "r")
            m_new.network.reduce(root, nb, t_new, 2e-6, sync=sync, tag="r")
            _assert_same(m_ref, m_new, f"root={root}")

    @pytest.mark.parametrize("trace", TRACE)
    def test_gather_and_scatter_share_one_plan(self, trace):
        for p in (9, 2, 3, 4):  # fans of eight edges, and of one to three
            m_ref, m_new = _pair(p, **TRACE[trace])
            _skew_clocks(m_ref, m_new)
            t_ref, t_new = m_ref.topology(), m_new.topology()
            root = p // 2
            sizes = [100 * r + 1 for r in range(p)]
            for nbytes in (256, sizes, 3):
                _ref_fan(m_ref.network, root, nbytes, t_ref, "g", gather=True)
                m_new.network.gather(root, nbytes, t_new, tag="g")
                _ref_fan(m_ref.network, root, nbytes, t_ref, "s", gather=False)
                m_new.network.scatter(root, nbytes, t_new, tag="s")
                _assert_same(m_ref, m_new, f"p={p}")
            assert [k for k in t_new._plans if k[0] == "fan"] == [("fan", root)]


class TestPlansAreReused:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = Counter()
        hops_vec, unique = VirtualTopology.hops_vec, np.unique

        def counting_hops_vec(self, srcs, dsts):
            calls["hops_vec"] += 1
            return hops_vec(self, srcs, dsts)

        def counting_unique(*args, **kwargs):
            calls["unique"] += 1
            return unique(*args, **kwargs)

        monkeypatch.setattr(VirtualTopology, "hops_vec", counting_hops_vec)
        monkeypatch.setattr(np, "unique", counting_unique)
        return calls

    def test_second_charge_does_no_hop_or_validity_work(self, counted):
        m_ref, m_new = _pair(16)
        _skew_clocks(m_ref, m_new)
        net, topo = m_new.network, m_new.topology(DISTR_TORUS2D)
        srcs = np.arange(16)
        dsts = (srcs + 4) % 16
        pairs = list(zip(srcs.tolist(), dsts.tolist()))

        net.shift_batch(srcs, dsts, 128, topo)
        net.broadcast(5, 128, topo)
        net.gather(5, 128, topo)
        assert counted["hops_vec"] == 3 and counted["unique"] == 0
        plans = {key: plan for key, (plan, _) in topo._plans.items()}
        counted.clear()

        # other byte counts, the other sync mode, another cost model and
        # a reset: same plans, nothing recomputed
        net.shift_batch(srcs.copy(), dsts.copy(), 4096, topo, sync=True)
        net.reduce(5, 7, topo, combine_seconds=1e-6)
        net.cost = m_new.cost.with_(t_byte=2.5e-6, t_setup=1e-5)
        net.shift_batch(srcs, dsts, np.arange(16) * 10, topo)
        m_new.reset()
        _skew_clocks(m_new)
        net.shift(pairs, 64, topo, sync=True)
        net.broadcast(5, 1 << 20, topo, sync=True)
        net.scatter(5, 9, topo)
        assert counted == Counter()
        assert {key: plan for key, (plan, _) in topo._plans.items()} == plans
        # the plans grew by their priced wire vectors, and the store knows
        assert all(size == plan.nbytes for plan, size in topo._plans.values())

        # ... and what the reused plans charged is still the reference
        ref, t_ref = m_ref.network, m_ref.topology(DISTR_TORUS2D)
        ref.cost = net.cost
        m_ref.reset()
        _skew_clocks(m_ref)
        _ref_shift(ref, pairs, 64, t_ref, True, "shift")
        _ref_broadcast(ref, 5, 1 << 20, t_ref, True, "bcast")
        _ref_fan(ref, 5, 9, t_ref, "scatter", gather=False)
        _assert_same(m_ref, m_new)

    def test_plans_are_per_topology(self):
        """Per topology, not per machine: a second machine of the same
        shape and embedding shares the ring and finds its plan warm; the
        naive embedding is another topology with a store of its own."""
        m = Machine(16)
        ring, torus = m.topology(DISTR_RING), m.topology(DISTR_TORUS2D)
        srcs = np.arange(16)
        a = ring.shift_plan(srcs, (srcs + 1) % 16)
        b = torus.shift_plan(srcs, (srcs + 1) % 16)
        assert a is ring.shift_plan(srcs.copy(), (srcs + 1) % 16)
        assert a is not b and not np.array_equal(a.hops_f, b.hops_f)
        again = Machine(16).topology(DISTR_RING)
        assert again is ring and again.shift_plan(srcs, (srcs + 1) % 16) is a
        assert Machine(16, use_virtual_topologies=False).topology(DISTR_RING)._plans == {}

    def test_plan_arrays_are_read_only_and_shared_not_copied(self):
        topo = Machine(64).topology(DISTR_DEFAULT)
        tree = topo.tree_plan(7)
        assert tree is topo.tree_plan(7)
        assert [hi - lo for lo, hi in tree.bounds] == [1, 2, 4, 8, 16, 32]
        # one whole-tree plan: no per-round copies, no int copy until asked
        assert tree.order is None and "hops" not in tree.memo
        assert tree.hops.tolist() == topo.hops_vec(tree.srcs, tree.dsts).tolist()
        assert tree.hops_sum == int(tree.hops.sum())
        for lo, hi in tree.bounds:
            assert tree.srcs[lo:hi].tolist() == [(7 + r) % 64 for r in range(hi - lo)]
        for arr in (tree.srcs, tree.dsts, tree.hops_f, tree.hops):
            with pytest.raises(ValueError):
                arr[0] = 1
        ranks = np.arange(64)
        shift = topo.shift_plan(ranks, ranks[::-1].copy())
        assert shift.all_remote and not topo.shift_plan(ranks, ranks).all_remote
        with pytest.raises(ValueError):
            shift.srcs[0] = 1


class TestBadPatternsKeepRaising:
    @pytest.mark.parametrize("sync", [False, True])
    def test_non_disjoint_sides_on_first_and_repeated_use(self, sync):
        m = Machine(8)
        topo = m.topology()
        for srcs, dsts in (([0, 1, 0], [1, 2, 3]), ([0, 1, 2], [3, 4, 3])):
            for _ in range(3):
                with pytest.raises(MachineError, match="disjoint"):
                    m.network.shift_batch(srcs, dsts, 8, topo, sync=sync)
                with pytest.raises(MachineError, match="disjoint"):
                    m.network.shift(list(zip(srcs, dsts)), 8, topo, sync=sync)
        assert m.stats.messages == 0 and m.network.time == 0.0

    @pytest.mark.parametrize(
        "charge",
        [
            lambda net, topo: net.shift_batch([0, 1], [1, -1], 8, topo),
            lambda net, topo: net.shift_batch([0, 1], [1, 99], 8, topo),
            lambda net, topo: net.shift_batch([0, 1, 2], [1, 2], 8, topo),
            lambda net, topo: net.shift([(0, 1), (2, 3)], {0: 8}, topo),
            lambda net, topo: net.gather(0, [8, 8, 8], topo),
            lambda net, topo: net.scatter(0, [8, 8, 8], topo),
            lambda net, topo: net.gather(0, [8] * 9, topo),
        ],
        ids=["negative-rank", "rank-past-p", "unequal-lengths", "unmapped-source",
             "gather-short", "scatter-short", "gather-long"],
    )
    def test_bad_ranks_and_byte_sequences_are_machine_errors(self, charge):
        """Each used to charge a wrong rank, leak a bare numpy/KeyError or
        pass silently; refused on first and on repeated use, on this
        machine and on a second one sharing its topology, nothing moved
        on either, and the shared store keeps no plan of the bad pattern."""
        machines = _pair()
        for m in machines:
            _skew_clocks(m)
            before = m.network.clocks.copy()
            for _ in range(2):
                with pytest.raises(MachineError):
                    charge(m.network, m.topology())
            assert np.array_equal(m.network.clocks, before)
            assert m.stats.messages == 0 and m.stats.comm_seconds == 0.0
        assert machines[0].topology() is machines[1].topology()
        assert machines[0].topology()._plans.keys() <= {("fan", 0)}

    def test_edge_hops_is_plain_int_and_bounds_checked(self):
        for distr in (DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D):
            topo = Machine(16).topology(distr)
            for s in range(16):
                for d in range(16):
                    h = topo.edge_hops(s, d)
                    assert type(h) is int and h == int(topo.hops_vec(s, d))
            for bad in ((-1, 0), (0, 16), (16, 16)):
                with pytest.raises(TopologyError):
                    topo.edge_hops(*bad)


class TestTheMemoIsBounded:
    def test_alltoall_p256_stays_under_the_stated_bound(self):
        m = Machine(256)
        topo = m.topology()
        for _ in range(2):
            m.network.alltoall(64, topo)
            m.network.allreduce(64, topo)
        assert 0 < topo._plan_bytes <= PLAN_STORE_BYTES
        assert topo._plan_bytes == sum(size for _, size in topo._plans.values())

    def test_eviction_keeps_the_bound_and_the_clocks(self, monkeypatch):
        # two machines of one shape share one store, so the twin that
        # never evicts is the naive embedding: its DISTR_DEFAULT topology
        # is an equal mapping, but another value with a store of its own
        m_small = Machine(64)
        m_big = Machine(64, use_virtual_topologies=False)
        monkeypatch.setattr(topology_mod, "PLAN_STORE_BYTES", 16 << 10)
        t_small = m_small.topology()
        for _ in range(2):
            m_small.network.alltoall(64, t_small, sync=True)
            m_small.network.broadcast(3, 64, t_small)
        assert t_small._plan_bytes <= 16 << 10
        assert 0 < len(t_small._plans) < 63
        monkeypatch.undo()
        t_big = m_big.topology()
        assert t_big is not t_small
        for _ in range(2):
            m_big.network.alltoall(64, t_big, sync=True)
            m_big.network.broadcast(3, 64, t_big)
        assert len(t_big._plans) == 64
        _assert_same(m_big, m_small)

    def test_a_pattern_larger_than_the_bound_is_charged_but_not_kept(
        self, monkeypatch
    ):
        """Not kept in the shared topology: the reference machine, which
        shares it, finds the store empty too."""
        monkeypatch.setattr(topology_mod, "PLAN_STORE_BYTES", 256)
        m_ref, m_new = _pair(16, trace_level=2)
        pairs = [(r, (r + 1) % 16) for r in range(16)]
        _ref_shift(m_ref.network, pairs, 32, m_ref.topology(), True, "big")
        m_new.network.shift(pairs, 32, m_new.topology(), sync=True, tag="big")
        assert m_ref.topology() is m_new.topology()
        assert m_new.topology()._plans == {}
        assert TOPOLOGIES.nbytes == m_new.topology().nbytes == 24 * 16 + 2 * 2048
        _assert_same(m_ref, m_new)


def _held(plan) -> int:
    """The bytes of every array a plan holds, its memo included (a fan
    plan's one destination, broadcast with stride 0, holds one int)."""
    arrays = [plan.srcs, plan.dsts, plan.hops_f, *(plan.order or ())]
    for value in plan.memo.values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                arrays.append(a)
    return sum(a.itemsize if a.strides == (0,) else a.nbytes for a in arrays)


def _store_is_exact(topo) -> None:
    """Every kept plan's size is what it holds now, and they add up."""
    assert all(size == _held(plan) for plan, size in topo._plans.values())
    assert topo._plan_bytes == sum(size for _, size in topo._plans.values())
    assert topo._plan_bytes <= PLAN_STORE_BYTES


class TestWhatPlansMemoizeIsCounted:
    def test_priced_and_traced_memos_stay_under_the_bound_at_p65536(self):
        m = Machine(65536)
        topo = m.topology()
        for nbytes in (8, 64, 512, 4096, 32768):
            m.network.broadcast(0, nbytes, topo)
            _store_is_exact(topo)
        traced = Machine(65536, trace_level=2, trace_mode="stream")
        assert traced.topology() is topo
        traced.network.broadcast(0, 64, topo)
        traced.network.gather(0, 64, topo)
        _store_is_exact(topo)
        assert TOPOLOGIES.nbytes <= TOPOLOGIES.bound

    def test_a_fan_plan_counts_its_one_destination_once(self):
        """``fan_plan``'s destination is one int broadcast over p - 1
        edges: 8 bytes held, not 8 (p - 1)."""
        p = 4096
        topo = Machine(p).topology()
        plan = topo.fan_plan(7)
        assert plan.dsts.strides == (0,)
        assert plan.nbytes == 8 * (p - 1) * 2 + 8  # srcs, hops_f, dsts
        assert topo._plans[("fan", 7)][1] == plan.nbytes
        _store_is_exact(topo)

    def test_memos_take_only_the_room_left(self, monkeypatch):
        """The bound counts priced vectors and traced hops: at 16 KiB a
        p = 256 store holds a few plans, what they memoize is kept only
        while it fits, and a new plan makes room by the oldest plans'
        memos, then the oldest plans — the clocks stay the reference's."""
        monkeypatch.setattr(topology_mod, "PLAN_STORE_BYTES", 16 << 10)
        m_ref, m_new = _pair(256, trace_level=2)
        t_ref, t_new = m_ref.topology(DISTR_RING), m_new.topology(DISTR_RING)
        _skew_clocks(m_ref, m_new)
        for nbytes in (16, 32, 64, 16, 128):
            for root in (0, 9):
                _ref_broadcast(m_ref.network, root, nbytes, t_ref, False, "b")
                m_new.network.broadcast(root, nbytes, t_new, tag="b")
                _ref_fan(m_ref.network, root, nbytes, t_ref, "g", gather=True)
                m_new.network.gather(root, nbytes, t_new, tag="g")
            assert all(size == _held(plan) for plan, size in t_new._plans.values())
            assert t_new._plan_bytes <= 16 << 10
        assert 0 < len(t_new._plans) < 4
        _assert_same(m_ref, m_new)


    def test_no_plan_is_dropped_for_a_memo(self, monkeypatch):
        """An ``alltoall`` at p = 256 fills the store with its 255 shift
        plans: priced vectors take the room left and no more, so a
        second pass rebuilds no plan."""
        m = Machine(256)
        topo = m.topology()
        m.network.alltoall(4096, topo)
        built = Counter()
        edge_plan = VirtualTopology.edge_plan

        def counting(self, *args, **kwargs):
            built["plans"] += 1
            return edge_plan(self, *args, **kwargs)

        monkeypatch.setattr(VirtualTopology, "edge_plan", counting)
        m.network.alltoall(4096, topo)
        assert built == Counter()
        assert len(topo._plans) == 255
        priced = sum(4096 in plan.memo for plan, _ in topo._plans.values())
        assert 0 < priced < 255
        _store_is_exact(topo)

    def test_machines_on_threads_share_one_counted_store(self, monkeypatch):
        """Eight threads charge on one interned topology, the bound small
        enough that plans are stored, grown and dropped all the time: the
        store's count stays exact and every machine charges as alone."""
        monkeypatch.setattr(topology_mod, "PLAN_STORE_BYTES", 8 << 10)

        def run(machine):
            topo = machine.topology(DISTR_RING)
            ranks = np.arange(64)
            for step in range(12):
                nbytes = 8 << (step % 5)
                machine.network.broadcast(step % 3, nbytes, topo)
                machine.network.shift_batch(ranks, (ranks + 1 + step % 4) % 64,
                                            nbytes, topo)
                machine.network.gather(step % 2, nbytes, topo)

        alone = Machine(64)
        run(alone)
        machines = [Machine(64, trace_level=2 * (i % 2)) for i in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(m,)) for m in machines]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        topo = alone.topology(DISTR_RING)
        assert all(m.topology(DISTR_RING) is topo for m in machines)
        assert all(size == _held(plan) for plan, size in topo._plans.values())
        assert topo._plan_bytes == sum(size for _, size in topo._plans.values())
        assert topo._plan_bytes <= 8 << 10
        for m in machines:
            assert _fingerprint(m) == _fingerprint(alone)


def _fingerprint(machine):
    """Everything a charge leaves behind, floats by their bits."""
    return (
        [c.hex() for c in machine.network.clocks.tolist()],
        [x.hex() if isinstance(x, float) else x for x in _stats_tuple(machine.stats)],
    )


def _fresh_tables():
    for table in (TOPOLOGIES, BLOCK_DISTRIBUTIONS):
        table._values.clear()


class TestPricesNeverGoStale:
    SLOW = T800_PARSYTEC.with_(t_setup=300e-6, t_byte=2.5e-6, t_hop=9e-6)

    @pytest.mark.parametrize("app,distr", [("gauss", DISTR_DEFAULT),
                                           ("shpaths", DISTR_TORUS2D)])
    def test_two_cost_models_and_a_what_if_replay_share_one_topology(self, app, distr):
        """A machine under each cost model, with what-if replays under
        perturbed models between them, all on one interned topology:
        each charges exactly as on a topology of its own."""
        refs = []
        for cost in (T800_PARSYTEC, self.SLOW):
            _fresh_tables()
            refs.append(_fingerprint(run_traced(app, p=16, n=32, trace_level=0,
                                                cost=cost).machine))
        _fresh_tables()
        first = run_traced(app, p=16, n=32, cost=T800_PARSYTEC)
        run_whatif(
            analyze_machine(first.machine), T800_PARSYTEC,
            lambda cost, balance: run_traced(app, p=16, n=32, trace_level=0,
                                             cost=cost,
                                             balance_compute=balance).machine.time,
        )
        second = run_traced(app, p=16, n=32, trace_level=0, cost=self.SLOW)
        again = run_traced(app, p=16, n=32, trace_level=0, cost=T800_PARSYTEC)
        topo = first.machine.topology(distr)
        assert second.machine.topology(distr) is topo is again.machine.topology(distr)
        assert [_fingerprint(first.machine), _fingerprint(second.machine)] == refs
        assert _fingerprint(again.machine) == refs[0]

    def test_a_work_term_after_its_distribution_was_re_interned(self):
        """The kept seconds of a ``work`` / ``memcpy`` term are keyed by
        the identity of the count vector; the entry holds the vector, so
        a distribution dropped from the intern table and built again (a
        new vector, possibly where the old one lived) is priced anew."""
        m_kept, m_ref = Machine(8), Machine(8)
        kept, ref = Charge(m_kept, DPFL), Charge(m_ref, DPFL)
        for shape in ((43,), (61,), (43,), (8,), (61,)):
            _fresh_tables()
            gc.collect()
            sizes = BlockDistribution.shared(shape, (8,)).part_sizes()
            assert not sizes.flags.writeable
            for _ in range(2):
                kept.work((sizes, 2.0), (kept.folds(sizes), 1.0), realloc_itemsize=8)
                kept.memcpy(sizes, 8)
                fresh = sizes.copy()  # writeable: priced on every call
                ref.work((fresh, 2.0), (np.maximum(0, fresh - 1), 1.0),
                         realloc_itemsize=8)
                ref.memcpy(fresh, 8)
                assert _fingerprint(m_kept) == _fingerprint(m_ref)
