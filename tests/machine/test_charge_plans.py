"""Charge plans: the clock-independent half of a shift or a collective
round is built once per pattern on the topology
(:class:`repro.machine.topology.EdgePlan`) and ``Network`` only updates
clocks.

Pinned here: planned charging equals the scalar reference loops of
``repro.check.charging`` bit for bit (clocks, every ``TraceStats``
field, records, timelines, metrics) on first and on repeated use; a
repeated pattern does no hop or validity work; bad patterns keep
raising; the memo stays under ``PLAN_STORE_BYTES``.  Machines of one
shape and embedding share their topologies (``TOPOLOGIES``), so a plan
one of them stored is warm for the next (``tests/machine/test_intern.py``
pins the sharing itself).
"""

from collections import Counter

import numpy as np
import pytest

from repro.check.charging import (
    _compare_machines,
    _ref_broadcast,
    _ref_fan,
    _ref_reduce,
    _ref_shift,
)
from repro.check.tracecheck import compare_observers
from repro.errors import MachineError, TopologyError
from repro.machine import topology as topology_mod
from repro.machine.costmodel import T800_PARSYTEC
from repro.machine.machine import DISTR_DEFAULT, DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.topology import PLAN_STORE_BYTES, TOPOLOGIES, VirtualTopology

TRACE = {
    "off": {},
    "records": {"keep_message_records": True},
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

    @pytest.mark.parametrize("sync", [False, True])
    def test_cut_through_cost_model(self, sync):
        cost = T800_PARSYTEC.with_(store_and_forward=False)
        m_ref, m_new = _pair(cost=cost, keep_message_records=True)
        _skew_clocks(m_ref, m_new)
        for nbytes in (1, PER_SOURCE, 8192):
            _ref_shift(m_ref.network, MIXED, nbytes, m_ref.topology(), sync, "ct")
            m_new.network.shift(MIXED, nbytes, m_new.topology(), sync=sync, tag="ct")
            _assert_same(m_ref, m_new)

    @pytest.mark.parametrize("nbytes", [512, PER_SOURCE], ids=["scalar", "map"])
    def test_link_contention(self, nbytes):
        m_ref, m_new = _pair(16, link_contention=True, trace_level=2)
        _skew_clocks(m_ref, m_new)
        pairs = [(r, (r + 5) % 16) for r in range(16)]
        if not np.isscalar(nbytes):
            nbytes = {s: 64 + 100 * s for s, _ in pairs}
        for _ in range(2):
            _ref_shift(m_ref.network, pairs, nbytes, m_ref.topology(), False, "lc")
            m_new.network.shift(pairs, nbytes, m_new.topology(), tag="lc")
            _assert_same(m_ref, m_new)

    def test_shift_batch_takes_arrays_and_lists_alike(self):
        m_a, m_b = _pair(keep_message_records=True)
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
        plans = dict(topo._plans)
        counted.clear()

        # other byte counts, the other sync mode, another cost model and
        # a reset: same plans, nothing recomputed
        net.shift_batch(srcs.copy(), dsts.copy(), 4096, topo, sync=True)
        net.reduce(5, 7, topo, combine_seconds=1e-6)
        net.cost = m_new.cost.with_(store_and_forward=False, t_setup=1e-5)
        net.shift_batch(srcs, dsts, np.arange(16) * 10, topo)
        m_new.reset()
        _skew_clocks(m_new)
        net.shift(pairs, 64, topo, sync=True)
        net.broadcast(5, 1 << 20, topo, sync=True)
        net.scatter(5, 9, topo)
        assert counted == Counter()
        assert topo._plans == plans

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
        rounds = topo.round_plans(7)
        assert rounds is topo.round_plans(7)
        assert [pl.srcs.size for pl in rounds] == [1, 2, 4, 8, 16, 32]
        tree = rounds[0].hops_f.base
        for pl in rounds:
            # one whole-tree float hop vector, no int copy, no key copy
            assert pl.hops_f.base is tree and pl.order is None
            assert pl.hops.tolist() == topo.hops_vec(pl.srcs, pl.dsts).tolist()
            assert pl.hops_sum == int(pl.hops.sum())
            for arr in (pl.srcs, pl.dsts, pl.hops_f):
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
        m_ref, m_new = _pair(16, keep_message_records=True)
        pairs = [(r, (r + 1) % 16) for r in range(16)]
        _ref_shift(m_ref.network, pairs, 32, m_ref.topology(), True, "big")
        m_new.network.shift(pairs, 32, m_new.topology(), sync=True, tag="big")
        assert m_ref.topology() is m_new.topology()
        assert m_new.topology()._plans == {}
        assert TOPOLOGIES.nbytes == m_new.topology().nbytes == 24 * 16 + 2 * 2048
        _assert_same(m_ref, m_new)
