"""Unit tests for the analytic clock-arithmetic network layer."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.costmodel import T800_PARSYTEC, CostModel
from repro.machine.machine import Machine
from repro.machine.network import Network
from repro.machine.topology import DefaultMapping, Mesh2D, Ring, Torus2D


@pytest.fixture
def simple_cost():
    """Round numbers so expected times are easy to compute by hand."""
    return CostModel(t_op=1.0, t_mem=0.0, t_setup=10.0, t_byte=1.0, t_hop=2.0)


@pytest.fixture
def net4(simple_cost):
    return Network(simple_cost, 4)


@pytest.fixture
def topo4():
    return DefaultMapping(Mesh2D(2, 2))


class TestCompute:
    def test_scalar_advances_all(self, net4):
        net4.compute(5.0)
        assert np.all(net4.clocks == 5.0)

    def test_vector_advances_each(self, net4):
        net4.compute([1.0, 2.0, 3.0, 4.0])
        assert list(net4.clocks) == [1.0, 2.0, 3.0, 4.0]
        assert net4.time == 4.0

    def test_wrong_vector_shape_rejected(self, net4):
        with pytest.raises(MachineError):
            net4.compute([1.0, 2.0])

    def test_compute_at(self, net4):
        net4.compute_at(2, 7.0)
        assert net4.clocks[2] == 7.0
        assert net4.clocks[0] == 0.0

    def test_stats_accumulate(self, net4):
        net4.compute(2.0)
        assert net4.stats.compute_seconds == pytest.approx(8.0)


class TestP2P:
    def test_async_send_times(self, net4, topo4):
        # 0 -> 1 is one hop; 100 bytes; setup 10; wire = 1*(2 + 100*1) = 102
        arrival = net4.p2p(0, 1, 100, topo4)
        assert arrival == pytest.approx(10 + 102)
        assert net4.clocks[0] == pytest.approx(10)  # sender only pays setup
        assert net4.clocks[1] == pytest.approx(112)

    def test_sync_send_blocks_both(self, net4, topo4):
        net4.clocks[1] = 50.0  # receiver busy until t=50
        arrival = net4.p2p(0, 1, 100, topo4, sync=True)
        # start = max(0+10, 50) = 50, finish = 50 + 102
        assert arrival == pytest.approx(152)
        assert net4.clocks[0] == pytest.approx(152)
        assert net4.clocks[1] == pytest.approx(152)

    def test_async_receiver_already_late(self, net4, topo4):
        net4.clocks[1] = 1000.0
        net4.p2p(0, 1, 100, topo4)
        assert net4.clocks[1] == pytest.approx(1000.0)  # message was waiting

    def test_two_hops_cost_double_wire(self, simple_cost):
        net = Network(simple_cost, 4)
        topo = DefaultMapping(Mesh2D(2, 2))
        arrival = net.p2p(0, 3, 100, topo)  # diagonal = 2 hops
        assert arrival == pytest.approx(10 + 2 * 102)

    def test_self_message_is_local_copy(self, simple_cost, topo4):
        cost = simple_cost.with_(t_mem=0.5)
        net = Network(cost, 4)
        net.p2p(2, 2, 100, topo4)
        assert net.clocks[2] == pytest.approx(50.0)
        assert net.stats.messages == 0  # no wire message recorded

    def test_message_stats(self, net4, topo4):
        net4.p2p(0, 1, 100, topo4)
        assert net4.stats.messages == 1
        assert net4.stats.bytes_sent == 100
        assert net4.stats.hops_crossed == 1

    def test_bad_rank(self, net4, topo4):
        with pytest.raises(MachineError):
            net4.p2p(0, 9, 10, topo4)


class TestShift:
    def test_ring_rotation_parallel(self, simple_cost):
        """A full ring rotation takes one link time, not p link times."""
        net = Network(simple_cost, 4)
        ring = Ring(Mesh2D(2, 2))
        pairs = [(i, ring.succ(i)) for i in range(4)]
        net.shift(pairs, 100, ring)
        # every edge except the closing one is 1 hop in a 2x2 snake;
        # clocks advance by setup + wire, once, everywhere
        assert net.time <= 10 + 3 * 102  # closing edge (<=3 hops) dominates

    def test_disjointness_enforced(self, net4, topo4):
        with pytest.raises(MachineError):
            net4.shift([(0, 1), (0, 2)], 10, topo4)
        with pytest.raises(MachineError):
            net4.shift([(0, 1), (2, 1)], 10, topo4)

    def test_per_source_sizes(self, simple_cost):
        net = Network(simple_cost, 4)
        topo = DefaultMapping(Mesh2D(2, 2))
        sizes = {0: 100, 1: 200}
        net.shift([(0, 1), (1, 0)], sizes, topo)
        # rank 0 receives 200 bytes: arrival = 10 + (2 + 200) = 212
        assert net.clocks[0] == pytest.approx(212)
        # rank 1 receives 100 bytes: arrival = 10 + 102 = 112
        assert net.clocks[1] == pytest.approx(112)

    def test_sync_shift_slower_than_async(self, simple_cost):
        ring = Ring(Mesh2D(2, 2))
        pairs = [(i, ring.succ(i)) for i in range(4)]
        a = Network(simple_cost, 4)
        a.shift(pairs, 100, ring, sync=False)
        s = Network(simple_cost, 4)
        s.shift(pairs, 100, ring, sync=True)
        assert s.time > a.time

    def test_stats_count_all_pairs(self, simple_cost):
        net = Network(simple_cost, 4)
        ring = Ring(Mesh2D(2, 2))
        net.shift([(i, ring.succ(i)) for i in range(4)], 50, ring)
        assert net.stats.messages == 4
        assert net.stats.bytes_sent == 200


class TestTrees:
    def test_broadcast_log_rounds(self, simple_cost):
        net = Network(simple_cost, 8)
        topo = DefaultMapping(Mesh2D.for_processors(8))
        net.broadcast(0, 100, topo)
        assert net.stats.messages == 7  # p-1 messages in a binomial tree
        # time is ~3 rounds, far below 7 sequential sends
        one_msg = 10 + 102
        assert net.time < 7 * one_msg

    def test_broadcast_single_node_noop(self, simple_cost):
        net = Network(simple_cost, 1)
        net.broadcast(0, 100, DefaultMapping(Mesh2D(1, 1)))
        assert net.time == 0.0

    def test_reduce_charges_combines(self, simple_cost):
        net = Network(simple_cost, 4)
        topo = DefaultMapping(Mesh2D(2, 2))
        base = Network(simple_cost, 4)
        base.reduce(0, 8, topo)
        net.reduce(0, 8, topo, combine_seconds=100.0)
        assert net.time > base.time

    def test_allreduce_everyone_synchronized_enough(self, simple_cost):
        net = Network(simple_cost, 8)
        topo = DefaultMapping(Mesh2D.for_processors(8))
        net.compute(np.arange(8, dtype=float))
        net.allreduce(8, topo)
        # after the down-broadcast everyone has the result: all clocks
        # are at least the root's pre-broadcast clock
        assert net.clocks.min() > 0

    def test_barrier_equalizes(self, simple_cost):
        net = Network(simple_cost, 4)
        topo = DefaultMapping(Mesh2D(2, 2))
        net.compute([1.0, 100.0, 3.0, 4.0])
        net.barrier(topo)
        assert np.all(net.clocks == net.clocks[0])
        assert net.clocks[0] >= 100.0

    def test_gather_counts(self, simple_cost):
        net = Network(simple_cost, 4)
        topo = DefaultMapping(Mesh2D(2, 2))
        net.gather(0, 100, topo)
        assert net.stats.messages == 3


class TestExtraCollectives:
    """scatter / allgather / alltoall message counts."""

    def test_scatter_counts(self, simple_cost):
        net = Network(simple_cost, 4)
        net.scatter(0, 100, DefaultMapping(Mesh2D(2, 2)))
        assert net.stats.messages == 3

    def test_allgather_rounds(self, simple_cost):
        net = Network(simple_cost, 4)
        net.allgather(64, Ring(Mesh2D(2, 2)))
        # p-1 rounds of p simultaneous transfers
        assert net.stats.messages == 3 * 4

    def test_allgather_single_proc(self, simple_cost):
        net = Network(simple_cost, 1)
        net.allgather(64, DefaultMapping(Mesh2D(1, 1)))
        assert net.stats.messages == 0

    def test_alltoall_power_of_two(self, simple_cost):
        net = Network(simple_cost, 4)
        net.alltoall(32, DefaultMapping(Mesh2D(2, 2)))
        assert net.stats.messages == 3 * 4  # (p-1) rounds x p messages

    def test_alltoall_non_power_of_two(self, simple_cost):
        net = Network(simple_cost, 3)
        net.alltoall(32, DefaultMapping(Mesh2D(1, 3)))
        assert net.stats.messages == 2 * 3

    def test_allgather_cheaper_than_sequential_gathers(self, simple_cost):
        ring = Ring(Mesh2D.for_processors(8))
        net = Network(simple_cost, 8)
        net.allgather(128, ring)
        t_ring = net.time
        net2 = Network(simple_cost, 8)
        for root in range(8):
            net2.gather(root, 128, ring)
        assert t_ring < net2.time


class TestMachineFacade:
    def test_time_and_reset(self):
        m = Machine(4)
        m.network.compute(1.5)
        assert m.time == pytest.approx(1.5)
        m.reset()
        assert m.time == 0.0
        assert m.stats.messages == 0

    def test_topology_cache(self):
        m = Machine(16)
        assert m.topology("DISTR_TORUS2D") is m.topology("DISTR_TORUS2D")
        assert isinstance(m.topology("DISTR_TORUS2D"), Torus2D)
        assert isinstance(m.topology("DISTR_RING"), Ring)

    def test_unknown_distr(self):
        m = Machine(4)
        with pytest.raises(Exception):
            m.topology("DISTR_HYPERCUBE")

    def test_virtual_topologies_disabled(self):
        m = Machine(64, use_virtual_topologies=False)
        t = m.topology("DISTR_TORUS2D")
        assert isinstance(t, Torus2D)
        assert not t.folded

    def test_memory_accounting(self):
        m = Machine(4)
        m.alloc(0, 512 * 1024)
        m.alloc(0, 400 * 1024)
        assert m.memory_used(0) == 912 * 1024
        assert [m.memory_used(r) for r in (1, 2, 3)] == [0, 0, 0]
        with pytest.raises(MachineError):
            m.alloc(4, 8)

    def test_memory_free(self):
        m = Machine(2)
        m.alloc(1, 1000)
        m.free(1, 600)
        assert m.memory_used(1) == 400
        m.free(1, 10_000)  # over-free clamps at zero
        assert m.memory_used(1) == 0

    def test_non_strict_allows_overflow(self):
        # bytes are counted, never limited: which sizes fit the paper's
        # 1 MB nodes is eval.harness.fits_paper_memory's closed form
        m = Machine(1)
        m.alloc(0, 10 << 20)
        assert m.max_memory_used() == 10 << 20

    @pytest.mark.parametrize("setting", ["link_contention", "keep_message_records",
                                         "strict_memory"])
    def test_retired_machine_settings_are_type_errors(self, setting):
        with pytest.raises(TypeError, match=setting):
            Machine(4, **{setting: True})
        if setting == "link_contention":
            with pytest.raises(TypeError, match=setting):
                Network(T800_PARSYTEC, 4, link_contention=True)

    def test_invalid_p(self):
        with pytest.raises(MachineError):
            Machine(0)
