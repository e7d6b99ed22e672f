"""Unit tests for the event-driven SPMD engine, including consistency
checks against the analytic network layer."""

import pytest

from repro.errors import DeadlockError, MachineError
from repro.machine.costmodel import CostModel
from repro.machine.engine import Compute, Engine, ISend, Recv, Send, run_spmd
from repro.machine.network import Network
from repro.machine.topology import DefaultMapping, Mesh2D, Ring


@pytest.fixture
def cost():
    return CostModel(
        t_op=1.0, t_mem=0.0, t_setup=10.0, t_byte=1.0, t_hop=2.0, store_and_forward=True
    )


@pytest.fixture
def topo():
    return DefaultMapping(Mesh2D(2, 2))


def test_records_carry_the_tag_or_the_kind_of_send(cost, topo):
    """A record names its message as the timeline and the metrics do:
    by its tag, or ``isend`` / ``send`` when it has none."""
    from repro.machine.trace import TraceStats

    def prog(rank, p):
        if rank == 0:
            yield ISend(1, nbytes=8, tag="a")
            yield ISend(1, nbytes=8)
            yield Send(1, nbytes=8)
            yield Send(1, nbytes=8, tag="b")
        elif rank == 1:
            for tag in ("a", "", "", "b"):
                yield Recv(0, tag)

    stats = TraceStats(keep_records=True)
    run_spmd(cost, topo, prog, stats=stats)
    assert [r.tag for r in stats.records] == ["a", "isend", "send", "b"]


def test_compute_only(cost, topo):
    def prog(rank, p):
        yield Compute(5.0 * (rank + 1))

    assert run_spmd(cost, topo, prog) == pytest.approx(20.0)


def test_async_message_delivery_and_payload(cost, topo):
    got = {}

    def prog(rank, p):
        if rank == 0:
            yield ISend(1, payload={"x": 42}, nbytes=100)
        elif rank == 1:
            msg = yield Recv(0)
            got["msg"] = msg

    t = run_spmd(cost, topo, prog)
    assert got["msg"] == {"x": 42}
    # arrival = setup + 1 hop * (2 + 100) = 112
    assert t == pytest.approx(112.0)


def test_sync_send_rendezvous(cost, topo):
    def prog(rank, p):
        if rank == 0:
            yield Send(1, payload="hi", nbytes=100)
        elif rank == 1:
            yield Compute(50.0)
            msg = yield Recv(0)
            assert msg == "hi"

    t = run_spmd(cost, topo, prog)
    # sender ready at 0 (+setup 10), receiver posts at 50;
    # start = max(10, 50) = 50, finish = 50 + 102 = 152
    assert t == pytest.approx(152.0)


def test_recv_before_send(cost, topo):
    def prog(rank, p):
        if rank == 1:
            msg = yield Recv(0)
            assert msg == 7
        elif rank == 0:
            yield Compute(30.0)
            yield Send(1, payload=7, nbytes=100)

    t = run_spmd(cost, topo, prog)
    assert t == pytest.approx(30 + 10 + 102)


def test_fifo_per_channel(cost, topo):
    order = []

    def prog(rank, p):
        if rank == 0:
            yield ISend(1, payload="a", nbytes=10)
            yield ISend(1, payload="b", nbytes=10)
        elif rank == 1:
            order.append((yield Recv(0)))
            order.append((yield Recv(0)))

    run_spmd(cost, topo, prog)
    assert order == ["a", "b"]


def test_tags_separate_channels(cost, topo):
    got = {}

    def prog(rank, p):
        if rank == 0:
            yield ISend(1, payload="second", nbytes=10, tag="t2")
            yield ISend(1, payload="first", nbytes=10, tag="t1")
        elif rank == 1:
            got["first"] = yield Recv(0, tag="t1")
            got["second"] = yield Recv(0, tag="t2")

    run_spmd(cost, topo, prog)
    assert got == {"first": "first", "second": "second"}


def test_deadlock_detection(cost, topo):
    def prog(rank, p):
        # everyone waits for a message that never comes
        yield Recv((rank + 1) % p)

    with pytest.raises(DeadlockError):
        run_spmd(cost, topo, prog)


def test_cross_rendezvous_deadlock(cost, topo):
    """Two synchronous sends facing each other deadlock — the classic
    message-passing bug the paper's skeletons are designed to prevent."""

    def prog(rank, p):
        if rank in (0, 1):
            other = 1 - rank
            yield Send(other, nbytes=10)
            yield Recv(other)

    with pytest.raises(DeadlockError):
        run_spmd(cost, topo, prog)


def test_unknown_request_rejected(cost, topo):
    def prog(rank, p):
        yield "bogus"

    with pytest.raises(MachineError):
        run_spmd(cost, topo, prog)


def test_spawn_duplicate_rank(cost, topo):
    eng = Engine(cost, topo)

    def g():
        yield Compute(1.0)

    eng.spawn(0, g())
    with pytest.raises(MachineError):
        eng.spawn(0, g())


def test_ring_token_pass(cost):
    """Token around the ring: p sequential hops, payload verified."""
    ring = Ring(Mesh2D(2, 2))
    seen = []

    def prog(rank, p):
        if rank == 0:
            yield ISend(ring.succ(0), payload=[0], nbytes=8)
            token = yield Recv(ring.pred(0))
            seen.extend(token)
        else:
            token = yield Recv(ring.pred(rank))
            token = token + [rank]
            yield ISend(ring.succ(rank), payload=token, nbytes=8)

    run_spmd(cost, ring, prog)
    assert seen == [0, 1, 2, 3]


class TestEngineVsNetworkConsistency:
    """The analytic layer and the engine must agree on simple patterns."""

    def test_single_async_message(self, cost, topo):
        net = Network(cost, 4)
        arrival = net.p2p(0, 1, 100, topo)

        def prog(rank, p):
            if rank == 0:
                yield ISend(1, nbytes=100)
            elif rank == 1:
                yield Recv(0)

        t = run_spmd(cost, topo, prog)
        assert t == pytest.approx(arrival)

    def test_single_sync_message_with_busy_receiver(self, cost, topo):
        net = Network(cost, 4)
        net.clocks[1] = 77.0
        arrival = net.p2p(0, 1, 64, topo, sync=True)

        def prog(rank, p):
            if rank == 0:
                yield Send(1, nbytes=64)
            elif rank == 1:
                yield Compute(77.0)
                yield Recv(0)

        t = run_spmd(cost, topo, prog)
        assert t == pytest.approx(arrival)

    def test_async_ring_rotation(self, cost):
        ring = Ring(Mesh2D(2, 2))
        net = Network(cost, 4)
        pairs = [(i, ring.succ(i)) for i in range(4)]
        net.shift(pairs, 100, ring)

        def prog(rank, p):
            yield ISend(ring.succ(rank), nbytes=100)
            yield Recv(ring.pred(rank))

        t = run_spmd(cost, ring, prog)
        assert t == pytest.approx(net.time)

    def test_binomial_broadcast(self, cost):
        topo = DefaultMapping(Mesh2D.for_processors(8))
        net = Network(cost, 8)
        net.broadcast(0, 256, topo)

        tree_rounds = __import__(
            "repro.machine.topology", fromlist=["BinomialTree"]
        ).BinomialTree(topo.mesh).broadcast_rounds()

        def prog(rank, p):
            for rnd in tree_rounds:
                for s, d in rnd:
                    if s == rank:
                        yield ISend(d, nbytes=256)
                    elif d == rank:
                        yield Recv(s)

        t = run_spmd(cost, topo, prog)
        assert t == pytest.approx(net.time)
