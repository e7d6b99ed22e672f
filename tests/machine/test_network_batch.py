"""Batch charging entry points (`p2p_batch`, `shift_batch`, batched
collective rounds) must be bit-identical to the scalar loops.

The `charging` pillar of ``repro.check`` property-tests this at scale;
these tests pin the contract deterministically: exact clock equality
(``==`` on every float), exact stats, identical message records, plus
the input-validation errors.  Waves of one, two and three edges (p = 2,
3, 4, 7 trees; k = 1..3 message lists) take the same vectorized path as
long ones and are held to the same scalar loops.
"""

import numpy as np
import pytest

from repro.check.charging import _compare_machines
from repro.check.tracecheck import compare_observers
from repro.errors import MachineError
from repro.machine.machine import DISTR_RING, DISTR_TORUS2D, Machine
from repro.machine.topology import VirtualTopology

#: untraced with message records, record-traced, stream-traced
TRACE = [
    {},
    {"trace_level": 2, "trace_mode": "record"},
    {"trace_level": 2, "trace_mode": "stream"},
]


def _pair(p, **kwargs):
    kwargs.setdefault("keep_message_records", True)
    return Machine(p, **kwargs), Machine(p, **kwargs)


def _assert_identical(ma, mb):
    # clocks, stats, records, per-rank timelines, metrics: all bitwise
    assert _compare_machines(ma, mb, "scalar loop vs batch") is None
    if ma.stream_obs is not None:
        assert compare_observers(ma.stream_obs, mb.stream_obs) == []


class TestP2PBatch:
    @pytest.mark.parametrize("sync", [False, True])
    def test_long_wave_matches_scalar_loop(self, sync):
        wave = [(0, 1, 64), (2, 3, 128), (4, 5, 4096), (6, 7, 1)]
        for k in (1, 2, 3, 4):
            for trace in TRACE:
                ma, mb = _pair(8, **trace)
                topo = ma.topology(DISTR_RING)
                msgs = wave[:k]
                for s, d, nb in msgs:
                    ma.network.p2p(s, d, nb, topo, sync=sync, tag="t")
                mb.network.p2p_batch(
                    np.array([m[0] for m in msgs]),
                    np.array([m[1] for m in msgs]),
                    np.array([m[2] for m in msgs]),
                    mb.topology(DISTR_RING),
                    sync=sync,
                    tag="t",
                )
                _assert_identical(ma, mb)

    def test_conflicting_ranks_split_into_waves(self):
        # rank 1 appears three times: the batch must serialize exactly
        # like the scalar loop, not charge all from the start clocks
        ma, mb = _pair(4)
        topo = ma.topology(DISTR_RING)
        msgs = [(0, 1, 256), (1, 2, 256), (3, 1, 256), (1, 0, 256),
                (2, 3, 512), (0, 1, 8)]
        for s, d, nb in msgs:
            ma.network.p2p(s, d, nb, topo, tag="w")
        mb.network.p2p_batch(
            np.array([m[0] for m in msgs]),
            np.array([m[1] for m in msgs]),
            np.array([m[2] for m in msgs]),
            mb.topology(DISTR_RING),
            tag="w",
        )
        _assert_identical(ma, mb)

    def test_local_messages_charge_memory_copies(self):
        ma, mb = _pair(8)
        topo = ma.topology(DISTR_RING)
        msgs = [(0, 0, 100), (1, 2, 50), (3, 3, 0), (4, 5, 7), (6, 7, 9)]
        for s, d, nb in msgs:
            ma.network.p2p(s, d, nb, topo)
        mb.network.p2p_batch(
            np.array([m[0] for m in msgs]),
            np.array([m[1] for m in msgs]),
            np.array([m[2] for m in msgs]),
            mb.topology(DISTR_RING),
        )
        _assert_identical(ma, mb)

    def test_scalar_nbytes_broadcasts(self):
        ma, mb = _pair(8)
        topo = ma.topology(DISTR_RING)
        for s, d in [(0, 4), (1, 5), (2, 6), (3, 7)]:
            ma.network.p2p(s, d, 321, topo)
        mb.network.p2p_batch(
            np.arange(4), np.arange(4, 8), 321, mb.topology(DISTR_RING)
        )
        _assert_identical(ma, mb)

    def test_empty_batch_is_a_no_op(self):
        ma, mb = _pair(4)
        mb.network.p2p_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), mb.topology(DISTR_RING),
        )
        _assert_identical(ma, mb)

    def test_rank_out_of_range_raises(self):
        m = Machine(4)
        with pytest.raises(MachineError, match="outside machine"):
            m.network.p2p_batch(
                np.array([0, 5]), np.array([1, 2]), 8, m.topology(DISTR_RING)
            )

    def test_length_mismatch_raises(self):
        m = Machine(4)
        with pytest.raises(MachineError, match="equal length"):
            m.network.p2p_batch(
                np.array([0, 1]), np.array([1]), 8, m.topology(DISTR_RING)
            )
        with pytest.raises(MachineError, match="match message count"):
            m.network.p2p_batch(
                np.array([0, 1]), np.array([1, 2]), np.array([8]),
                m.topology(DISTR_RING),
            )


class TestShiftBatch:
    @pytest.mark.parametrize("p", [4, 9, 16])
    def test_full_rotation_unchanged_from_seed_semantics(self, p):
        """Async shift departs from pre-shift clocks — a batch of p pairs
        must keep that all-at-once semantics (not wave-serialize)."""
        ma, mb = _pair(p)
        topo_a, topo_b = ma.topology(DISTR_TORUS2D), mb.topology(DISTR_TORUS2D)
        ma.network.compute(np.linspace(0.0, 1e-5, p))
        mb.network.compute(np.linspace(0.0, 1e-5, p))
        pairs = [(r, (r + 1) % p) for r in range(p)]
        ma.network.shift(pairs, 1024, topo_a, tag="rot")
        mb.network.shift(pairs, 1024, topo_b, tag="rot")
        _assert_identical(ma, mb)
        # every sender departed at its own clock + setup, in parallel
        rec = ma.stats.records
        assert len(rec) == p
        for r in rec:
            assert r.depart <= r.time

    def test_contention_matches_dict_reference(self):
        """Array-based contention factors equal the historical
        max-of-per-link ratios (same quotient, same bits)."""
        ma = Machine(16, link_contention=True, keep_message_records=True)
        mb = Machine(16, link_contention=False, keep_message_records=True)
        topo_a = ma.topology(DISTR_TORUS2D)
        topo_b = mb.topology(DISTR_TORUS2D)
        pairs = [(r, (r + 4) % 16) for r in range(16)]
        ma.network.shift(pairs, 1000, topo_a, tag="c")
        mb.network.shift(pairs, 1000, topo_b, tag="c")
        # contention can only slow transfers down
        assert ma.network.time >= mb.network.time

    def test_overlapping_sources_rejected(self):
        m = Machine(4)
        with pytest.raises(MachineError, match="disjoint"):
            m.network.shift([(0, 1), (0, 2)], 8, m.topology(DISTR_RING))
        with pytest.raises(MachineError, match="disjoint"):
            m.network.shift([(1, 3), (2, 3)], 8, m.topology(DISTR_RING))

    @pytest.mark.parametrize("sync", [False, True])
    def test_mapping_nbytes(self, sync):
        ma, mb = _pair(4)
        nb = {0: 10, 1: 20, 2: 30, 3: 40}
        pairs = [(r, (r + 1) % 4) for r in range(4)]
        ma.network.shift(pairs, nb, ma.topology(DISTR_RING), sync=sync)
        mb.network.shift(pairs, nb, mb.topology(DISTR_RING), sync=sync)
        _assert_identical(ma, mb)
        assert ma.stats.bytes_sent == 100


class TestHopMatrix:
    @pytest.mark.parametrize("p", [1, 4, 7, 16])
    @pytest.mark.parametrize("distr", [DISTR_RING, DISTR_TORUS2D])
    def test_matrix_agrees_with_scalar_edge_hops(self, p, distr):
        topo = Machine(p).topology(distr)
        hm = topo.hop_matrix()
        assert hm.shape == (p, p)
        for s in range(p):
            for d in range(p):
                assert hm[s, d] == topo.edge_hops(s, d)

    def test_matrix_is_memoized_and_readonly(self):
        topo = Machine(8).topology(DISTR_RING)
        hm = topo.hop_matrix()
        assert topo.hop_matrix() is hm
        with pytest.raises(ValueError):
            hm[0, 0] = 99

    def test_edge_hops_bounds_checked(self):
        from repro.errors import TopologyError

        topo = Machine(4).topology(DISTR_RING)
        with pytest.raises(TopologyError, match="outside topology"):
            topo.edge_hops(0, 4)
        with pytest.raises(TopologyError, match="outside topology"):
            topo.edge_hops(-1, 0)


class TestCollectiveRounds:
    """Trees charge every round, short or long, as one wave; the scalar
    per-edge loops are the reference (cross-checked exhaustively by the
    `charging` pillar — here one deterministic pin per collective)."""

    def _scalar_broadcast(self, m, root, nb, topo, sync):
        from repro.machine.topology import BinomialTree

        for rnd in BinomialTree(topo.mesh, root=root).broadcast_rounds():
            for s, d in rnd:
                m.network.p2p(s, d, nb, topo, sync=sync, tag="bcast")

    def _scalar_reduce(self, m, root, nb, topo, comb, sync):
        from repro.machine.topology import BinomialTree

        for rnd in BinomialTree(topo.mesh, root=root).reduce_rounds():
            for s, d in rnd:
                m.network.p2p(s, d, nb, topo, sync=sync, tag="reduce")
                if comb:
                    m.network.compute_at(d, comb)

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 16, 32])
    @pytest.mark.parametrize("sync", [False, True])
    def test_broadcast(self, p, sync):
        ma, mb = _pair(p)
        self._scalar_broadcast(ma, 3 % p, 777, ma.topology(DISTR_RING), sync)
        mb.network.broadcast(3 % p, 777, mb.topology(DISTR_RING), sync=sync)
        _assert_identical(ma, mb)

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 16, 32])
    @pytest.mark.parametrize("comb", [0.0, 2e-6])
    def test_reduce_with_combine(self, p, comb):
        ma, mb = _pair(p)
        self._scalar_reduce(ma, 0, 512, ma.topology(DISTR_RING), comb, False)
        mb.network.reduce(
            0, 512, mb.topology(DISTR_RING), combine_seconds=comb
        )
        _assert_identical(ma, mb)

    def test_reduce_balance_compute_counterfactual_unchanged(self):
        """The what-if replay spreads combine work over all ranks; the
        batched tree must fall back to the interleaved scalar loop."""
        ma, mb = _pair(16)
        ma.network.balance_compute = True
        mb.network.balance_compute = True
        self._scalar_reduce(ma, 0, 256, ma.topology(DISTR_RING), 1e-6, False)
        mb.network.reduce(
            0, 256, mb.topology(DISTR_RING), combine_seconds=1e-6
        )
        _assert_identical(ma, mb)

    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 16])
    def test_traced_broadcast_timelines_match_per_rank(self, p):
        ma = Machine(p, trace_level=2)
        mb = Machine(p, trace_level=2)
        self._scalar_broadcast(ma, 0, 300, ma.topology(DISTR_RING), False)
        mb.network.broadcast(0, 300, mb.topology(DISTR_RING))
        _assert_identical(ma, mb)
