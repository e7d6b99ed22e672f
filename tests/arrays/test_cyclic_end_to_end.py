"""End-to-end use of the cyclic/block-cyclic future-work distributions.

The paper lists "other distributions of arrays onto processors, apart
from block-wise, like for instance cyclic, block-cyclic" as future work;
these tests run the *skeletons* over them — a cyclic row distribution
balances triangular workloads (the gauss access pattern) that the block
layout handles badly.
"""

import numpy as np
import pytest

from repro.arrays.darray import DistArray
from repro.arrays.distribution import BlockCyclicDistribution, CyclicDistribution
from repro.errors import LocalityError
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import PLUS, SkilContext, skil_fn


def cyclic_array(machine, data: np.ndarray) -> DistArray:
    dist = CyclicDistribution(data.shape, (machine.p,) + (1,) * (data.ndim - 1))
    arr = DistArray(machine, dist, data.dtype)
    arr.fill_from_global(data)
    return arr


@pytest.fixture
def ctx4():
    return SkilContext(Machine(4), SKIL)


class TestCyclicDistArray:
    def test_round_trip(self, ctx4):
        data = np.arange(12.0)
        arr = cyclic_array(ctx4.machine, data)
        np.testing.assert_array_equal(arr.global_view(), data)

    def test_partition_contents_are_strided(self, ctx4):
        data = np.arange(12.0)
        arr = cyclic_array(ctx4.machine, data)
        np.testing.assert_array_equal(arr.local(1), [1.0, 5.0, 9.0])

    def test_local_access_follows_ownership(self, ctx4):
        data = np.arange(12.0)
        arr = cyclic_array(ctx4.machine, data)
        assert arr.get_elem((5,), rank=1) == 5.0  # 5 % 4 == 1
        with pytest.raises(LocalityError):
            arr.get_elem((5,), rank=0)

    def test_put_elem(self, ctx4):
        data = np.zeros(8)
        arr = cyclic_array(ctx4.machine, data)
        arr.put_elem((6,), 9.0, rank=2)
        assert arr.global_view()[6] == 9.0

    def test_index_grids_strided(self, ctx4):
        data = np.arange(12.0)
        arr = cyclic_array(ctx4.machine, data)
        (g,) = arr.index_grids(2)
        np.testing.assert_array_equal(g.ravel(), [2, 6, 10])


class TestSkeletonsOverCyclic:
    def test_map_scalar(self, ctx4):
        data = np.arange(12.0)
        src = cyclic_array(ctx4.machine, data)
        dst = cyclic_array(ctx4.machine, np.zeros(12))
        ctx4.array_map(lambda v, ix: v * 10 + ix[0], src, dst)
        np.testing.assert_array_equal(dst.global_view(), data * 10 + np.arange(12))

    def test_map_vectorized(self, ctx4):
        data = np.arange(12.0)
        src = cyclic_array(ctx4.machine, data)
        dst = cyclic_array(ctx4.machine, np.zeros(12))
        f = skil_fn(ops=1, vectorized=lambda blk, grids, env: blk + grids[0])(
            lambda v, ix: v + ix[0]
        )
        ctx4.array_map(f, src, dst)
        np.testing.assert_array_equal(dst.global_view(), data + np.arange(12))

    def test_fold(self, ctx4):
        data = np.arange(16.0)
        arr = cyclic_array(ctx4.machine, data)
        total = ctx4.array_fold(skil_fn(ops=0)(lambda v, ix: v), PLUS, arr)
        assert total == data.sum()

    def test_fold_index_correct(self, ctx4):
        """The conversion function must see *global* indices even though
        partitions are strided."""
        data = np.ones(16)
        arr = cyclic_array(ctx4.machine, data)
        conv = skil_fn(ops=1)(lambda v, ix: float(ix[0]))
        total = ctx4.array_fold(conv, PLUS, arr)
        assert total == sum(range(16))

    def test_cyclic_balances_triangular_work(self):
        """Triangular per-element cost: block layout loads the last
        processor most; cyclic spreads it evenly (the classic argument
        for cyclic layouts in LU/gauss-like codes)."""
        n = 64

        def triangular(ctx, arr):
            f = skil_fn(ops=1)(lambda v, ix: v)
            # charge ix-proportional work via per-rank compute directly
            import numpy as np

            per_rank = np.zeros(ctx.p)
            for r in range(ctx.p):
                idx = arr.local_index_vectors(r)[0]
                per_rank[r] = float(idx.sum()) * ctx.charge.elem_time()
            ctx.machine.network.compute(per_rank)
            return ctx.machine.time

        data = np.zeros(n)
        m_block = Machine(4)
        ctx_b = SkilContext(m_block, SKIL)
        block = DistArray.from_global(m_block, data)
        t_block = triangular(ctx_b, block)

        m_cyc = Machine(4)
        ctx_c = SkilContext(m_cyc, SKIL)
        cyc = cyclic_array(m_cyc, data)
        t_cyc = triangular(ctx_c, cyc)
        assert t_cyc < t_block  # better balance => smaller makespan


class TestBlockCyclicDistArray:
    def test_round_trip(self, ctx4):
        data = np.arange(16.0)
        dist = BlockCyclicDistribution((16,), (4,), (2,))
        arr = DistArray(ctx4.machine, dist, data.dtype)
        arr.fill_from_global(data)
        np.testing.assert_array_equal(arr.global_view(), data)
        np.testing.assert_array_equal(arr.local(0), [0, 1, 8, 9])

    def test_map_over_block_cyclic(self, ctx4):
        data = np.arange(16.0)
        dist = BlockCyclicDistribution((16,), (4,), (2,))
        src = DistArray(ctx4.machine, dist, data.dtype)
        src.fill_from_global(data)
        dst = DistArray(ctx4.machine, BlockCyclicDistribution((16,), (4,), (2,)),
                        data.dtype)
        ctx4.array_map(lambda v, ix: v + ix[0], src, dst)
        np.testing.assert_array_equal(dst.global_view(), data + np.arange(16))


class TestStridedLayoutsChargeOwnedElements:
    """The elementwise skeletons charge the elements a rank *owns*.
    ``bounds(r).size`` is the bounding box of a strided partition — 61 of
    64 elements at p=4 cyclic, where the rank owns 16."""

    @staticmethod
    def charged(ctx, call):
        """The per-rank compute vectors one skeleton call charges."""
        vectors = []
        original = ctx.machine.network.compute

        def recording(seconds):
            if np.ndim(seconds) == 1:
                vectors.append(np.array(seconds))
            original(seconds)

        ctx.machine.network.compute = recording
        try:
            call()
        finally:
            del ctx.machine.network.compute
        return vectors

    @pytest.mark.parametrize("dist", [
        CyclicDistribution((64,), (4,)),
        BlockCyclicDistribution((26,), (4,), (2,)),  # ranks own 8, 6, 6, 6
    ], ids=["cyclic", "block-cyclic"])
    def test_map_zip_fold(self, ctx4, dist):
        a, b, out = (DistArray(ctx4.machine, dist, np.float64) for _ in range(3))
        owned = np.array([a.local(r).size for r in range(4)])
        boxes = np.array([dist.bounds(r).size for r in range(4)])
        assert (owned < boxes).all()
        np.testing.assert_array_equal(dist.part_sizes(), owned)

        f1 = skil_fn(ops=1)(lambda v, ix: v)
        f2 = skil_fn(ops=1)(lambda x, y, ix: x + y)
        t = ctx4.charge.elem_time(1)
        (m,) = self.charged(ctx4, lambda: ctx4.array_map(f1, a, out))
        (z,) = self.charged(ctx4, lambda: ctx4.array_zip(f2, a, b, out))
        (f,) = self.charged(ctx4, lambda: ctx4.array_fold(f1, PLUS, a))
        np.testing.assert_array_equal(m, owned * t)
        np.testing.assert_array_equal(z, owned * t)
        np.testing.assert_array_equal(
            f, owned * t + (owned - 1) * ctx4.charge.elem_time(PLUS.ops)
        )

    def test_create_on_its_block_layout(self, ctx4):
        """array_create builds block layouts only; same rule there."""
        init = skil_fn(ops=1)(lambda ix: 0.0)
        made = []
        (c,) = self.charged(
            ctx4,
            lambda: made.append(ctx4.array_create(1, (10,), (0,), (-1,), init)),
        )
        owned = np.array([made[0].local(r).size for r in range(4)])
        assert owned.tolist() == [3, 3, 2, 2]
        np.testing.assert_array_equal(c, owned * ctx4.charge.elem_time(1))
