"""Unit + property tests for distributions and bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    Bounds,
    CyclicDistribution,
)
from repro.errors import DistributionError


class TestBounds:
    def test_shape_and_size(self):
        b = Bounds((2, 3), (5, 9))
        assert b.shape == (3, 6)
        assert b.size == 18

    def test_c_style_inclusive_bounds(self):
        """The paper's Bounds struct is inclusive on both ends."""
        b = Bounds((0, 4), (2, 8))
        assert b.lowerBd == (0, 4)
        assert b.upperBd == (1, 7)

    def test_contains(self):
        b = Bounds((2,), (5,))
        assert b.contains((2,))
        assert b.contains((4,))
        assert not b.contains((5,))
        assert not b.contains((1,))

    def test_localize(self):
        b = Bounds((10, 20), (15, 30))
        assert b.localize((12, 25)) == (2, 5)


class TestBlockDistribution:
    def test_even_split(self):
        d = BlockDistribution((8, 8), (2, 2))
        assert d.bounds(0) == Bounds((0, 0), (4, 4))
        assert d.bounds(3) == Bounds((4, 4), (8, 8))

    def test_uneven_split_leading_ranks_bigger(self):
        d = BlockDistribution((10,), (4,))
        sizes = [d.bounds(r).size for r in range(4)]
        assert sizes == [3, 3, 2, 2]

    def test_owner_matches_bounds(self):
        d = BlockDistribution((9, 7), (3, 2))
        for i in range(9):
            for j in range(7):
                r = d.owner((i, j))
                assert d.bounds(r).contains((i, j))

    def test_grid_coords_roundtrip(self):
        d = BlockDistribution((8, 8, 8), (2, 2, 2))
        for r in range(8):
            assert d.grid_rank(d.grid_coords(r)) == r

    def test_row_block_layout(self):
        """The gauss layout: p x 1 grid, n/p rows each."""
        d = BlockDistribution((8, 5), (4, 1))
        b = d.bounds(2)
        assert b.lower == (4, 0)
        assert b.upper == (6, 5)

    def test_rejects_more_procs_than_elems(self):
        with pytest.raises(DistributionError):
            BlockDistribution((2,), (4,))

    def test_rejects_rank_grid_mismatch(self):
        with pytest.raises(DistributionError):
            BlockDistribution((8, 8), (2,))

    def test_out_of_range_index(self):
        d = BlockDistribution((4,), (2,))
        with pytest.raises(DistributionError):
            d.owner((4,))

    def test_owner_rejects_index_of_wrong_length(self):
        """An index with too few coordinates once answered a rank, one
        with too many raised a bare IndexError."""
        d = BlockDistribution((8, 8), (2, 2))
        for index in ((5,), (1, 2, 3), ()):
            with pytest.raises(DistributionError, match="coordinates"):
                d.owner(index)

    def test_owner_reads_the_owner_vectors(self):
        d = BlockDistribution((10, 7), (4, 3))
        rows, cols = d.owner_vectors()
        for i in range(10):
            for j in range(7):
                want = d.grid_rank((
                    int(np.searchsorted(d._splits[0], i, side="right") - 1),
                    int(np.searchsorted(d._splits[1], j, side="right") - 1),
                ))
                assert d.owner((i, j)) == d.owner((np.int64(i), np.int64(j))) == want
                assert want == rows[i] * 3 + cols[j]
        with pytest.raises(DistributionError, match="outside"):
            d.owner((-1, 0))

    @pytest.mark.parametrize("shape,grid", [((64, 8), (8, 1)), ((10, 3), (4, 3)),
                                            ((7,), (7,)), ((100, 4), (16, 2))])
    def test_slab_rows_memoized_with_unchanged_cuts(self, shape, grid):
        d = BlockDistribution(shape, grid)
        g0, splits = grid[0], d._splits[0]
        for k in range(0, g0 + 3):
            slabs = d.slab_rows(k)
            assert d.slab_rows(k) is slabs  # one cut list per k
            if 1 < k <= g0:
                cuts = [int(splits[(i * g0 + k // 2) // k]) for i in range(k + 1)]
                assert [(s.start, s.stop) for s in slabs] == list(zip(cuts, cuts[1:]))
            else:
                assert slabs == (slice(0, shape[0]),)

    def test_out_of_range_rank(self):
        d = BlockDistribution((4,), (2,))
        with pytest.raises(DistributionError):
            d.bounds(2)

    @given(
        n=st.integers(min_value=1, max_value=200),
        m=st.integers(min_value=1, max_value=200),
        gr=st.integers(min_value=1, max_value=8),
        gc=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60)
    def test_partitions_tile_index_space(self, n, m, gr, gc):
        """Property: partitions are disjoint and cover every index."""
        if n < gr or m < gc:
            return
        d = BlockDistribution((n, m), (gr, gc))
        total = sum(d.bounds(r).size for r in range(d.p))
        assert total == n * m
        # spot-check disjointness via ownership consistency
        rng = np.random.default_rng(42)
        for _ in range(20):
            ix = (int(rng.integers(n)), int(rng.integers(m)))
            owners = [r for r in range(d.p) if d.bounds(r).contains(ix)]
            assert owners == [d.owner(ix)]

    def test_halo_bounds_clipped(self):
        d = BlockDistribution((8,), (2,), overlap=2)
        assert d.halo_bounds(0) == Bounds((0,), (6,))
        assert d.halo_bounds(1) == Bounds((2,), (8,))

    def test_negative_overlap_rejected(self):
        with pytest.raises(DistributionError):
            BlockDistribution((8,), (2,), overlap=-1)


class TestPardataArgs:
    """The paper's array_create parameter conventions."""

    def test_defaults(self):
        d = BlockDistribution.from_pardata_args(
            2, (8, 8), (0, 0), (-1, -1), (2, 2)
        )
        assert d.bounds(0).shape == (4, 4)

    def test_explicit_consistent_blocksize(self):
        d = BlockDistribution.from_pardata_args(2, (8, 8), (4, 4), (-1, -1), (2, 2))
        assert d.bounds(3).shape == (4, 4)

    def test_conflicting_blocksize_rejected(self):
        with pytest.raises(DistributionError):
            BlockDistribution.from_pardata_args(2, (8, 8), (3, 4), (-1, -1), (2, 2))

    def test_positive_lowerbd_rejected(self):
        with pytest.raises(DistributionError):
            BlockDistribution.from_pardata_args(1, (8,), (0,), (5,), (2,))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            BlockDistribution.from_pardata_args(2, (8,), (0, 0), (-1, -1), (2, 2))


class TestCyclicDistribution:
    def test_owner_round_robin(self):
        d = CyclicDistribution((8,), (3,))
        assert [d.owner((i,)) for i in range(8)] == [0, 1, 2, 0, 1, 2, 0, 1]

    def test_local_indices(self):
        d = CyclicDistribution((8,), (3,))
        np.testing.assert_array_equal(d.local_indices(1)[0], [1, 4, 7])

    def test_local_shape_sums_to_total(self):
        d = CyclicDistribution((10, 7), (2, 3))
        total = 0
        for r in range(d.p):
            s = d.local_shape(r)
            total += s[0] * s[1]
        assert total == 70

    def test_out_of_range(self):
        d = CyclicDistribution((4,), (2,))
        with pytest.raises(DistributionError):
            d.owner((9,))


class TestBlockCyclicDistribution:
    def test_owner_pattern(self):
        d = BlockCyclicDistribution((8,), (2,), (2,))
        # blocks of 2 dealt round robin: 0 0 1 1 0 0 1 1
        assert [d.owner((i,)) for i in range(8)] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_local_indices_match_ownership(self):
        d = BlockCyclicDistribution((13,), (3,), (2,))
        for r in range(3):
            for i in d.local_indices(r)[0]:
                assert d.owner((int(i),)) == r

    def test_coverage(self):
        d = BlockCyclicDistribution((13, 9), (2, 2), (3, 2))
        total = sum(
            len(d.local_indices(r)[0]) * len(d.local_indices(r)[1])
            for r in range(4)
        )
        assert total == 13 * 9

    def test_invalid_block(self):
        with pytest.raises(DistributionError):
            BlockCyclicDistribution((8,), (2,), (0,))

    @given(
        n=st.integers(min_value=4, max_value=100),
        g=st.integers(min_value=1, max_value=4),
        b=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40)
    def test_every_index_owned_once(self, n, g, b):
        d = BlockCyclicDistribution((n,), (g,), (b,))
        counts = np.zeros(n, dtype=int)
        for r in range(g):
            counts[d.local_indices(r)[0]] += 1
        assert np.all(counts == 1)
