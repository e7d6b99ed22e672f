"""Closed-form hop distances and binomial rounds vs the scalar originals.

The extreme-scale tier (p = 65536) computes hops by coordinate
arithmetic (``hops_vec``, ``edge_hops``) and a binomial tree as one
array plan (``tree_plan``: every edge, round after round).  These tests
pin the contract: at small p the closed forms agree entry for entry with
a dense matrix of the scalar ``mesh.hops(place(s), place(d))`` and with
the Python tuples of ``_binomial_rounds``, and at no p is a ``(p, p)``
array allocated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.topology import (
    BinomialTree,
    DefaultMapping,
    Mesh2D,
    Ring,
    Torus2D,
    _binomial_rounds,
)

TOPOLOGIES = {
    "default": lambda m: DefaultMapping(m),
    "ring": lambda m: Ring(m),
    "torus-folded": lambda m: Torus2D(m, folded=True),
    "torus-naive": lambda m: Torus2D(m, folded=False),
    "binomial": lambda m: BinomialTree(m),
}


def _mesh(p: int) -> Mesh2D:
    return Mesh2D.for_processors(p)


def _dense(topo) -> np.ndarray:
    """The ``(p, p)`` hops of every logical edge, by the scalar mesh
    distance of the placed endpoints."""
    place = [topo.place(r) for r in range(topo.p)]
    return np.array([[topo.mesh.hops(s, d) for d in place] for s in place])


def _round_arrays(p: int, root: int):
    """``tree_plan(root)``'s edges cut into its rounds."""
    plan = DefaultMapping(_mesh(p)).tree_plan(root)
    return [(plan.srcs[lo:hi], plan.dsts[lo:hi]) for lo, hi in plan.bounds]


class TestHopsVecMatchesDense:
    @pytest.mark.parametrize("builder", TOPOLOGIES.values(), ids=TOPOLOGIES)
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 9, 16, 31])
    def test_all_pairs_equal_dense_matrix(self, builder, p):
        topo = builder(_mesh(p))
        dense = _dense(topo)
        srcs, dsts = np.meshgrid(
            np.arange(p), np.arange(p), indexing="ij"
        )
        lazy = topo.hops_vec(srcs.ravel(), dsts.ravel()).reshape(p, p)
        np.testing.assert_array_equal(lazy, dense)

    @pytest.mark.parametrize("builder", TOPOLOGIES.values(), ids=TOPOLOGIES)
    def test_edge_hops_agrees_scalar(self, builder):
        p = 12
        topo = builder(_mesh(p))
        dense = _dense(topo)
        for s in range(p):
            for d in range(p):
                assert topo.edge_hops(s, d) == int(dense[s, d])

    @given(
        p=st.integers(min_value=1, max_value=64),
        name=st.sampled_from(sorted(TOPOLOGIES)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pairs_property(self, p, name, data):
        topo = TOPOLOGIES[name](_mesh(p))
        srcs = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=p - 1),
                    min_size=1, max_size=16,
                )
            ),
            dtype=np.int64,
        )
        dsts = np.asarray(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=p - 1),
                    min_size=srcs.size, max_size=srcs.size,
                )
            ),
            dtype=np.int64,
        )
        dense = _dense(topo)
        np.testing.assert_array_equal(
            topo.hops_vec(srcs, dsts), dense[srcs, dsts]
        )

    @pytest.mark.parametrize("builder", TOPOLOGIES.values(), ids=TOPOLOGIES)
    def test_place_vector_matches_scalar_place(self, builder):
        p = 24
        topo = builder(_mesh(p))
        np.testing.assert_array_equal(
            topo.place_vector(),
            np.array([topo.place(r) for r in range(p)], dtype=np.int64),
        )


class TestDenseGate:
    """No (p, p) allocation at any p — the whole point."""

    def test_hops_vec_works_above_threshold(self):
        p = 4096
        topo = Ring(_mesh(p))
        srcs = np.array([0, 1, p - 1, p // 2], dtype=np.int64)
        dsts = np.array([p - 1, 0, 1, p // 2], dtype=np.int64)
        hops = topo.hops_vec(srcs, dsts)
        assert hops.shape == (4,)
        assert int(hops[3]) == 0
        # the snake embedding keeps logical neighbours 1 hop apart
        assert topo.edge_hops(5, 6) == 1

    def test_scaffolding_stays_linear_at_large_p(self):
        # O(p) vectors only: coords for 65536 ranks are a few MB, while
        # a dense matrix would be 32 GiB
        p = 65536
        topo = Ring(_mesh(p))
        rows, cols = topo.placed_coords()
        assert rows.shape == (p,) and cols.shape == (p,)
        assert topo.place_vector().nbytes == p * 8


class TestBinomialRoundArrays:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 16, 31, 64, 100])
    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_matches_tuple_rounds(self, p, root):
        if root >= p:
            pytest.skip("root out of range")
        arr_rounds = _round_arrays(p, root)
        tup_rounds = _binomial_rounds(p, root)
        assert len(arr_rounds) == len(tup_rounds)
        for (srcs, dsts), rnd in zip(arr_rounds, tup_rounds):
            assert list(zip(srcs.tolist(), dsts.tolist())) == list(rnd)

    def test_rounds_are_conflict_free(self):
        # within one round every rank appears at most once — the
        # property that lets Network charge a round as one p2p wave
        for p in (16, 31, 64):
            for srcs, dsts in _round_arrays(p, 0):
                ranks = np.concatenate([srcs, dsts])
                assert np.unique(ranks).size == ranks.size

    def test_arrays_are_readonly(self):
        # memoized by VirtualTopology.tree_plan (under the plan store's
        # byte bound; see test_charge_plans.py)
        a = _round_arrays(256, 0)
        with pytest.raises(ValueError):
            a[0][0][0] = 99

    def test_matches_binomial_tree_broadcast(self):
        p, root = 16, 2
        tree = BinomialTree(_mesh(p), root)
        flat_arrays = [
            pair
            for srcs, dsts in _round_arrays(p, root)
            for pair in zip(srcs.tolist(), dsts.tolist())
        ]
        flat_tree = [
            pair for rnd in tree.broadcast_rounds() for pair in rnd
        ]
        assert flat_arrays == flat_tree
