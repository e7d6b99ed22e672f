"""End-to-end SPMD programs on the event engine, validated against the
analytic clock layer.

These write Gentleman's algorithm the way a Parix programmer would —
explicit sends and receives per rank — run it on the message-granularity
engine, and check (a) the numeric result against numpy and (b) the
simulated makespan against the analytic `shpaths_c` implementation,
pinning the two timing engines against each other at application scale.
"""

import math

import numpy as np
import pytest

from repro.apps.shortest_paths import random_distance_matrix, shortest_paths_oracle
from repro.baselines.parix_c import make_c_machine, shpaths_c
from repro.machine.costmodel import PARIX_C, T800_PARSYTEC
from repro.machine.engine import Compute, Engine, ISend, Recv
from repro.machine.machine import Machine
from repro.machine.topology import Torus2D


def engine_shpaths(machine: Machine, dist: np.ndarray):
    """Hand-written SPMD (min,+) squaring on the event engine."""
    n = dist.shape[0]
    p = machine.p
    g = machine.mesh.rows
    nb = n // g
    topo = machine.topology("DISTR_TORUS2D")
    assert isinstance(topo, Torus2D)
    prof = PARIX_C
    cost = machine.cost
    t_round = nb * nb * nb * 2 * prof.elem_time(cost)
    iters = max(1, math.ceil(math.log2(n)))

    blocks = {}
    for r in range(p):
        i, j = topo.grid_coords(r)
        blocks[r] = dist[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb].copy()

    result = {}

    def prog(rank: int):
        i, j = topo.grid_coords(rank)
        a = blocks[rank]
        nbytes = a.nbytes
        yield Compute(nb * nb * prof.elem_time(cost))  # init sweep
        for _ in range(iters):
            yield Compute(nbytes * cost.t_mem)  # local b = a
            ab, bb = a.copy(), a.copy()
            cb = np.full_like(a, np.inf)
            # skew: send my a-block i columns west, b-block j rows north
            a_dst = topo.grid_rank(i, j - i)
            b_dst = topo.grid_rank(i - j, j)
            if a_dst != rank:
                yield ISend(a_dst, payload=ab, nbytes=nbytes, tag="skew-a")
                ab = yield Recv(topo.grid_rank(i, j + i), tag="skew-a")
            if b_dst != rank:
                yield ISend(b_dst, payload=bb, nbytes=nbytes, tag="skew-b")
                bb = yield Recv(topo.grid_rank(i + j, j), tag="skew-b")
            for step in range(g):
                cb = np.minimum(
                    cb, np.min(ab[:, :, None] + bb[None, :, :], axis=1)
                )
                yield Compute(t_round)
                if step < g - 1:
                    yield ISend(topo.west(rank), payload=ab, nbytes=nbytes,
                                tag=f"rot-a{step}")
                    yield ISend(topo.north(rank), payload=bb, nbytes=nbytes,
                                tag=f"rot-b{step}")
                    ab = yield Recv(topo.east(rank), tag=f"rot-a{step}")
                    bb = yield Recv(topo.south(rank), tag=f"rot-b{step}")
            a = cb
            yield Compute(nbytes * cost.t_mem)  # copy c back into a
        result[rank] = a

    eng = Engine(machine.cost, topo, machine.network)
    for r in range(p):
        eng.spawn(r, prog(r))
    makespan = eng.run()

    out = np.zeros((n, n))
    for r in range(p):
        i, j = topo.grid_coords(r)
        out[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] = result[r]
    return out, makespan


class TestEngineShpaths:
    @pytest.mark.parametrize("p", [4, 16])
    def test_numerically_correct(self, p):
        dist = random_distance_matrix(16, seed=7)
        machine = Machine(p)
        out, _ = engine_shpaths(machine, dist)
        np.testing.assert_allclose(out, shortest_paths_oracle(dist))

    def test_time_matches_analytic_layer(self):
        """Engine and analytic implementations of the same algorithm
        must land on closely matching simulated times."""
        dist = random_distance_matrix(16, seed=8)
        m1 = Machine(16)
        _, makespan = engine_shpaths(m1, dist)
        m2 = make_c_machine(16)
        _, rep = shpaths_c(m2, dist)
        assert makespan == pytest.approx(rep.seconds, rel=0.15)

    def test_message_counts_match_analytic(self):
        dist = random_distance_matrix(16, seed=9)
        m1 = Machine(4)
        engine_shpaths(m1, dist)
        m2 = make_c_machine(4)
        shpaths_c(m2, dist)
        # same algorithm, same pattern — identical message counts up to
        # the unskew realignment the block-level version charges
        assert abs(m1.stats.messages - m2.stats.messages) <= m2.p * 8

    def test_deterministic(self):
        dist = random_distance_matrix(8, seed=10)
        t1 = engine_shpaths(Machine(4), dist)[1]
        t2 = engine_shpaths(Machine(4), dist)[1]
        assert t1 == t2
