"""Hand-written message-passing baselines (the paper's "Parix-C").

These implement the same two algorithms *directly* — no skeleton objects,
no skeleton-call overhead, no residual per-element calls; loops are
"written by hand" (numpy blocks).  Like the skeletons they only state
their work to a :class:`~repro.machine.charge.Charge`, here built over
the C profile (factor 1.0).  They are the comparator of Table 2's
italics row and Table 1's last column.

Two C variants exist in the paper:

* :func:`shpaths_c` with ``old=True`` — "an older version, which does
  not use virtual topologies or asynchronous communication" (Table 1;
  this is the version Skil *beats*);
* ``old=False`` — the "equally optimized" C of the §5.1 matmul
  comparison (ref. [3]), with folded torus embedding and asynchronous
  sends.

The test-suite checks that a Skil-profile skeleton run and these
hand-written runs have consistent message counts and that the C runs are
faster — i.e. that the skeleton layer really only adds the overheads the
paper says it adds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.shortest_paths import RunReport
from repro.errors import SkilError
from repro.machine.charge import Charge
from repro.machine.costmodel import PARIX_C, PARIX_C_OLD, CostModel, T800_PARSYTEC
from repro.machine.machine import Machine
from repro.machine.topology import Torus2D

__all__ = ["shpaths_c", "gauss_c", "matmul_c", "make_c_machine"]


def make_c_machine(p: int, old: bool = False, cost: CostModel = T800_PARSYTEC) -> Machine:
    """Machine configured the way the respective C version used it."""
    return Machine(p, cost=cost, use_virtual_topologies=not old)


def _block_dist_rows(n: int, p: int) -> list[tuple[int, int]]:
    base, extra = divmod(n, p)
    bounds = []
    lo = 0
    for r in range(p):
        hi = lo + base + (1 if r < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _profile(old: bool):
    return PARIX_C_OLD if old else PARIX_C


def shpaths_c(
    machine: Machine, dist_matrix: np.ndarray, old: bool = False
) -> tuple[np.ndarray, RunReport]:
    """Hand-written Gentleman (min,+) squaring, message passing only."""
    n = dist_matrix.shape[0]
    p = machine.p
    g = machine.mesh.rows
    if machine.mesh.rows != machine.mesh.cols:
        raise SkilError("shpaths_c needs a square processor grid")
    if n % g != 0:
        raise SkilError(f"n={n} must be divisible by the grid side {g}")
    prof = _profile(old)
    charge = Charge(machine, prof)
    topo = machine.topology("DISTR_TORUS2D")
    assert isinstance(topo, Torus2D)
    nb = n // g
    start = machine.time

    # distribute the matrix into g x g blocks (C code: local init loops)
    def blocks_of(mat):
        return [
            mat[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].copy()
            for i in range(g)
            for j in range(g)
        ]

    a = blocks_of(dist_matrix.astype(np.float64))
    charge.work((nb * nb, 1.0))  # init sweep

    nbytes = a[0].nbytes

    def skew_pairs(kind, direction):
        pairs = []
        for r in range(p):
            i, j = topo.grid_coords(r)
            if kind == "a":
                dst = topo.grid_rank(i, j - direction * i)
            else:
                dst = topo.grid_rank(i - direction * j, j)
            if dst != r:
                pairs.append((r, dst))
        return pairs

    # the permutations are the same in every iteration
    skews = {
        (kind, direction): skew_pairs(kind, direction)
        for kind in "ab"
        for direction in (+1, -1)
    }

    def skew(blocks, kind, direction):
        pairs = skews[kind, direction]
        if pairs:
            charge.shift(pairs, nbytes, topo, tag=f"c-skew-{kind}")
            moved = {d: blocks[s] for s, d in pairs}
            for d, blk in moved.items():
                blocks[d] = blk

    def rotate(blocks, pairs, tag):
        charge.shift(pairs, nbytes, topo, tag=tag)
        moved = {d: blocks[s] for s, d in pairs}
        for d, blk in moved.items():
            blocks[d] = blk

    west = [(r, topo.west(r)) for r in range(p) if topo.west(r) != r]
    north = [(r, topo.north(r)) for r in range(p) if topo.north(r) != r]

    iters = max(1, math.ceil(math.log2(n)))
    for _ in range(iters):
        # b = a (local memcpy), c = inf
        charge.memcpy(nbytes)
        ab = [blk.copy() for blk in a]
        bb = [blk.copy() for blk in a]
        cb = [np.full_like(blk, np.inf) for blk in a]
        skew(ab, "a", +1)
        skew(bb, "b", +1)
        for step in range(g):
            for r in range(p):
                cb[r] = np.minimum(
                    cb[r], np.min(ab[r][:, :, None] + bb[r][None, :, :], axis=1)
                )
            charge.work((nb * nb * nb * 2, 1.0))  # a (min, +) pair per (i, j, k)
            if step < g - 1:
                rotate(ab, west, "c-rot-a")
                rotate(bb, north, "c-rot-b")
        # hand-written code reuses the buffers; no unskew needed because
        # ab/bb are scratch copies — but the old C did a full realignment
        if old and g > 1:
            skew(ab, "a", -1)
            skew(bb, "b", -1)
        a = cb
        charge.memcpy(nbytes)  # copy c back into a

    result = np.zeros((n, n))
    for r in range(p):
        i, j = topo.grid_coords(r)
        result[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = a[r]
    report = RunReport(machine.time - start, machine.stats, p, n, prof.name)
    return result, report


def gauss_c(machine: Machine, a_mat: np.ndarray, rhs: np.ndarray
            ) -> tuple[np.ndarray, RunReport]:
    """Hand-written Gauss-Jordan without pivoting (Table 2 comparator)."""
    n = a_mat.shape[0]
    p = machine.p
    if n % p != 0:
        raise SkilError(f"n={n} must be divisible by p={p}")
    charge = Charge(machine, PARIX_C)
    topo = machine.topology("DISTR_DEFAULT")
    rows = _block_dist_rows(n, p)
    start = machine.time

    ext = np.concatenate([a_mat, rhs[:, None]], axis=1)
    blocks = [ext[lo:hi].copy() for lo, hi in rows]
    charge.work(((n // p) * (n + 1), 1.0))

    row_bytes = (n + 1) * ext.dtype.itemsize

    for k in range(n):
        owner = next(r for r, (lo, hi) in enumerate(rows) if lo <= k < hi)
        lo, _ = rows[owner]
        piv = blocks[owner][k - lo] / blocks[owner][k - lo][k]
        charge.work_at(owner, n + 1)
        charge.broadcast(owner, row_bytes, topo, tag="c-pivrow")
        # local elimination, all rows except the pivot row, columns >= k
        for r in range(p):
            blo, bhi = rows[r]
            blk = blocks[r]
            factors = blk[:, k].copy()
            upd = blk - factors[:, None] * piv[None, :]
            upd[:, :k] = blk[:, :k]
            if blo <= k < bhi:
                upd[k - blo] = blk[k - blo]
            blocks[r] = upd
        charge.work(((n // p) * (n + 1 - k), 2.0))  # multiply + subtract

    # final normalisation of the last column
    for r, (lo, hi) in enumerate(rows):
        diag = blocks[r][np.arange(hi - lo), np.arange(lo, hi)]
        blocks[r][:, n] = blocks[r][:, n] / diag
    charge.work((n // p, 1.0))

    x = np.concatenate([blk[:, n] for blk in blocks])
    report = RunReport(machine.time - start, machine.stats, p, n, PARIX_C.name)
    return x, report


def matmul_c(machine: Machine, a_mat: np.ndarray, b_mat: np.ndarray
             ) -> tuple[np.ndarray, RunReport]:
    """Hand-written (equally optimized) Gentleman matmul — ablation A1."""
    n = a_mat.shape[0]
    p = machine.p
    g = machine.mesh.rows
    if machine.mesh.rows != machine.mesh.cols:
        raise SkilError("matmul_c needs a square processor grid")
    if n % g != 0:
        raise SkilError(f"n={n} must be divisible by the grid side {g}")
    charge = Charge(machine, PARIX_C)
    topo = machine.topology("DISTR_TORUS2D")
    nb = n // g
    start = machine.time

    def blocks_of(mat):
        return [
            mat[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb].copy()
            for i in range(g)
            for j in range(g)
        ]

    ab, bb = blocks_of(a_mat), blocks_of(b_mat)
    cb = [np.zeros((nb, nb)) for _ in range(p)]
    charge.work((2 * nb * nb, 1.0))
    nbytes = ab[0].nbytes

    def shift_perm(blocks, pairs, tag):
        if not pairs:
            return
        charge.shift(pairs, nbytes, topo, tag=tag)
        moved = {d: blocks[s] for s, d in pairs}
        for d, blk in moved.items():
            blocks[d] = blk

    def skew_pairs(kind, direction):
        pairs = []
        for r in range(p):
            i, j = topo.grid_coords(r)
            dst = (
                topo.grid_rank(i, j - direction * i)
                if kind == "a"
                else topo.grid_rank(i - direction * j, j)
            )
            if dst != r:
                pairs.append((r, dst))
        return pairs

    shift_perm(ab, skew_pairs("a", +1), "c-mm-skew-a")
    shift_perm(bb, skew_pairs("b", +1), "c-mm-skew-b")
    west = [(r, topo.west(r)) for r in range(p) if topo.west(r) != r]
    north = [(r, topo.north(r)) for r in range(p) if topo.north(r) != r]
    for step in range(g):
        for r in range(p):
            cb[r] = cb[r] + ab[r] @ bb[r]
        charge.work((nb * nb * nb * 2, 1.0))
        if step < g - 1:
            shift_perm(ab, west, "c-mm-rot-a")
            shift_perm(bb, north, "c-mm-rot-b")

    result = np.zeros((n, n))
    for r in range(p):
        i, j = topo.grid_coords(r)
        result[i * nb : (i + 1) * nb, j * nb : (j + 1) * nb] = cb[r]
    report = RunReport(machine.time - start, machine.stats, p, n, PARIX_C.name)
    return result, report
