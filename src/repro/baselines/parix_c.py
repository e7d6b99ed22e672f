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
from repro.skeletons import MIN, PLUS, TIMES
from repro.skeletons.genmult import pooled_product

__all__ = ["shpaths_c", "gauss_c", "matmul_c", "make_c_machine"]


def make_c_machine(p: int, old: bool = False, cost: CostModel = T800_PARSYTEC) -> Machine:
    """Machine configured the way the respective C version used it."""
    return Machine(p, cost=cost, use_virtual_topologies=not old)


def _gentleman_shifts(charge: Charge, topo, nbytes: int):
    """``shift(move, tag)`` for the skews and rotations of Gentleman's
    algorithm on a ``g x g`` torus: charges one *nbytes* block along every
    pair of the move (no charge when no block moves).  Nothing is
    gathered — the product is computed whole."""

    def shift(move, tag: str) -> None:
        srcs, dsts = topo.gentleman_pairs(move)
        if srcs.size:
            charge.shift_batch(srcs, dsts, nbytes, topo, tag=tag)

    return shift


def shpaths_c(
    machine: Machine, dist_matrix: np.ndarray, old: bool = False
) -> tuple[np.ndarray, RunReport]:
    """Hand-written Gentleman (min,+) squaring, message passing only.

    A step charges Gentleman's skews, rounds and rotations and computes
    the (min,+) product of ``array_gen_mult`` over the whole matrix.
    """
    n = dist_matrix.shape[0]
    p = machine.p
    g = machine.mesh.rows
    if machine.mesh.rows != machine.mesh.cols:
        raise SkilError("shpaths_c needs a square processor grid")
    if n % g != 0:
        raise SkilError(f"n={n} must be divisible by the grid side {g}")
    prof = PARIX_C_OLD if old else PARIX_C
    charge = Charge(machine, prof)
    topo = machine.topology("DISTR_TORUS2D")
    nb = n // g
    start = machine.time

    # distribute the matrix into g x g blocks (C code: local init loops)
    a = dist_matrix.astype(np.float64)
    charge.work((nb * nb, 1.0))  # init sweep

    nbytes = nb * nb * a.itemsize
    shift = _gentleman_shifts(charge, topo, nbytes)
    inf = np.full_like(a, np.inf)

    iters = max(1, math.ceil(math.log2(n)))
    for _ in range(iters):
        # b = a (local memcpy), c = inf
        charge.memcpy(nbytes)
        shift(("a", +1), "c-skew-a")
        shift(("b", +1), "c-skew-b")
        for step in range(g):
            charge.work((nb * nb * nb * 2, 1.0))  # a (min, +) pair per (i, j, k)
            if step < g - 1:
                shift("west", "c-rot-a")
                shift("north", "c-rot-b")
        # hand-written code reuses the buffers; no unskew needed because
        # the rotated blocks are scratch copies — but the old C did a
        # full realignment
        if old and g > 1:
            shift(("a", -1), "c-skew-a")
            shift(("b", -1), "c-skew-b")
        a = pooled_product(MIN, PLUS, a, a, inf, g)
        charge.memcpy(nbytes)  # copy c back into a

    report = RunReport(machine.time - start, machine.stats, p, n, prof.name)
    return a, report


def gauss_c(machine: Machine, a_mat: np.ndarray, rhs: np.ndarray
            ) -> tuple[np.ndarray, RunReport]:
    """Hand-written Gauss-Jordan without pivoting (Table 2 comparator).

    All ranks' row blocks are one ``(p, n/p, n + 1)`` stack (a view of the
    extended matrix), eliminated in place by one numpy call per step.
    """
    n = a_mat.shape[0]
    p = machine.p
    if n % p != 0:
        raise SkilError(f"n={n} must be divisible by p={p}")
    charge = Charge(machine, PARIX_C)
    topo = machine.topology("DISTR_DEFAULT")
    m = n // p
    start = machine.time

    ext = np.concatenate([a_mat, rhs[:, None]], axis=1)
    blocks = ext.reshape(p, m, n + 1)
    charge.work((m * (n + 1), 1.0))

    row_bytes = (n + 1) * ext.dtype.itemsize

    for k in range(n):
        owner, row = divmod(k, m)
        pivot_row = blocks[owner, row].copy()
        piv = pivot_row / pivot_row[k]
        charge.work_at(owner, n + 1)
        charge.broadcast(owner, row_bytes, topo, tag="c-pivrow")
        # local elimination, all rows except the pivot row, columns >= k
        factors = blocks[:, :, k].copy()
        blocks[:, :, k:] -= factors[:, :, None] * piv[k:]
        blocks[owner, row] = pivot_row
        charge.work((m * (n + 1 - k), 2.0))  # multiply + subtract

    # final normalisation of the last column
    x = ext[:, n] / ext.diagonal()
    charge.work((m, 1.0))

    report = RunReport(machine.time - start, machine.stats, p, n, PARIX_C.name)
    return x, report


def matmul_c(machine: Machine, a_mat: np.ndarray, b_mat: np.ndarray
             ) -> tuple[np.ndarray, RunReport]:
    """Hand-written (equally optimized) Gentleman matmul — ablation A1.

    Charged like :func:`shpaths_c`; the product is ``array_gen_mult``'s
    classical one, a BLAS block product per k-block in ascending order.
    """
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

    charge.work((2 * nb * nb, 1.0))
    shift = _gentleman_shifts(charge, topo, nb * nb * a_mat.itemsize)

    shift(("a", +1), "c-mm-skew-a")
    shift(("b", +1), "c-mm-skew-b")
    for step in range(g):
        charge.work((nb * nb * nb * 2, 1.0))
        if step < g - 1:
            shift("west", "c-mm-rot-a")
            shift("north", "c-mm-rot-b")
    c_mat = pooled_product(PLUS, TIMES, a_mat, b_mat, np.zeros((n, n)), g)

    report = RunReport(machine.time - start, machine.stats, p, n, PARIX_C.name)
    return c_mat, report
