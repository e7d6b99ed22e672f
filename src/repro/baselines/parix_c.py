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
from repro.skeletons import MIN, PLUS
from repro.skeletons.genmult import semiring_stacked_product

__all__ = ["shpaths_c", "gauss_c", "matmul_c", "make_c_machine"]


def make_c_machine(p: int, old: bool = False, cost: CostModel = T800_PARSYTEC) -> Machine:
    """Machine configured the way the respective C version used it."""
    return Machine(p, cost=cost, use_virtual_topologies=not old)


def _torus_blocks(mat: np.ndarray, g: int) -> np.ndarray:
    """The ``g x g`` blocks of *mat* stacked in rank order (rank
    ``i * g + j`` holds block ``(i, j)``): one ``(p, nb, nb)`` array."""
    nb = mat.shape[0] // g
    return mat.reshape(g, nb, g, nb).swapaxes(1, 2).reshape(g * g, nb, nb)


def _untorus(blocks: np.ndarray, g: int) -> np.ndarray:
    """The matrix whose :func:`_torus_blocks` are *blocks*."""
    nb = blocks.shape[1]
    return blocks.reshape(g, g, nb, nb).swapaxes(1, 2).reshape(g * nb, g * nb)


def _torus_shifter(charge: Charge, topo, g: int, nbytes: int):
    """``shift(blocks, move, tag)`` for the skews and rotations of
    Gentleman's algorithm on a ``g x g`` torus: charges one *nbytes* block
    along every ``(src, dst)`` pair that crosses a link (no charge when
    none does) and returns the stack with block ``src`` at rank ``dst`` —
    one gather by the inverse permutation."""
    i, j = np.divmod(np.arange(g * g), g)
    dsts = {
        ("a", +1): i * g + (j - i) % g, ("a", -1): i * g + (j + i) % g,
        ("b", +1): (i - j) % g * g + j, ("b", -1): (i + j) % g * g + j,
        "west": i * g + (j - 1) % g, "north": (i - 1) % g * g + j,
    }
    moves = {}
    for move, dst in dsts.items():
        moved = np.flatnonzero(dst != np.arange(g * g))
        pairs = list(zip(moved.tolist(), dst[moved].tolist()))
        moves[move] = (pairs, np.argsort(dst))

    def shift(blocks: np.ndarray, move, tag: str) -> np.ndarray:
        pairs, src = moves[move]
        if not pairs:
            return blocks
        charge.shift(pairs, nbytes, topo, tag=tag)
        return blocks[src]

    return shift


def shpaths_c(
    machine: Machine, dist_matrix: np.ndarray, old: bool = False
) -> tuple[np.ndarray, RunReport]:
    """Hand-written Gentleman (min,+) squaring, message passing only.

    All ranks' blocks are one ``(p, nb, nb)`` stack: a step is the stacked
    (min,+) product of ``array_gen_mult``, a skew or rotation one gather.
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
    a = _torus_blocks(dist_matrix.astype(np.float64), g)
    charge.work((nb * nb, 1.0))  # init sweep

    nbytes = a[0].nbytes
    shift = _torus_shifter(charge, topo, g, nbytes)

    iters = max(1, math.ceil(math.log2(n)))
    for _ in range(iters):
        # b = a (local memcpy), c = inf
        charge.memcpy(nbytes)
        ab = shift(a, ("a", +1), "c-skew-a")
        bb = shift(a, ("b", +1), "c-skew-b")
        cb = np.full_like(a, np.inf)
        for step in range(g):
            cb = semiring_stacked_product(MIN, PLUS, ab, bb, cb)
            charge.work((nb * nb * nb * 2, 1.0))  # a (min, +) pair per (i, j, k)
            if step < g - 1:
                ab = shift(ab, "west", "c-rot-a")
                bb = shift(bb, "north", "c-rot-b")
        # hand-written code reuses the buffers; no unskew needed because
        # ab/bb are scratch copies — but the old C did a full realignment
        if old and g > 1:
            shift(ab, ("a", -1), "c-skew-a")
            shift(bb, ("b", -1), "c-skew-b")
        a = cb
        charge.memcpy(nbytes)  # copy c back into a

    report = RunReport(machine.time - start, machine.stats, p, n, prof.name)
    return _untorus(a, g), report


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

    Stacked like :func:`shpaths_c`: one batched ``np.matmul`` per step,
    which runs the same BLAS call on every block as a per-block ``@``.
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

    ab, bb = _torus_blocks(a_mat, g), _torus_blocks(b_mat, g)
    cb = np.zeros((p, nb, nb))
    charge.work((2 * nb * nb, 1.0))
    shift = _torus_shifter(charge, topo, g, ab[0].nbytes)

    ab = shift(ab, ("a", +1), "c-mm-skew-a")
    bb = shift(bb, ("b", +1), "c-mm-skew-b")
    for step in range(g):
        cb = cb + ab @ bb
        charge.work((nb * nb * nb * 2, 1.0))
        if step < g - 1:
            ab = shift(ab, "west", "c-mm-rot-a")
            bb = shift(bb, "north", "c-mm-rot-b")

    report = RunReport(machine.time - start, machine.stats, p, n, PARIX_C.name)
    return _untorus(cb, g), report
