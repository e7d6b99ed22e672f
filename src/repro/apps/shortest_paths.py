"""All-pairs shortest paths via (min, +) matrix powers — paper §4.1.

The program is the paper's ``shpaths`` verbatim, expressed through the
skeleton API: create ``a`` (the distance matrix), ``b`` (scratch copy)
and ``c`` (initialised to "infinity", the neutral element of ``min``) on
a 2-D torus; then ``log2(n)`` times

.. code-block:: c

   array_copy (a, b);
   array_gen_mult (a, b, min, (+), c);
   array_copy (c, a);

so that ``a`` holds ``A^2, A^4, ...`` and finally ``A^n``, whose entry
``(i, j)`` is the length of the shortest path from ``v_i`` to ``v_j``.

The paper stores edge weights as ``unsigned int`` "in order to avoid an
overflow when adding a value to infinity"; plain modular wrap-around
would corrupt ``min``, so the honest equivalent is *saturating*
addition — provided here as :data:`SAT_PLUS` over ``uint32``.  The
default entry point uses ``float64`` with ``np.inf`` (mathematically
identical and numpy-native); a ``dtype=np.uint32`` run exercises the
saturating path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SkilError
from repro.machine.machine import DISTR_TORUS2D
from repro.machine.trace import TraceStats
from repro.skeletons import MIN, PLUS, Section, SkilContext, skil_fn

__all__ = [
    "SAT_PLUS",
    "UINT_INF",
    "RunReport",
    "random_distance_matrix",
    "round_up_to_grid",
    "shpaths",
    "shortest_paths_oracle",
]

#: the paper's "infinity" for unsigned 32-bit weights
UINT_INF = np.uint32(0xFFFFFFFF)


def _sat_add_u32(x, y):
    s = x.astype(np.uint64) + y.astype(np.uint64)
    return np.minimum(s, np.uint64(UINT_INF)).astype(np.uint32)


#: saturating (+) over uint32 — overflow clamps at "infinity"
SAT_PLUS = Section(
    "sat+",
    lambda x, y: np.uint32(min(int(x) + int(y), int(UINT_INF))),
    np_op=_sat_add_u32,
    commutative_associative=True,
)


@dataclass
class RunReport:
    """Outcome of one simulated application run."""

    seconds: float
    stats: TraceStats
    p: int
    n: int
    profile: str


def random_distance_matrix(
    n: int, density: float = 0.3, max_weight: int = 100, seed: int = 0
) -> np.ndarray:
    """A random non-negative integer distance matrix (paper §4.1 setup).

    ``a_ii = 0``; ``a_ij = w_ij`` for existing edges, "infinity"
    otherwise.  Returned as float64 with ``np.inf``.
    """
    rng = np.random.default_rng(seed)
    a = np.full((n, n), np.inf)
    edges = rng.random((n, n)) < density
    weights = rng.integers(1, max_weight + 1, size=(n, n)).astype(float)
    a[edges] = weights[edges]
    np.fill_diagonal(a, 0.0)
    return a


def round_up_to_grid(n: int, g: int) -> int:
    """The paper's problem-size rule: "in the cases where sqrt(p) did not
    divide n, the next highest value divisible by sqrt(p) was taken"."""
    return n if n % g == 0 else n + (g - n % g)


def shortest_paths_oracle(dist_matrix: np.ndarray) -> np.ndarray:
    """Sequential reference: in-place Floyd–Warshall, O(n³), independent
    of the squaring it checks; exact (bitwise) for integer weights."""
    a = dist_matrix.copy()
    for k in range(a.shape[0]):
        np.minimum(a, a[:, k, None] + a[None, k, :], out=a)
    return a


def shpaths(
    ctx: SkilContext,
    dist_matrix: np.ndarray,
    dtype=np.float64,
) -> tuple[np.ndarray, RunReport]:
    """Run the paper's shpaths program; returns (result matrix, report).

    *dist_matrix* must be square with side divisible by the torus grid
    (use :func:`round_up_to_grid` and pad with infinity as the paper
    effectively does by enlarging the graph).
    """
    n = dist_matrix.shape[0]
    if dist_matrix.shape != (n, n):
        raise SkilError(f"distance matrix must be square, got {dist_matrix.shape}")
    g = ctx.machine.mesh.rows
    if ctx.machine.mesh.rows != ctx.machine.mesh.cols:
        raise SkilError("shpaths needs a square processor grid (p = g*g)")
    if n % g != 0:
        raise SkilError(
            f"n={n} not divisible by the torus side {g}; round it up with "
            "round_up_to_grid() as the paper does"
        )
    if np.any(np.diagonal(dist_matrix) != 0):
        raise SkilError(
            "shpaths expects a distance matrix with a_ii = 0 (paper §4.1); "
            "nonzero diagonals would invalidate reusing c across iterations"
        )

    if dtype == np.uint32:
        data = np.where(np.isinf(dist_matrix), float(UINT_INF), dist_matrix)
        data = data.astype(np.uint32)
        inf_val = UINT_INF
        add = SAT_PLUS
    else:
        data = dist_matrix.astype(dtype)
        inf_val = np.inf
        add = PLUS

    init_a = skil_fn(
        ops=1, vectorized=lambda grids, env: data[grids[0], grids[1]]
    )(lambda ix: data[ix])
    zero = skil_fn(ops=1, vectorized=lambda grids, env: np.zeros(1, dtype=dtype))(
        lambda ix: 0
    )
    int_max = skil_fn(
        ops=1, vectorized=lambda grids, env: np.full(1, inf_val, dtype=np.float64 if dtype != np.uint32 else np.uint32)
    )(lambda ix: inf_val)

    start = ctx.machine.time
    a = ctx.array_create(2, (n, n), (0, 0), (-1, -1), init_a, DISTR_TORUS2D, dtype=dtype)
    b = ctx.array_create(2, (n, n), (0, 0), (-1, -1), zero, DISTR_TORUS2D, dtype=dtype)
    c = ctx.array_create(2, (n, n), (0, 0), (-1, -1), int_max, DISTR_TORUS2D, dtype=dtype)

    for _ in range(max(1, math.ceil(math.log2(n)))):
        ctx.array_copy(a, b)
        ctx.array_gen_mult(a, b, MIN, add, c)
        ctx.array_copy(c, a)
        # NOTE: like the paper, c is not re-seeded between iterations.
        # This is sound because a_ii = 0 makes the (min,+) powers
        # monotonically non-increasing, so the stale accumulator can
        # never win against the fresh product (checked on entry).

    result = a.global_view().astype(np.float64)
    if dtype == np.uint32:
        result[result == float(UINT_INF)] = np.inf

    report = RunReport(
        seconds=ctx.machine.time - start,
        stats=ctx.machine.stats,
        p=ctx.p,
        n=n,
        profile=ctx.profile.name,
    )
    ctx.array_destroy(a)
    ctx.array_destroy(b)
    ctx.array_destroy(c)
    return result, report


def main(argv: list[str] | None = None) -> int:
    """Run shpaths standalone, optionally writing a Chrome trace."""
    import argparse

    from repro.machine.costmodel import SKIL
    from repro.machine.machine import Machine
    from repro.obs.stream import StreamConfig
    from repro.skeletons import SkilContext

    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.shortest_paths",
        description="All-pairs shortest paths on the simulated machine.",
    )
    parser.add_argument("--p", type=int, default=9, help="number of processors")
    parser.add_argument("--n", type=int, default=48, help="graph size")
    parser.add_argument("--seed", type=int, default=0, help="matrix seed")
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON (open in Perfetto); from "
        "p = 4096 on the run streams and FILE is its JSONL event spill",
    )
    args = parser.parse_args(argv)
    for flag, value in (("--p", args.p), ("--n", args.n)):
        if value < 1:
            parser.error(f"{flag} must be a positive integer, got {value}")
    if math.isqrt(args.p) ** 2 != args.p:
        parser.error(f"--p {args.p}: shpaths needs a square grid (p = g*g)")

    machine = Machine(args.p, trace_level=2 if args.trace else 0,
                      stream=StreamConfig(spill_path=args.trace))
    ctx = SkilContext(machine, SKIL)
    n = round_up_to_grid(args.n, machine.mesh.rows)
    dist = random_distance_matrix(n, density=0.25, seed=args.seed)
    _, report = shpaths(ctx, dist)
    print(
        f"shpaths p={args.p} n={n}: {report.seconds:.3f} simulated s, "
        f"{machine.stats.messages} messages, "
        f"{machine.stats.bytes_sent / 1e6:.2f} MB sent"
    )
    if args.trace:
        from repro.eval.cliopts import write_obs_artifacts

        print(*write_obs_artifacts(machine, args.trace, None), sep="\n")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())


