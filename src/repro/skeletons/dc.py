"""The task-parallel ``divide&conquer`` skeleton.

This is the skeleton the paper uses to *introduce* skeletons (Section 1):

.. code-block:: c

   $b d&c (int is_trivial ($a), $b solve ($a), list<$a> split ($a),
           $b join (list<$b>), $a problem);

The data-parallel array skeletons use the fast analytic clock layer;
``d&c`` is process-parallel with data-dependent control flow, so it runs
on the message-granularity engine (:mod:`repro.machine.engine`).

Parallelisation strategy (the classical one): the problem starts at
processor 0; at every level of a binary processor tree the current
*bundle* of sub-problems is split in half (by total size) and one half is
shipped to the other processor sub-group.  A bundle that has narrowed to
a single non-trivial problem is expanded with ``split`` before being
distributed further.  Groups of one processor solve their bundle
sequentially (ordinary recursive d&c, whose time is charged to their
clock); ``join`` recombines results in original split order on the way
back up.

The engine books each event into the machine's Network as it happens.

Cost accounting: the user functions carry ``.ops`` annotations (see
:func:`repro.skeletons.functional.skil_fn`); each application is charged
``ops * elem_time * size_of(problem)``.  Message payload bytes default to
``16 * size_of(problem)``; both, and the halving, read sizes through
:func:`~repro.skeletons.base.size_or_one`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SkeletonError
from repro.machine.engine import Compute, ISend, Recv
from repro.skeletons.base import ops_of, run_processes, size_or_one, skeleton_span

__all__ = ["divide_and_conquer"]


@skeleton_span("divide_and_conquer")
def divide_and_conquer(
    ctx,
    is_trivial: Callable[[Any], bool],
    solve: Callable[[Any], Any],
    split: Callable[[Any], list],
    join: Callable[[list], Any],
    problem: Any,
    size_of: Callable[[Any], int] = len,
    nbytes_of: Callable[[Any], int] | None = None,
) -> Any:
    """Solve *problem* with the d&c pattern across all processors.

    Returns the solution (held by processor 0 on the real machine);
    simulated time is charged to the machine the context is bound to.
    """
    if nbytes_of is None:
        nbytes_of = lambda pb: 16 * size_or_one(size_of, pb)  # noqa: E731

    def cost(f: Callable, pb: Any) -> float:
        return ops_of(f) * ctx.charge.elem_time() * size_or_one(size_of, pb)

    def solve_seq(pb: Any) -> tuple[Any, float]:
        """Sequential d&c of one problem: (result, abstract seconds)."""
        t = cost(is_trivial, pb)
        if is_trivial(pb):
            return solve(pb), t + cost(solve, pb)
        parts = split(pb)
        if not parts:
            raise SkeletonError("d&c: split returned no sub-problems")
        t += cost(split, pb)
        subs = []
        for part in parts:
            r, dt = solve_seq(part)
            subs.append(r)
            t += dt
        return join(subs), t + cost(join, pb)

    def halve(bundle: list) -> tuple[list, list]:
        """Order-preserving split of a bundle into two size-balanced halves."""
        if len(bundle) == 1:
            return bundle, []
        total = sum(size_or_one(size_of, p) for p in bundle)
        acc = 0
        for i, p in enumerate(bundle):
            acc += size_or_one(size_of, p)
            if acc * 2 >= total and i + 1 < len(bundle):
                return bundle[: i + 1], bundle[i + 1 :]
        return bundle[:-1], bundle[-1:]

    results: dict[int, list] = {}

    def node(rank: int, lo: int, hi: int, bundle: list | None):
        """Run group [lo, hi); *bundle* is a list of problems at rank lo.

        Returns (at the group root) the list of results, one per problem.
        """
        tag = f"dc:{lo}:{hi}"
        if hi - lo == 1:
            if rank != lo or not bundle:
                return []
            out = []
            total = 0.0
            for pb in bundle:
                res, dt = solve_seq(pb)
                out.append(res)
                total += dt
            yield Compute(total)
            return out

        mid = (lo + hi) // 2
        if rank == lo:
            bundle = bundle or []
            wrap_join = False
            join_cost = 0.0
            if len(bundle) == 1:
                pb = bundle[0]
                yield Compute(cost(is_trivial, pb))
                if not is_trivial(pb):
                    bundle = split(pb)
                    if not bundle:
                        raise SkeletonError("d&c: split returned no sub-problems")
                    yield Compute(cost(split, pb))
                    wrap_join = True
                    join_cost = cost(join, pb)
            left, right = halve(bundle) if bundle else ([], [])
            yield ISend(
                mid,
                payload=right,
                nbytes=sum(nbytes_of(p) for p in right) or 8,
                tag=tag,
            )
            mine = yield from node(rank, lo, mid, left)
            theirs = yield Recv(mid, tag=tag + ":up")
            allres = list(mine) + list(theirs)
            if wrap_join:
                yield Compute(join_cost)
                return [join(allres)]
            return allres
        if rank == mid:
            sub = yield Recv(lo, tag=tag)
            res = yield from node(rank, mid, hi, sub)
            yield ISend(
                lo,
                payload=res,
                nbytes=64 * max(1, len(res)),
                tag=tag + ":up",
            )
            return []
        if rank < mid:
            return (yield from node(rank, lo, mid, None))
        return (yield from node(rank, mid, hi, None))

    def program(rank: int):
        res = yield from node(rank, 0, ctx.p, [problem] if rank == 0 else None)
        if rank == 0:
            results[0] = res

    run_processes(ctx, {r: program(r) for r in range(ctx.p)})

    out = results.get(0)
    if not out:
        raise SkeletonError("d&c: no result produced at processor 0")
    return out[0]
