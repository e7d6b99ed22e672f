"""The ``farm`` skeleton — process-parallel task farming.

``farm`` is one of the "classical examples of skeletons" the paper's
introduction lists next to ``map`` and ``divide&conquer``.  A master
processor hands independent tasks to worker processors on demand and
collects the results; dynamic (demand-driven) distribution makes it
robust against irregular task costs, which block-wise data parallelism
handles poorly.

Like ``divide&conquer`` this is process-parallel with data-dependent
scheduling, so it runs on the message-granularity engine
(:mod:`repro.machine.engine`), using its ``ANY_SOURCE`` wildcard receive
for the master's completion queue.  Processor 0 is the master; with one
processor (or no task) it runs every task itself, as one compute event.
The engine books each event into the machine's Network as it happens.

Cost accounting matches the other skeletons: the worker function's
``.ops`` annotation is charged per task scaled by ``size_of(task)``;
task payload bytes default to ``16 * size_of(task)`` (both by
:func:`~repro.skeletons.base.size_or_one`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import SkeletonError
from repro.machine.engine import ANY_SOURCE, Compute, ISend, Recv
from repro.skeletons.base import ops_of, run_processes, size_or_one, skeleton_span

__all__ = ["farm"]

_STOP = ("__farm_stop__",)


@skeleton_span("farm")
def farm(
    ctx,
    worker: Callable[[Any], Any],
    tasks: Sequence[Any],
    size_of: Callable[[Any], int] = len,
    nbytes_of: Callable[[Any], int] | None = None,
) -> list:
    """Apply *worker* to every task, demand-driven across the machine.

    Returns the results in task order (collected at the master).
    """
    tasks = list(tasks)
    if nbytes_of is None:
        nbytes_of = lambda t: 16 * size_or_one(size_of, t)  # noqa: E731

    def task_cost(t: Any) -> float:
        return ops_of(worker) * ctx.charge.elem_time() * size_or_one(size_of, t)

    filled = [False] * len(tasks)
    results: list = [None] * len(tasks)

    def alone():
        total = 0.0
        for i, t in enumerate(tasks):
            results[i] = worker(t)
            filled[i] = True
            total += task_cost(t)
        yield Compute(total)

    def master():
        pending = list(enumerate(tasks))
        outstanding = 0
        for w in range(1, ctx.p):
            if not pending:
                break
            i, t = pending.pop(0)
            yield ISend(w, payload=(i, t), nbytes=nbytes_of(t), tag="task")
            outstanding += 1
        while outstanding:
            w, i, res = yield Recv(ANY_SOURCE, tag="done")
            results[i] = res
            filled[i] = True
            outstanding -= 1
            if pending:
                j, t = pending.pop(0)
                yield ISend(w, payload=(j, t), nbytes=nbytes_of(t), tag="task")
                outstanding += 1
        for w in range(1, ctx.p):
            yield ISend(w, payload=_STOP, nbytes=8, tag="task")

    def worker_proc(rank: int):
        while True:
            msg = yield Recv(0, tag="task")
            if msg == _STOP:
                return
            i, t = msg
            yield Compute(task_cost(t))
            res = worker(t)
            yield ISend(0, payload=(rank, i, res), nbytes=64, tag="done")

    if ctx.p == 1 or not tasks:
        run_processes(ctx, {0: alone()})
    else:
        workers = {r: worker_proc(r) for r in range(1, ctx.p)}
        run_processes(ctx, {0: master(), **workers})

    if not all(filled):
        missing = [i for i, f in enumerate(filled) if not f]
        raise SkeletonError(f"farm lost results for tasks {missing}")
    return results
