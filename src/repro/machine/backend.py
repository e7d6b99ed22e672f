"""Execution backends: ``Machine(p, backend="sim"|"threads")``.

The analytic :class:`~repro.machine.network.Network` is the **only**
cost oracle — simulated seconds never depend on which backend runs the
kernels, and the ``backend`` conformance pillar asserts bit-identity of
pool contents, clocks, stats and metrics across both.  What a backend
changes is *wall-clock*: where the numpy kernels of the elementwise
skeletons physically execute.

* :class:`SimBackend` — single-process execution; ``parallel`` is
  false, so the elementwise executor
  (:func:`repro.skeletons.fuse.run_elementwise`) makes its pooled call
  over the whole pool, inline.
* :class:`ThreadsBackend` — that call, for a kernel known env-free, is
  cut into one contiguous slab of the pool per worker and dispatched to
  a thread pool, and so is the write-back.  The numpy ufunc inner loops
  release the GIL, so elementwise kernels scale with cores without any
  data movement (the pool is plain shared memory between threads).

A third backend, ``mp`` (worker processes, shared-memory pools, shipped
closures), was removed: shipping every call's blocks out and results
back through the main process measured 4-5x *slower* than ``sim``
(docs/PERFORMANCE.md §"Real backends").  Asking for it is a
:class:`~repro.errors.BackendError` that points at ``threads``.

A slab is a run of whole partitions along axis 0, and only a kernel
that provably never reads its per-rank environment is applied to one,
so results are bit-identical to sequential execution by the argument
(and the conformance pillars) that already ties the per-rank and pooled
paths together: same elements, index values and element arithmetic.

Backend selection: ``Machine(backend=...)`` falls back to the process
default, settable with :func:`set_backend_default` or the
``REPRO_BACKEND`` environment variable (the CI backend job sets it).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Sequence

from repro.errors import BackendError

__all__ = [
    "ExecBackend",
    "SimBackend",
    "ThreadsBackend",
    "make_backend",
    "backend_default",
    "set_backend_default",
    "check_backend_name",
    "BACKENDS",
    "default_workers",
]

BACKENDS = ("sim", "threads")

_BACKEND_DEFAULT = os.environ.get("REPRO_BACKEND", "sim")


def check_backend_name(name: str) -> str:
    """*name* if it is a selectable backend, else :class:`BackendError`."""
    if name == "mp":
        raise BackendError(
            "backend 'mp' was removed (it measured 4-5x slower than 'sim'); "
            "use 'threads' for real-core execution"
        )
    if name not in BACKENDS:
        raise BackendError(
            f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    return name


def backend_default() -> str:
    """The process-wide default backend consulted by new machines."""
    return _BACKEND_DEFAULT


def set_backend_default(name: str) -> None:
    """Set the process default (``python -m repro.eval ... --backend``)."""
    global _BACKEND_DEFAULT
    _BACKEND_DEFAULT = check_backend_name(name)


def _worker_count(n, shown: str) -> int:
    """*n* if a positive ``int`` (not ``bool``), else a :class:`BackendError`."""
    if type(n) is not int or n < 1:
        raise BackendError(f"{shown} is not a positive worker count")
    return n


def default_workers(p: int) -> int:
    """Worker count: ``REPRO_WORKERS`` or min(p, available cores)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        n = int(env) if env.strip().isdecimal() else None
        return _worker_count(n, f"REPRO_WORKERS={env!r}")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(p, cores))


class ExecBackend:
    """Where kernel work on pieces of an array physically executes.

    ``run_blocks(kernel, tasks)`` evaluates ``kernel(*tasks[i])`` for
    every task — a block is the piece a task names, for the elementwise
    executor one slab of the pool per worker — and returns the results
    **in task order**: that ordering (not completion order) is what
    keeps parallel execution bit-identical to the sequential loop.
    Exceptions raised by a kernel
    (:class:`~repro.skeletons.fuse.FusionFallback` included) propagate
    to the caller exactly as in the sequential loop; on ``FusionFallback``
    callers fall back to sequential per-rank execution.

    Subclasses say only *how* calls are carried out (:meth:`_run`:
    inline here, ``submit`` on a thread pool); the wall stamps a traced
    machine takes are stated once, in :meth:`run_blocks`.
    """

    name = "sim"
    #: whether the elementwise executor should cut its pooled call into
    #: one slab per worker for this backend (path 1 of its ladder)
    parallel = False
    #: the machine's :class:`~repro.obs.span.SpanTracer` (``None`` when
    #: untraced), which each dispatch reports its wall stamps to.
    #: Wall-clock only; never consulted by any cost-charging code
    tracer = None

    def run_blocks(self, kernel: Callable, tasks: Sequence[tuple]) -> list:
        tracer = self.tracer
        if tracer is None:
            return self._run(kernel, tasks)
        blocks: list[tuple[int, float, float]] = []

        def timed(*task):
            # stamped on whichever thread runs the block, also when the
            # kernel raises (FusionFallback): the wall time was spent
            t0 = time.perf_counter()
            try:
                return kernel(*task)
            finally:
                blocks.append((threading.get_ident(), t0, time.perf_counter()))

        t_post = time.perf_counter()
        try:
            return self._run(timed, tasks)
        finally:
            tracer.dispatch(t_post, time.perf_counter(), blocks[:])

    def _run(self, call: Callable, tasks: Sequence[tuple]) -> list:
        """``call(*t)`` for every task, results in task order."""
        return [call(*t) for t in tasks]

    def reset(self, seed: int = 0) -> None:
        """Clear worker-side state so back-to-back trials in one process
        are deterministic (``Machine.reset`` calls this)."""

    def close(self) -> None:
        """Tear down workers (idempotent)."""

    @property
    def workers(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SimBackend(ExecBackend):
    """Single-process execution (the default; pure simulation)."""


class ThreadsBackend(ExecBackend):
    """Kernel tasks on a thread pool over the shared pool storage."""

    name = "threads"
    parallel = True

    def __init__(self, n_workers: int):
        self._n = n_workers
        self._pool = None  # created lazily: machines are cheap to build

    @property
    def workers(self) -> int:
        return self._n

    def _executor(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self._n, thread_name_prefix="repro-exec"
            )
        return self._pool

    def _run(self, call, tasks):
        if len(tasks) <= 1:
            return super()._run(call, tasks)
        submit = self._executor().submit
        futures = [submit(call, *t) for t in tasks]
        # collect in task order; reading every result re-raises a
        # kernel's exception in the caller
        return [f.result() for f in futures]

    def reset(self, seed: int = 0) -> None:
        # thread workers hold no kernel caches or RNG state; nothing to
        # reseed, but a crashed executor must not poison later trials
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self._pool.shutdown(wait=False)
            self._pool = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_backend(
    spec: "str | ExecBackend | None",
    p: int,
    workers: int | None = None,
) -> ExecBackend:
    """Build (or pass through) the backend for a machine of *p* ranks."""
    if isinstance(spec, ExecBackend):
        return spec
    name = check_backend_name(spec if spec is not None else backend_default())
    # checked before the name is looked at, so a bad worker count is
    # reported on every machine, not only on the ones that would use it
    n = default_workers(p) if workers is None else _worker_count(
        workers, f"workers={workers!r}")
    return SimBackend() if name == "sim" else ThreadsBackend(n)
