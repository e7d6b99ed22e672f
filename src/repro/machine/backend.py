"""Execution backends: ``Machine(p, backend="sim"|"threads"|"mp")``.

The analytic :class:`~repro.machine.network.Network` is the **only**
cost oracle — simulated seconds never depend on which backend runs the
kernels, and the ``backend`` conformance pillar asserts bit-identity of
pool contents, clocks, stats and metrics across all three.  What a
backend changes is *wall-clock*: where the numpy kernels of the elementwise
skeletons physically execute.

* :class:`SimBackend` — single-process execution; ``parallel`` is
  false, so the elementwise executor
  (:func:`repro.skeletons.fuse.run_elementwise`) never builds per-rank
  tasks and goes straight to its pooled or per-rank path.
* :class:`ThreadsBackend` — per-partition kernel calls dispatched to a
  thread pool.  The numpy ufunc inner loops release the GIL, so
  elementwise kernels over pooled block partitions scale with cores
  without any data movement (the pool is plain shared memory between
  threads).
* :class:`MpBackend` — worker *processes* (true parallelism, no GIL).
  Pool buffers are allocated in named shared memory
  (:class:`~repro.machine.workers.SharedArena`), kernels are shipped by
  safe closure passing (:func:`~repro.machine.workers.ship_kernel`),
  tasks and results travel through per-rank mailboxes.

The per-partition task decomposition is exactly the skeletons'
*per-rank* execution path, so results are bit-identical to sequential
execution by the same argument (and the same conformance pillars) that
already ties the per-rank and fused paths together.

Backend selection: ``Machine(backend=...)`` falls back to the process
default, settable with :func:`set_backend_default` or the
``REPRO_BACKEND`` environment variable (the CI backend matrix sets it).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import BackendError, MachineError

__all__ = [
    "ExecBackend",
    "SimBackend",
    "ThreadsBackend",
    "MpBackend",
    "make_backend",
    "backend_default",
    "set_backend_default",
    "BACKENDS",
    "default_workers",
]

BACKENDS = ("sim", "threads", "mp")


def _kernel_name(kernel) -> str:
    return getattr(kernel, "__name__", type(kernel).__name__)

_BACKEND_DEFAULT = os.environ.get("REPRO_BACKEND", "sim")


def backend_default() -> str:
    """The process-wide default backend consulted by new machines."""
    return _BACKEND_DEFAULT


def set_backend_default(name: str) -> None:
    """Set the process default (``python -m repro.eval ... --backend``)."""
    if name not in BACKENDS:
        raise BackendError(
            f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
        )
    global _BACKEND_DEFAULT
    _BACKEND_DEFAULT = name


def default_workers(p: int) -> int:
    """Worker count: ``REPRO_WORKERS`` or min(p, available cores)."""
    env = os.environ.get("REPRO_WORKERS")
    if env:
        return max(1, int(env))
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(p, cores))


class ExecBackend:
    """Where per-partition kernel work physically executes.

    ``run_blocks(kernel, tasks)`` evaluates ``kernel(*tasks[r])`` for
    every task and returns the results **in task order** — that ordering
    (not completion order) is what keeps parallel execution bit-identical
    to the sequential loop.  Implementations may raise
    :class:`~repro.skeletons.fuse.FusionFallback` through from kernels;
    callers fall back to sequential per-rank execution.
    """

    name = "sim"
    #: whether the elementwise executor should decompose work into
    #: per-rank tasks for this backend (condition 1 of its ladder)
    parallel = False
    #: the attached :class:`~repro.obs.prof.WallProfiler`, or ``None``
    #: (the default) — ``Machine(profile=True)`` sets it.  Wall-clock
    #: only; never consulted by any cost-charging code
    profiler = None

    def run_blocks(self, kernel: Callable, tasks: Sequence[tuple]) -> list:
        prof = self.profiler
        if prof is None:
            return [kernel(*t) for t in tasks]
        # profiled inline execution: the main thread is "worker 0"
        d = prof.dispatch_begin(self.name, _kernel_name(kernel), len(tasks))
        prof.note_post(d)
        try:
            out = []
            for t in tasks:
                t0 = prof.clock()
                r = kernel(*t)
                prof.block(d, 0, t0, t0, prof.clock())
                out.append(r)
            return out
        finally:
            prof.dispatch_end(d)

    def alloc_pool(self, shape, dtype) -> np.ndarray:
        """Allocate a pooled array buffer visible to the backend's
        workers (plain process memory unless shared memory is needed)."""
        return np.zeros(shape, dtype=dtype)

    def free_pool(self, pool: np.ndarray) -> None:
        """Release a buffer from :meth:`alloc_pool` (no-op unless the
        backend tracks segments)."""

    def reset(self, seed: int = 0) -> None:
        """Clear worker-side state so back-to-back trials in one process
        are deterministic (``Machine.reset`` calls this)."""

    def close(self) -> None:
        """Tear down workers and shared resources (idempotent)."""

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
        if n_workers <= 0:
            raise MachineError(f"need at least one worker, got {n_workers}")
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

    def run_blocks(self, kernel, tasks):
        if self.profiler is not None:
            return self._run_blocks_profiled(kernel, tasks)
        if len(tasks) <= 1:
            return [kernel(*t) for t in tasks]
        futures = [self._executor().submit(kernel, *t) for t in tasks]
        # collect in task order; exceptions (FusionFallback included)
        # propagate to the caller exactly as in the sequential loop
        return [f.result() for f in futures]

    def _run_blocks_profiled(self, kernel, tasks):
        import threading

        prof = self.profiler
        d = prof.dispatch_begin("threads", _kernel_name(kernel), len(tasks))

        def timed(task, t_enq):
            slot = prof.worker_slot(threading.get_ident())
            t0 = prof.clock()
            try:
                return kernel(*task)
            finally:
                # stamped even when the kernel raises (FusionFallback):
                # the wall time was really spent
                prof.block(d, slot, t_enq, t0, prof.clock())

        prof.note_post(d)
        try:
            if len(tasks) <= 1:
                return [timed(t, prof.clock()) for t in tasks]
            ex = self._executor()
            futures = [(ex.submit(timed, t, prof.clock())) for t in tasks]
            return [f.result() for f in futures]
        finally:
            prof.dispatch_end(d)

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


class MpBackend(ExecBackend):
    """Worker processes + shared-memory pools + shipped closures."""

    name = "mp"
    parallel = True

    def __init__(self, n_workers: int, start_method: str | None = None):
        if n_workers <= 0:
            raise MachineError(f"need at least one worker, got {n_workers}")
        self._n = n_workers
        self._start_method = start_method
        self._pool = None  # WorkerPool, created lazily
        from repro.machine.workers import SharedArena

        self.arena = SharedArena()
        # id(kernel) -> (fingerprint, shipped bytes, weakref guard)
        self._ship_cache: dict[int, tuple] = {}
        self._seed = 0

    @property
    def workers(self) -> int:
        return self._n

    def _worker_pool(self):
        if self._pool is None:
            from repro.machine.workers import WorkerPool

            self._pool = WorkerPool(self._n, start_method=self._start_method)
        return self._pool

    # ------------------------------------------------------------------ pools
    def alloc_pool(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if dtype.hasobject:
            # object dtypes cannot live in raw shared memory; plain
            # buffers are correct (such arrays never reach workers)
            return np.zeros(shape, dtype=dtype)
        return self.arena.allocate(shape, dtype)

    def free_pool(self, pool: np.ndarray) -> None:
        self.arena.release(pool)

    # ------------------------------------------------------------------ ship
    def _ship(self, kernel: Callable) -> tuple[str, bytes]:
        """Ship *kernel* (cached per object identity while it is alive).

        Raises :class:`BackendError` naming the offending free variable
        when the kernel cannot cross the process boundary — no silent
        fallback (the caller decides whether a fallback is legal).
        """
        from repro.machine.workers import kernel_fingerprint, ship_kernel

        cached = self._ship_cache.get(id(kernel))
        if cached is not None and cached[2]() is kernel:
            if self.profiler is not None:
                self.profiler.ship_cache_hit()
            return cached[0], cached[1]
        data = ship_kernel(kernel)
        kid = kernel_fingerprint(data)
        import weakref

        try:
            ref = weakref.ref(kernel)
        except TypeError:  # pragma: no cover - unweakrefable callable
            ref = lambda: kernel  # noqa: E731
        self._ship_cache[id(kernel)] = (kid, data, ref)
        if self.profiler is not None:
            self.profiler.ship_cache_miss(len(data))
        return kid, data

    def _describe(self, value) -> tuple:
        """Task argument -> shippable descriptor.

        Arena-backed views go as ``("shm", descriptor)`` (zero-copy);
        everything else small is pickled by the transport.
        """
        if isinstance(value, np.ndarray):
            desc = self.arena.descriptor(value)
            if desc is not None:
                return ("shm", desc)
        return ("val", value)

    def run_blocks(self, kernel, tasks):
        if not tasks:
            return []
        prof = self.profiler
        if prof is None:
            kid, data = self._ship(kernel)
            pool = self._worker_pool()
            pool.ensure_kernel(kid, data)
            arg_descs = [[self._describe(a) for a in t] for t in tasks]
            try:
                return pool.run_tasks(kid, arg_descs)
            except MachineError as exc:
                if getattr(exc, "worker_exc", None) == "FusionFallback":
                    # a worker-side fallback is the same control flow as
                    # a local one: the caller reverts to the sequential
                    # loop
                    from repro.skeletons.fuse import FusionFallback

                    raise FusionFallback(str(exc)) from None
                raise
        # profiled path: same calls, plus wall stamps.  ship_s covers
        # kernel shipping and argument description (the main-process
        # cost of getting the batch to the process boundary)
        t_enter = prof.clock()
        kid, data = self._ship(kernel)
        pool = self._worker_pool()
        n_sent = pool.ensure_kernel(kid, data)
        if n_sent:
            prof.worker_sends(n_sent, n_sent * len(data))
        arg_descs = [[self._describe(a) for a in t] for t in tasks]
        d = prof.dispatch_begin(
            "mp", _kernel_name(kernel), len(tasks),
            ship_s=prof.clock() - t_enter,
        )
        prof.note_post(d)
        try:
            results, stamps = pool.run_tasks(kid, arg_descs, profiler=prof)
            for stamp in stamps:
                if stamp is not None:
                    worker, t0, t1 = stamp
                    # enqueue == post time: tasks go on worker queues
                    # immediately after note_post
                    prof.block(d, worker, d.t_post, t0, t1)
            return results
        except MachineError as exc:
            if getattr(exc, "worker_exc", None) == "FusionFallback":
                from repro.skeletons.fuse import FusionFallback

                raise FusionFallback(str(exc)) from None
            raise
        finally:
            prof.dispatch_end(d)

    def reset(self, seed: int = 0) -> None:
        self._seed = seed
        if self._pool is not None:
            self._pool.reset(seed)
        self._ship_cache.clear()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self.arena.close()
        self._ship_cache.clear()


def make_backend(
    spec: "str | ExecBackend | None",
    p: int,
    workers: int | None = None,
) -> ExecBackend:
    """Build (or pass through) the backend for a machine of *p* ranks."""
    if isinstance(spec, ExecBackend):
        return spec
    name = spec if spec is not None else backend_default()
    n = workers if workers is not None else default_workers(p)
    if name == "sim":
        return SimBackend()
    if name == "threads":
        return ThreadsBackend(n)
    if name == "mp":
        return MpBackend(n)
    raise BackendError(
        f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})"
    )
