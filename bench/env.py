"""What a workload builds its ops from: plain objects, or traced ones.

``Env(None)`` hands out ordinary ``Machine``/``SkilContext``/kernels, so an
untraced pass runs exactly what a user would run.  ``Env(Recorder())`` hands
out the same objects with a span around every call across a layer boundary:
a ``SkilContext`` subclass wraps each public ``array_*`` method, instance
attributes shadow the public ``Network`` methods and ``ExecBackend.run_blocks``,
and kernels the benchmark owns are wrapped where it builds them.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.arrays.darray import DistArray
from repro.machine.costmodel import SKIL
from repro.machine.machine import Machine
from repro.skeletons import SkilContext, skil_fn

from bench.spans import Recorder

NETWORK_METHODS = (
    "compute", "compute_at", "p2p", "p2p_batch", "shift", "shift_batch", "broadcast",
    "reduce", "allreduce", "gather", "scatter", "allgather", "alltoall",
    "barrier",
)


@dataclass
class Result:
    """What one op execution reports."""

    #: simulated seconds; ``None`` for ops that have no simulated clock
    sim_s: float | None = None
    #: exact counts (messages, bytes, generated-code size, ...); must be
    #: identical on every pass
    counts: dict[str, int | float] = field(default_factory=dict)
    #: handed to ``Op.check`` outside the timed region
    value: Any = None


@dataclass
class Op:
    id: str
    run: Callable[[], Result]
    #: value check against the reference; raises or returns False on failure
    check: Callable[[Result], bool] | None = None
    #: path group or family, for per-layer breakdowns
    group: str = ""
    #: whether ``sim_s`` is a Skil-language figure (comparator cells are not)
    skil: bool = True
    #: present only in the traced build (extra measurement, not workload)
    trace_only: bool = False


def _elems(args: tuple, result: Any) -> int:
    n = 0
    for a in (*args, result):
        if isinstance(a, DistArray):
            size = 1
            for s in a.dist.shape:
                size *= s
            n = max(n, size)
    return n


def _traced_context_class(rec: Recorder) -> type:
    class TracedContext(SkilContext):
        pass

    def wrap(name: str, fn: Callable) -> Callable:
        def method(self, *args, **kwargs):
            s = rec.begin("skeletons", name)
            out = None
            try:
                out = fn(self, *args, **kwargs)
                return out
            finally:
                rec.end(s, _elems(args, out))

        method.__name__ = name
        return method

    for name in dir(SkilContext):
        if name.startswith("array_"):
            setattr(TracedContext, name, wrap(name, getattr(SkilContext, name)))
    return TracedContext


class Env:
    def __init__(self, rec: Recorder | None = None):
        self.rec = rec
        self._ctx_cls = SkilContext if rec is None else _traced_context_class(rec)

    @property
    def traced(self) -> bool:
        return self.rec is not None

    def span(self, layer: str, name: str):
        return nullcontext() if self.rec is None else self.rec.span(layer, name)

    def network(self, net):
        """Time each public method of a ``Network`` (instance-level)."""
        if self.rec is not None:
            for name in NETWORK_METHODS:
                setattr(net, name,
                        self.rec.wrap("machine.network", name, getattr(net, name)))
        return net

    def adopt(self, machine: Machine) -> Machine:
        if self.rec is not None:
            self.network(machine.network)
            rec, run_blocks = self.rec, machine.backend.run_blocks

            def traced_run_blocks(kernel, tasks):
                s = rec.begin("machine.backend", "run_blocks")
                try:
                    return run_blocks(kernel, tasks)
                finally:
                    rec.end(s, len(tasks))

            machine.backend.run_blocks = traced_run_blocks
        return machine

    def machine(self, p: int, **kwargs) -> Machine:
        return self.adopt(Machine(p, **kwargs))

    def context(self, machine: Machine, profile=SKIL, **kwargs) -> SkilContext:
        return self._ctx_cls(machine, profile, **kwargs)

    def kernel(
        self,
        scalar: Callable,
        ops: float,
        vectorized: Callable | None = None,
        env_free: bool | None = None,
        **kwargs,
    ) -> Callable:
        """``skil_fn`` for a kernel the benchmark owns.  *scalar* must be a
        fresh function object (``skil_fn`` annotates it in place)."""
        vec = vectorized
        if vec is not None and self.rec is not None:
            vec = self.rec.wrap("skeletons.kernel", "vectorized", vectorized)
        if vec is not None and env_free is not None:
            vec.env_free = env_free
        return skil_fn(ops=ops, vectorized=vec, **kwargs)(scalar)
