"""Skeleton execution context.

A :class:`SkilContext` binds a :class:`~repro.machine.machine.Machine`
to a :class:`~repro.machine.costmodel.LanguageProfile` and exposes the
paper's skeletons as methods.  The same skeleton *semantics* runs under
every profile — what changes between ``skil``, ``dpfl`` and ``parix-c``
is only how much simulated time the same abstract work costs (DESIGN.md
§2), which is exactly the comparison the paper's evaluation makes.

Execution model: skeletons are *collective operations*.  Within one
skeleton the context iterates over the logical processors, applying the
customizing argument functions to each partition (vectorized when the
function provides a kernel, elementwise otherwise), and then *states*
the work and the communication pattern to :attr:`SkilContext.charge`
(:class:`repro.machine.charge.Charge`) in abstract terms — element and
op counts, raw bytes, ranks, a topology.  No skeleton prices anything:
the seam alone turns the statement into seconds under the profile.
User argument functions that need processor context (the paper's
``procId`` or ``array_part_bounds``) read it from :attr:`current_rank` /
:meth:`proc_id` while they are being mapped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

import functools

from repro.arrays.darray import DistArray
from repro.errors import SkeletonError
from repro.machine.charge import Charge
from repro.machine.costmodel import SKIL, LanguageProfile
from repro.machine.engine import Engine
from repro.machine.machine import DISTR_DEFAULT, Machine
from repro.skeletons.fuse import MapEnv

__all__ = ["SkilContext", "MapEnv", "ops_of", "current_context", "skeleton_span"]


def skeleton_span(name: str) -> Callable:
    """Decorator for skeleton entry points ``f(ctx, ...)``.

    Wraps the whole body in a paired ``begin_skeleton``/``end_skeleton``
    — the span closes even when the body raises (argument validation
    errors, singular matrices, deadlocks), so no begin is ever left
    without its end.
    """

    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs):
            span = ctx.begin_skeleton(name)
            try:
                return fn(ctx, *args, **kwargs)
            finally:
                ctx.end_skeleton(span)

        return wrapper

    return deco

#: the contexts whose skeletons are currently executing, innermost last;
#: lets user argument functions reach processor context (procId, partition
#: bounds) the way the paper's C functions call the array macros directly.
#: Empty between skeleton calls, so no finished run pins its machine.
_ACTIVE: "list[SkilContext]" = []


def current_context() -> "SkilContext":
    """The context of the skeleton currently executing.

    Only valid while a skeleton applies user argument functions; the
    paper's equivalents are the ``procId`` variable and the
    ``array_part_bounds`` macro available inside argument functions.
    """
    if not _ACTIVE:
        raise SkeletonError("current_context() is only defined inside a skeleton")
    return _ACTIVE[-1]


def ops_of(f: Callable, default: float = 1.0) -> float:
    """Abstract operation count per element of a user function.

    Argument functions may annotate themselves with ``.ops`` (see
    :func:`repro.skeletons.functional.skil_fn`); the cost model charges
    ``ops * elem_time`` per element.
    """
    return float(getattr(f, "ops", default))


def size_or_one(size_of: Callable, x) -> int:
    """What ``farm`` and ``d&c`` charge and ship *x* by: ``int(size_of(x))``
    but at least 1, and 1 when *x* has no size (``len`` of an int)."""
    try:
        return max(1, int(size_of(x)))
    except TypeError:
        return 1


def run_processes(ctx: "SkilContext", programs: dict[int, Iterator]) -> None:
    """Run ``farm`` / ``d&c``'s generator per rank on the event engine,
    which books every event into the machine's Network from its makespan
    on (their schedule depends on the data)."""
    m = ctx.machine
    engine = Engine(m.cost, m.topology(ctx.default_distr), m.network)
    for rank, program in programs.items():
        engine.spawn(rank, program)
    engine.run()


class SkilContext:
    """Machine + language profile + the skeleton API.

    The individual skeleton implementations live in sibling modules
    (:mod:`repro.skeletons.create`, ``map``, ``fold``, ``comm``,
    ``genmult``, ``extensions``); this class wires them together and
    owns the shared bookkeeping (overhead charging, current-rank
    tracking, skeleton-call statistics).
    """

    def __init__(
        self,
        machine: Machine,
        profile: LanguageProfile = SKIL,
        default_distr: str = DISTR_DEFAULT,
        fused: bool = True,
    ):
        self.machine = machine
        self.profile = profile
        #: the one place abstract work becomes simulated seconds; skeletons
        #: state counts, ops and raw bytes to it and never price them
        self.charge = Charge(machine, profile)
        self.default_distr = default_distr
        #: whether skeletons may take the fused whole-array fast path
        #: (:mod:`repro.skeletons.fuse`); simulated seconds are identical
        #: either way, only wall-clock changes.  ``False`` is for the
        #: reference side of an equivalence check.
        self.fused = bool(fused)
        #: rank whose partition is currently being processed by a
        #: skeleton; user argument functions may read it (``procId``).
        self.current_rank: int | None = None

    # ------------------------------------------------------------------ infra
    @property
    def p(self) -> int:
        return self.machine.p

    def proc_id(self) -> int:
        """The paper's ``procId`` — only valid inside argument functions."""
        if self.current_rank is None:
            raise SkeletonError("proc_id() is only defined inside a skeleton")
        return self.current_rank

    def begin_skeleton(self, name: str):
        """Open one skeleton invocation: charge the fixed per-invocation
        overhead on every processor and (when tracing) open a span.

        Returns the span (or ``None`` with tracing off); every call must
        be paired with :meth:`end_skeleton` — use the
        :func:`skeleton_span` decorator, which guarantees the pairing on
        error paths.
        """
        self.machine.stats.skeleton_calls += 1
        tracer = self.machine.tracer
        span = tracer.begin(name, category="skeleton") if tracer is not None else None
        self.charge.invocation()
        _ACTIVE.append(self)  # last: a begin that raises leaves nothing behind
        return span

    def end_skeleton(self, span=None) -> None:
        """Close the span opened by :meth:`begin_skeleton` (plus any
        phase spans an error path left open beneath it) and hand
        :func:`current_context` back to the enclosing skeleton, if any."""
        _ACTIVE.pop()
        tracer = self.machine.tracer
        if tracer is None:
            return
        if span is not None:
            tracer.end_through(span)
        elif tracer.open_depth:
            tracer.end()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A nested sub-span inside a composite skeleton (e.g. the
        rotate/multiply phases of ``array_gen_mult``).  No overhead is
        charged and nothing is counted; with tracing off this is a no-op.
        """
        tracer = self.machine.tracer
        if tracer is None:
            yield
            return
        with tracer.span(name, category="phase"):
            yield

    def check_distinct(self, name: str, *arrays: DistArray) -> None:
        seen: list[DistArray] = []
        for a in arrays:
            for s in seen:
                if a is s:
                    raise SkeletonError(
                        f"{name}: array arguments must be distinct "
                        "(the paper forbids aliased arguments here)"
                    )
            seen.append(a)

    def check_same_shape(self, name: str, a: DistArray, b: DistArray) -> None:
        if a.shape != b.shape or a.dist.grid != b.dist.grid:
            raise SkeletonError(
                f"{name}: arrays must share shape and distribution, got "
                f"{a.shape}/{a.dist.grid} vs {b.shape}/{b.dist.grid}"
            )

    def check_block_distribution(self, name: str, *arrays: DistArray) -> None:
        """Skeletons whose data movement is expressed in contiguous
        partition coordinates (scan offsets, row segments, whole-block
        broadcasts) silently corrupt strided layouts — reject them.
        Surfaced by the ``repro.check`` skeleton oracle."""
        from repro.arrays.distribution import BlockDistribution

        for a in arrays:
            if type(a.dist) is not BlockDistribution:
                raise SkeletonError(
                    f"{name}: requires a block distribution, got "
                    f"{type(a.dist).__name__}"
                )

    # ------------------------------------------------------------------ API
    # The skeleton entry points are attached below to keep each
    # implementation in its own module (many small modules, one concern
    # each); see the bottom of this file.


def _attach_api() -> None:
    """Bind the skeleton implementations as SkilContext methods."""
    from repro.skeletons import comm, create, dc, extensions, farm, fold, genmult
    from repro.skeletons import map as map_mod

    SkilContext.array_create = create.array_create
    SkilContext.array_create_uninit = create.array_create_uninit
    SkilContext.array_destroy = create.array_destroy
    SkilContext.array_copy = create.array_copy
    SkilContext.array_map = map_mod.array_map
    SkilContext.array_zip = map_mod.array_zip
    SkilContext.array_fold = fold.array_fold
    SkilContext.array_scan = fold.array_scan
    SkilContext.array_broadcast_part = comm.array_broadcast_part
    SkilContext.array_permute_rows = comm.array_permute_rows
    SkilContext.array_rotate_rows = comm.array_rotate_rows
    SkilContext.array_gen_mult = genmult.array_gen_mult
    SkilContext.array_gen_mult_square = genmult.array_gen_mult_square
    SkilContext.array_map_overlap = extensions.array_map_overlap
    SkilContext.divide_and_conquer = dc.divide_and_conquer
    SkilContext.farm = farm.farm


_attach_api()
