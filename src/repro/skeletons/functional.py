"""Functional plumbing for skeleton argument functions.

The paper parameterizes skeletons with *functions*: customizing argument
functions, operator sections like ``(+)``, and partial applications such
as ``copy_pivot(b, k)``.  This module is the Python-side equivalent:

* :func:`skil_fn` — annotate a scalar argument function with its
  abstract per-element operation count (for the cost model) and an
  optional numpy-vectorized kernel (what the Skil compiler's
  instantiation+optimisation achieves for generated code), and decide
  once, from the kernel's code, whether it reads its per-rank env;
* :func:`section` — the ``(op)`` bracket conversion: turn a named
  operator into a curried function object;
* :func:`papply` — explicit partial application that preserves the
  cost annotations (Python's ``functools.partial`` drops attributes);
* ready-made operator sections (:data:`PLUS`, :data:`TIMES`,
  :data:`MIN`, :data:`MAX`) carrying their numpy reduction equivalents,
  used by ``array_fold`` and ``array_gen_mult``.
"""

from __future__ import annotations

import dis
import functools
import inspect
import math
import operator
from typing import Any, Callable

import numpy as np

from repro.errors import SkeletonError

__all__ = [
    "skil_fn",
    "section",
    "papply",
    "PLUS",
    "TIMES",
    "MIN",
    "MAX",
    "OPERATOR_SECTIONS",
]


def _reads_env(vec: Callable) -> bool:
    """Whether kernel *vec* may read its per-rank env, judged from its code.

    The env is the last positional parameter without a default (the
    parameters after it are bound constants, the shape
    :func:`~repro.lang.runtime.make_kernel` gives lifted arguments).  The
    kernel is env-free only if that parameter is never loaded, is not
    captured by a closure and ``locals()`` is not called; ``*args``, a
    callable without ``__code__`` and anything else unknown may read it.
    """
    code = getattr(vec, "__code__", None)
    if code is None:
        return True
    return _code_reads_env(code, len(getattr(vec, "__defaults__", None) or ()))


# a lambda built afresh on every run (the apps' _setup initialisers) has
# one code object: the bytecode walk is paid once, not per decoration
@functools.lru_cache(maxsize=1024)
def _code_reads_env(code, n_defaults: int) -> bool:
    last = code.co_argcount - n_defaults - 1
    if code.co_flags & inspect.CO_VARARGS or last < 0:
        return True
    env = code.co_varnames[last]
    if env in code.co_cellvars or "locals" in code.co_names:
        return True
    return any(
        ins.opname.startswith("LOAD")
        and env in (ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
        for ins in dis.get_instructions(code)
    )


def skil_fn(
    ops: float = 1.0,
    vectorized: Callable | None = None,
    commutative_associative: bool = False,
):
    """Decorator annotating a skeleton argument function.

    Parameters
    ----------
    ops:
        Abstract scalar operations one application performs (charged as
        ``ops * elem_time`` by the cost model); a finite number >= 0,
        else :class:`~repro.errors.SkeletonError`.
    vectorized:
        Optional numpy kernel.  For map-functions the signature is
        ``kernel(block, index_grids, env)`` returning the new block; for
        fold conversion functions ``kernel(block, index_grids, env)``
        returning the converted values.  ``vectorized.env_free`` is set
        here unless already set (the compiler and the benchmark state
        it), judged from the kernel's code (:func:`_reads_env`).  Only
        an env-free kernel runs outside the per-rank loop
        (:mod:`repro.skeletons.fuse`), where it is handed no env.
    commutative_associative:
        Promise required of ``array_fold`` folding functions ("the user
        should provide an associative and commutative folding function,
        otherwise the result is non-deterministic").
    """
    ops = float(ops)
    if not (math.isfinite(ops) and ops >= 0):
        # a negative or NaN count would run the simulated clock backwards
        raise SkeletonError(f"skil_fn: ops must be a finite number >= 0, got {ops!r}")
    if vectorized is not None and not hasattr(vectorized, "env_free"):
        try:
            vectorized.env_free = not _reads_env(vectorized)
        except AttributeError:  # e.g. a bound method: counts as env-reading
            pass

    def deco(f):
        f.ops = ops
        if vectorized is not None:
            f.vectorized = vectorized
        f.commutative_associative = commutative_associative
        return f

    return deco


#: sentinel distinguishing "partially applied" from "called with None"
_MISSING = object()


class Section:
    """A curried binary operator — the paper's ``(op)`` conversion.

    Calling with one argument partially applies (``(*)(2)`` multiplies
    by two); calling with two applies fully.  Carries numpy equivalents
    so skeletons can vectorize and reduce without Python-level loops.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[Any, Any], Any],
        np_op: Callable | None = None,
        np_reduce: Callable | None = None,
        ops: float = 1.0,
        commutative_associative: bool = False,
    ):
        self.name = name
        self.fn = fn
        self.np_op = np_op
        self.np_reduce = np_reduce
        self.ops = float(ops)
        self.commutative_associative = commutative_associative

    def __call__(self, x, y=_MISSING):
        if y is _MISSING:
            return papply(self, x)
        return self.fn(x, y)

    def __repr__(self) -> str:
        return f"({self.name})"


def section(op: str) -> Section:
    """Look up the operator section for *op* (e.g. ``section('+')``)."""
    try:
        return OPERATOR_SECTIONS[op]
    except KeyError:
        raise SkeletonError(f"no operator section defined for {op!r}") from None


class _Papply:
    """Partial application preserving skeleton cost annotations."""

    def __init__(self, f: Callable, *args):
        self._f = f
        self._args = args
        self.ops = float(getattr(f, "ops", 1.0))
        self.commutative_associative = getattr(f, "commutative_associative", False)
        base_vec = getattr(f, "vectorized", None)
        if base_vec is not None:
            self.vectorized = lambda *rest: base_vec(*args, *rest)
            self.vectorized.env_free = getattr(base_vec, "env_free", False)

    def __call__(self, *rest):
        return self._f(*self._args, *rest)

    def __repr__(self) -> str:
        inner = getattr(self._f, "__name__", repr(self._f))
        return f"{inner}({', '.join(map(repr, self._args))}, ...)"


def papply(f: Callable, *args) -> _Papply:
    """Partially apply *f* to leading arguments (annotation-preserving)."""
    return _Papply(f, *args)


PLUS = Section("+", operator.add, np_op=np.add, np_reduce=np.add.reduce,
               commutative_associative=True)
TIMES = Section("*", operator.mul, np_op=np.multiply,
                np_reduce=np.multiply.reduce, commutative_associative=True)
MIN = Section("min", min, np_op=np.minimum, np_reduce=np.minimum.reduce,
              commutative_associative=True)
MAX = Section("max", max, np_op=np.maximum, np_reduce=np.maximum.reduce,
              commutative_associative=True)
_MINUS = Section("-", operator.sub, np_op=np.subtract)
_DIV = Section("/", operator.truediv, np_op=np.divide)

OPERATOR_SECTIONS: dict[str, Section] = {
    "+": PLUS,
    "*": TIMES,
    "-": _MINUS,
    "/": _DIV,
    "min": MIN,
    "max": MAX,
}
