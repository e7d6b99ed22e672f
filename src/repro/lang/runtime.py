"""Run-time support for compiled Skil programs.

The generated Python calls into this module for everything that the
paper's generated C gets from the skeleton library and the C standard
library: the skeletons themselves (dispatched through the executing
:class:`~repro.skeletons.base.SkilContext`), the array access macros
(which resolve the *current processor* through the skeleton execution
context), dtype mapping for ``$t`` instantiations, and small helpers
(``log2``, truncating division, ``error()``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SkeletonError, SkilRuntimeError
from repro.skeletons import MAX, MIN, OPERATOR_SECTIONS
from repro.skeletons.base import current_context

__all__ = [
    "INT_MAX",
    "UINT_MAX",
    "FLT_MAX",
    "proc_id",
    "array_part_bounds",
    "array_get_elem",
    "array_put_elem",
    "bounds_member",
    "make_kernel",
    "section",
    "array_create",
    "array_create_uninit",
    "array_destroy",
    "array_map",
    "array_fold",
    "array_copy",
    "array_broadcast_part",
    "array_permute_rows",
    "array_gen_mult",
    "array_gen_mult_square",
    "array_zip",
    "array_scan",
    "dtype_of",
    "struct_dtype",
    "register_struct",
    "new_struct",
    "log2",
    "sqrt",
    "c_div",
    "c_mod",
    "cast",
    "error",
    "printf",
    "min_fn",
    "max_fn",
]

INT_MAX = 2**31 - 1
UINT_MAX = 2**32 - 1
FLT_MAX = 3.402823466e38


# ---------------------------------------------------------------------------
# processor context (the paper's procId / array macros)
# ---------------------------------------------------------------------------
def proc_id() -> int:
    return current_context().proc_id()


def array_part_bounds(a):
    return a.part_bounds(current_context().proc_id())


def _frontend_rank(a, ix):
    """Owner rank for a front-end (outside-skeleton) element access.

    Inside a skeleton the access is the paper's local macro.  Outside,
    the program is the front end touching distributed data: the access
    resolves to the element's owner and costs one simulated message
    between the front end (modelled at rank 0) and the owner — which is
    exactly why the fusion pass rewrites element loops into skeletons.
    """
    owner = a.owner(ix)
    a.machine.network.p2p(
        owner,
        0,
        a.dtype.itemsize,
        a.machine.topology(a.distr),
        tag="frontend-elem",
    )
    return owner


def array_get_elem(a, ix):
    ix = tuple(int(i) for i in ix)
    try:
        rank = current_context().proc_id()
    except SkeletonError:
        rank = _frontend_rank(a, ix)
    return a.get_elem(ix, rank)


def array_put_elem(a, ix, value):
    ix = tuple(int(i) for i in ix)
    try:
        rank = current_context().proc_id()
    except SkeletonError:
        rank = _frontend_rank(a, ix)
    a.put_elem(ix, value, rank)


def bounds_member(b, name: str):
    if name == "lowerBd":
        return b.lowerBd
    if name == "upperBd":
        return b.upperBd
    raise SkilRuntimeError(f"Bounds has no member {name!r}")


# ---------------------------------------------------------------------------
# kernels (lifted partial applications) and operator sections
# ---------------------------------------------------------------------------
def make_kernel(fn, bound: tuple = (), ops: float = 1.0):
    """Bind lifted arguments to a generated first-order function.

    The default-argument binding below is the Python shape of the
    paper's argument lifting: no closure object is created per element
    application, the bound values are plain leading parameters.
    """
    vec = getattr(fn, "vectorized", None)
    if not bound:
        def kernel0(*rest, _fn=fn):
            return _fn(*rest)

        kernel0.ops = float(ops)
        kernel0.__name__ = getattr(fn, "__name__", "kernel")
        if vec is not None:
            kernel0.vectorized = vec
        return kernel0

    def kernel(*rest, _fn=fn, _bound=tuple(bound)):
        return _fn(*_bound, *rest)

    kernel.ops = float(ops)
    kernel.__name__ = getattr(fn, "__name__", "kernel") + "_lifted"
    if vec is not None:
        kernel.vectorized = lambda *rest, _v=vec, _b=tuple(bound): _v(*_b, *rest)
        kernel.vectorized.env_free = getattr(vec, "env_free", False)
    return kernel


def min_fn(x, y):
    return x if x <= y else y


def max_fn(x, y):
    return x if x >= y else y


def section(op: str):
    if op == "min":
        return MIN
    if op == "max":
        return MAX
    if op in OPERATOR_SECTIONS:
        return OPERATOR_SECTIONS[op]
    raise SkilRuntimeError(f"no runtime section for operator {op!r}")


# ---------------------------------------------------------------------------
# skeleton dispatch
# ---------------------------------------------------------------------------
def array_create(ctx, dim, size, blocksize, lowerbd, init_f, distr, dtype):
    return ctx.array_create(dim, size, blocksize, lowerbd, init_f, distr,
                            dtype=dtype)


def array_create_uninit(ctx, dim, size, blocksize, lowerbd, distr, dtype):
    return ctx.array_create_uninit(dim, size, blocksize, lowerbd, distr,
                                   dtype=dtype)


def array_destroy(ctx, a):
    ctx.array_destroy(a)


def array_map(ctx, f, src, dst):
    ctx.array_map(f, src, dst)


def array_fold(ctx, conv_f, fold_f, a):
    return ctx.array_fold(conv_f, fold_f, a)


def array_copy(ctx, src, dst):
    ctx.array_copy(src, dst)


def array_broadcast_part(ctx, a, ix):
    ctx.array_broadcast_part(a, tuple(int(i) for i in ix))


def array_permute_rows(ctx, src, perm_f, dst):
    ctx.array_permute_rows(src, perm_f, dst)


def array_gen_mult(ctx, a, b, gen_add, gen_mult, c):
    ctx.array_gen_mult(a, b, gen_add, gen_mult, c)


def array_gen_mult_square(ctx, a, gen_add, gen_mult, c):
    ctx.array_gen_mult_square(a, gen_add, gen_mult, c)


def array_zip(ctx, f, a, b, dst):
    ctx.array_zip(f, a, b, dst)


def array_scan(ctx, op, a, dst):
    ctx.array_scan(op, a, dst)


# ---------------------------------------------------------------------------
# dtypes for $t instantiations
# ---------------------------------------------------------------------------
#: int is widened to 64 bits so that the paper's "add a weight to
#: INT_MAX" idiom cannot wrap around; unsigned likewise
_DTYPES = {
    "int": np.dtype(np.int64),
    "unsigned": np.dtype(np.uint64),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
    "char": np.dtype(np.int8),
}

_STRUCT_DTYPES: dict[str, np.dtype] = {}

_FIELD_DTYPES = {
    "int": "i8",
    "unsigned": "u8",
    "float": "f4",
    "double": "f8",
    "char": "i1",
}


def dtype_of(name: str) -> np.dtype:
    try:
        return _DTYPES[name]
    except KeyError:
        raise SkilRuntimeError(f"no numpy dtype for Skil type {name!r}") from None


def register_struct(name: str, fields: list[tuple[str, str]]) -> None:
    """Register a struct declaration as a numpy structured dtype."""
    np_fields = []
    for fname, ftype in fields:
        if ftype not in _FIELD_DTYPES:
            raise SkilRuntimeError(
                f"struct {name}: field {fname!r} has unsupported type {ftype!r}"
            )
        np_fields.append((fname, _FIELD_DTYPES[ftype]))
    _STRUCT_DTYPES[name] = np.dtype(np_fields)


def struct_dtype(name: str) -> np.dtype:
    try:
        return _STRUCT_DTYPES[name]
    except KeyError:
        raise SkilRuntimeError(f"unknown struct type {name!r}") from None


def new_struct(name: str):
    return np.zeros((), dtype=struct_dtype(name))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def log2(n) -> int:
    """``log2`` as used by shpaths: iterations to reach A^n by squaring."""
    return max(1, math.ceil(math.log2(max(1, int(n)))))


def sqrt(x) -> float:
    return math.sqrt(x)


def c_div(a, b):
    """C's truncating integer division (elementwise on numpy arrays)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # fdiv + correction instead of trunc(a/b): exact for all int64,
        # where the float path loses precision beyond 2**53
        q = a // b
        return q + ((a % b != 0) & ((a < 0) != (b < 0)))
    q = a / b
    return int(q) if q >= 0 else -int(-q)


def c_mod(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return a - c_div(a, b) * b
    return int(a) - c_div(a, b) * int(b)


def cast(type_name: str, value):
    if type_name in ("int", "unsigned", "char"):
        return int(value)
    if type_name in ("float", "double"):
        return float(value)
    raise SkilRuntimeError(f"unsupported cast to {type_name!r}")


def vec_gather(arr, i, j, env):
    """Vectorized local ``array_get_elem`` over broadcastable indices.

    Emitted by the vectorizer for ``array_get_elem(a, {i_expr, j_expr})``
    inside a kernel; indices are global and must lie in the partition of
    the executing processor (the compiler's locality rule).
    """
    b = arr.part_bounds(env.rank)
    li = np.asarray(i) - b.lower[0]
    lj = np.asarray(j) - b.lower[1]
    return arr.local(env.rank)[li, lj]


def error(msg: str):
    """The paper's run-time ``error()`` builtin."""
    raise SkilRuntimeError(msg)


def printf(fmt: str, *args):  # pragma: no cover - debugging aid
    print(fmt % args if args else fmt, end="")
