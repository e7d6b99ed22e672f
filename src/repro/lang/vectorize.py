"""Kernel vectorizer: compile map/init kernels to numpy.

The paper's back end compiles the instantiated first-order C with an
optimizing C compiler, so per-element kernels run at machine speed.  Our
back end is Python, where a per-element loop is slow *in wall-clock*
(simulated time is charged analytically either way) — this pass closes
that gap by translating kernels in a restricted-but-common subset into
numpy expressions over whole partitions:

* straight-line bodies of local declarations (uniform ones become
  Python scalars, per-element ones whole-block arrays), ``if``/
  ``return`` chains and a final ``return``;
* expressions over the element value, ``ix[...]`` components, lifted
  parameters, numeric literals, ``array_get_elem`` with in-partition
  indices, ``array_part_bounds`` results, ``procId``, ``abs``/``min``/
  ``max`` and casts;
* conditions that are *uniform* across the partition (no ``v``/``ix``
  dependence, e.g. ``copy_pivot``'s bounds test) become Python-level
  branches; varying conditions become masked ``np.where`` selections
  (both sides evaluated, so both sides must be total — division guards
  are wrapped in ``errstate``).

A kernel outside the subset simply stays scalar; correctness never
depends on this pass, and the test-suite checks scalar and vectorized
paths agree.
"""

from __future__ import annotations

import io

from repro.lang import ast as A
from repro.lang.codegen import py_name
from repro.lang.instantiate import Instance
from repro.lang.types import TFun, TPardata, TPrim, Type

__all__ = ["try_vectorize", "VectorizeFailure"]


class VectorizeFailure(Exception):
    """Internal: kernel is outside the vectorizable subset."""


def try_vectorize(inst: Instance, resolved) -> tuple[str, bool] | None:
    """Return ``(source, env_free)`` for ``_vec_<name>``, or None.

    *env_free* says the emitted code never reads ``__env`` (the value
    the source also stores on ``_vec_<name>.env_free``).  *resolved*
    maps a ``Type | None`` to its substitution-resolved form (the
    checker's ``CheckedProgram.resolved``).
    """
    try:
        vec = _Vectorizer(inst, resolved)
        return vec.emit(), not vec.uses_env
    except VectorizeFailure:
        return None


class _Vectorizer:
    def __init__(self, inst: Instance, resolved):
        self.inst = inst
        self.resolved = resolved
        f = inst.func
        params = list(f.params)
        if not params:
            raise VectorizeFailure("kernel without parameters")
        last = resolved(params[-1].ty)
        if not (isinstance(last, TPrim) and last.name in ("Index", "Size")):
            raise VectorizeFailure("kernel does not end in an Index parameter")
        self.ix_name = params[-1].name
        lead = params[:-1]
        # trailing element-value parameters bound to partition blocks;
        # the skeleton use site records how many (array_zip has two),
        # otherwise at most one trailing scalar is the element
        n_elems = inst.kernel_elems
        if n_elems is None:
            n_elems = 1 if (lead and _is_scalar_value(resolved(lead[-1].ty))) else 0
        self.elem_names: list[str] = []
        for _ in range(n_elems):
            if not lead or not _is_scalar_value(resolved(lead[-1].ty)):
                raise VectorizeFailure("kernel arity does not match its use")
            self.elem_names.insert(0, lead[-1].name)
            lead = lead[:-1]
        self.elem_name = self.elem_names[-1] if len(self.elem_names) == 1 else None
        self.lead_params = lead
        # names of parameters that hold distributed arrays (gatherable)
        self.array_params = {
            p.name for p in lead if isinstance(resolved(p.ty), TPardata)
        }
        self.scalar_params = {p.name for p in lead} - self.array_params
        self.uniform_locals: dict[str, str] = {}
        self.varying_locals: set[str] = set()
        self.prologue: list[str] = []
        # does the emitted code read __env (procId, part_bounds, gather)?
        # env-free kernels may run fused over the whole pooled array —
        # their result per element cannot depend on the executing rank
        self.uses_env = False

    # ------------------------------------------------------------------ emit
    def emit(self) -> str:
        body_expr = self._translate_stmts(list(self.inst.func.body.stmts))
        out = io.StringIO()
        args = [py_name(p.name) for p in self.lead_params]
        args += [f"__block{i}" for i in range(len(self.elem_names))]
        args += ["__grids", "__env"]
        out.write(f"def _vec_{self.inst.name}({', '.join(args)}):\n")
        for i, name in enumerate(self.elem_names):
            out.write(f"    {py_name(name)} = __block{i}\n")
        for line in self.prologue:
            out.write(f"    {line}\n")
        out.write(f"    return {body_expr}\n")
        out.write(f"_vec_{self.inst.name}.env_free = {not self.uses_env}\n")
        return out.getvalue()

    # ------------------------------------------------------------------ stmts
    def _translate_stmts(self, stmts: list[A.Stmt]) -> str:
        if not stmts:
            raise VectorizeFailure("falls off the end without a return")
        s, rest = stmts[0], stmts[1:]
        if isinstance(s, A.Block):
            return self._translate_stmts(list(s.stmts) + rest)
        if isinstance(s, A.VarDecl):
            if s.init is None:
                raise VectorizeFailure("uninitialised local")
            code, uniform = self._expr(s.init)
            self.prologue.append(f"{py_name(s.name)} = {code}")
            if uniform:
                self.uniform_locals[s.name] = s.name
            else:
                # a per-element temporary (the fusion pass threads the
                # producer kernel's value through one); it simply becomes
                # a whole-block numpy array bound in the prologue
                self.varying_locals.add(s.name)
            return self._translate_stmts(rest)
        if isinstance(s, A.Return):
            if s.value is None:
                raise VectorizeFailure("void return in kernel")
            return self._expr(s.value)[0]
        if isinstance(s, A.If):
            cond_code, cond_uniform = self._expr(s.cond)
            then_expr = self._branch_expr(s.then)
            if s.orelse is not None:
                else_expr = self._branch_expr(s.orelse)
            else:
                else_expr = self._translate_stmts(rest)
            if cond_uniform:
                return f"(({then_expr}) if ({cond_code}) else ({else_expr}))"
            return f"_np.where({cond_code}, {then_expr}, {else_expr})"
        raise VectorizeFailure(f"statement {type(s).__name__} outside the subset")

    def _branch_expr(self, s: A.Stmt) -> str:
        if isinstance(s, A.Block):
            return self._translate_stmts(list(s.stmts))
        return self._translate_stmts([s])

    def _is_int(self, t: Type | None) -> bool:
        t = self.resolved(t) if t is not None else None
        return isinstance(t, TPrim) and t.name in ("int", "unsigned", "char")

    # ------------------------------------------------------------------ exprs
    def _expr(self, e: A.Expr) -> tuple[str, bool]:
        """Translate an expression; returns (code, is_uniform)."""
        if isinstance(e, A.IntLit):
            return repr(e.value), True
        if isinstance(e, A.FloatLit):
            return repr(e.value), True
        if isinstance(e, A.Ident):
            if e.name in self.elem_names or e.name in self.varying_locals:
                return py_name(e.name), False
            if e.name == self.ix_name:
                raise VectorizeFailure("whole-Index use outside indexing")
            if e.name in self.scalar_params or e.name in self.uniform_locals:
                return py_name(e.name), True
            if e.name in self.array_params:
                raise VectorizeFailure("array used outside get_elem/bounds")
            if e.name == "procId":
                self.uses_env = True
                return "__env.rank", True
            if e.name in ("INT_MAX", "UINT_MAX", "FLT_MAX"):
                return f"_rt.{e.name}", True
            raise VectorizeFailure(f"unsupported identifier {e.name!r}")
        if isinstance(e, A.IndexExpr):
            if isinstance(e.base, A.Ident) and e.base.name == self.ix_name:
                d_code, d_uniform = self._expr(e.index)
                if not d_uniform:
                    raise VectorizeFailure("non-uniform Index component")
                return f"__grids[{d_code}]", False
            base_code, base_uniform = self._expr(e.base)
            idx_code, idx_uniform = self._expr(e.index)
            if not (base_uniform and idx_uniform):
                raise VectorizeFailure("varying indexing outside the subset")
            return f"{base_code}[{idx_code}]", True
        if isinstance(e, A.BinOp):
            lc, lu = self._expr(e.left)
            rc, ru = self._expr(e.right)
            uniform = lu and ru
            if e.op in ("&&", "||"):
                if uniform:
                    op = "and" if e.op == "&&" else "or"
                    return f"(({lc}) {op} ({rc}))", True
                op = "&" if e.op == "&&" else "|"
                return f"(({lc}) {op} ({rc}))", False
            if e.op in ("/", "%") and self._is_int(e.ty):
                # C's truncating semantics, same as the scalar code path
                # (numpy's / and % floor instead; the repro.check fuzzer
                # caught the two paths disagreeing on negative operands)
                fn = "_rt.c_div" if e.op == "/" else "_rt.c_mod"
                return f"{fn}({lc}, {rc})", uniform
            return f"({lc} {e.op} {rc})", uniform
        if isinstance(e, A.UnOp):
            c, u = self._expr(e.operand)
            if e.op == "!":
                return (f"(not {c})", True) if u else (f"(~({c}))", False)
            return f"(-{c})", u
        if isinstance(e, A.Cond):
            cc, cu = self._expr(e.cond)
            tc, tu = self._expr(e.then)
            ec, eu = self._expr(e.orelse)
            if cu:
                return f"(({tc}) if ({cc}) else ({ec}))", tu and eu
            return f"_np.where({cc}, {tc}, {ec})", False
        if isinstance(e, A.Member):
            # Bounds member through a uniform local
            base_code, base_uniform = self._expr(e.base)
            if not base_uniform:
                raise VectorizeFailure("varying member access")
            if e.name in ("lowerBd", "upperBd"):
                return f"{base_code}.{e.name}", True
            raise VectorizeFailure(f"member {e.name!r} outside the subset")
        if isinstance(e, A.Cast):
            c, u = self._expr(e.operand)
            target = e.target.show()
            if target in ("float", "double"):
                fn = "_np.float64" if u else "_np.asarray"
                return (f"float({c})", True) if u else (f"({c}).astype(float)", False)
            if target in ("int", "unsigned", "char"):
                return (f"int({c})", True) if u else (
                    f"_np.trunc({c}).astype(_np.int64)", False)
            raise VectorizeFailure(f"cast to {target} outside the subset")
        if isinstance(e, A.Call):
            return self._call(e)
        raise VectorizeFailure(f"expression {type(e).__name__} outside the subset")

    def _call(self, e: A.Call) -> tuple[str, bool]:
        if not isinstance(e.func, A.Ident):
            raise VectorizeFailure("computed call target")
        name = e.func.name
        if name == "array_get_elem":
            arr = e.args[0]
            if not (isinstance(arr, A.Ident) and arr.name in self.array_params):
                raise VectorizeFailure("get_elem on a non-parameter array")
            idx = e.args[1]
            if not isinstance(idx, A.BraceList) or len(idx.items) != 2:
                raise VectorizeFailure("get_elem index outside the subset")
            i0, u0 = self._expr(idx.items[0])
            i1, u1 = self._expr(idx.items[1])
            self.uses_env = True
            code = f"_rt.vec_gather({py_name(arr.name)}, {i0}, {i1}, __env)"
            return code, u0 and u1
        if name == "array_part_bounds":
            arr = e.args[0]
            if not (isinstance(arr, A.Ident) and arr.name in self.array_params):
                raise VectorizeFailure("part_bounds on a non-parameter array")
            self.uses_env = True
            return f"{py_name(arr.name)}.part_bounds(__env.rank)", True
        if name == "abs":
            c, u = self._expr(e.args[0])
            return (f"abs({c})", True) if u else (f"_np.abs({c})", False)
        if name in ("min", "max"):
            a, ua = self._expr(e.args[0])
            b, ub = self._expr(e.args[1])
            if ua and ub:
                return f"{name}({a}, {b})", True
            np_fn = "_np.minimum" if name == "min" else "_np.maximum"
            return f"{np_fn}({a}, {b})", False
        raise VectorizeFailure(f"call to {name!r} outside the subset")


def _is_scalar_value(t: Type) -> bool:
    if isinstance(t, (TFun, TPardata)):
        return False
    if isinstance(t, TPrim) and t.name in ("Index", "Size", "Bounds"):
        return False
    return True
