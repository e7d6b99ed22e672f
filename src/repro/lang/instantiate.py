"""Translation by instantiation (§2.4, ref. [1]).

This pass turns the checked, polymorphic, higher-order program into
**first-order monomorphic** functions, exactly as the Skil compiler
does before handing the code to its C back end:

* *functional arguments of HOFs are inlined into the definitions of
  these HOFs* — a call ``f(x)`` through a functional parameter becomes a
  direct call of the actual function (or, for operator sections, the
  operator expression itself);
* *partial applications are translated by inlining and lifting of their
  arguments* — the already-supplied arguments become extra leading
  parameters of the generated instance and travel through the call
  site;
* *a polymorphic function is translated to one or more monomorphic
  functions, as determined by the calls of this function* — instances
  are keyed by their resolved types and functional-argument shapes and
  memoized, so a d&c-style self-recursive HOF that passes its
  functional arguments through unchanged maps onto a single instance.

The paper restricts "a special class of recursively-defined HOFs" that
cannot be instantiated statically; we detect that class as an instance
explosion (more than :data:`MAX_INSTANCES_PER_FUNCTION` instances of one
source function) and raise :class:`~repro.errors.InstantiationError`.

Functional arguments of *builtin skeletons* are materialised the same
way: the skeleton call site ends up holding a :class:`KernelRef` — a
first-order generated function plus the lifted argument expressions —
or a :class:`SectionRef` for ``(+)``-style operator arguments, which the
code generator maps onto the runtime's annotated operator sections (so
``array_fold`` can still reduce with a numpy kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InstantiationError
from repro.lang import ast as A
from repro.lang.builtins import BUILTIN_FUNCTIONS
from repro.lang.typecheck import CheckedProgram
from repro.lang.types import TFun, Type, free_vars
from repro.obs import global_metrics

__all__ = [
    "KernelRef",
    "SectionRef",
    "Instance",
    "InstantiatedProgram",
    "MAX_INSTANCES_PER_FUNCTION",
    "instantiate_program",
]

MAX_INSTANCES_PER_FUNCTION = 64


@dataclass
class KernelRef(A.Expr):
    """A first-order kernel + lifted arguments, as a skeleton argument."""

    name: str = ""
    bound: list[A.Expr] = field(default_factory=list)
    ops_estimate: float = 1.0


@dataclass
class SectionRef(A.Expr):
    """An operator section handed to a skeleton (kept symbolic so the
    runtime can use its annotated/vectorized form)."""

    op: str = ""


@dataclass
class Instance:
    """One generated monomorphic, first-order function."""

    name: str
    source: str  #: original function name
    func: A.FuncDef
    #: resolved types of the ORIGINAL parameters (before lifting)
    arg_types: tuple[Type, ...] = ()
    #: trailing element-value parameter count when used as a skeleton
    #: kernel (None when unknown; see builtins.KERNEL_KINDS)
    kernel_elems: "int | None" = None


@dataclass
class InstantiatedProgram:
    checked: CheckedProgram
    entries: dict[str, A.FuncDef] = field(default_factory=dict)
    instances: dict[str, Instance] = field(default_factory=dict)
    #: per source function, the instance names generated from it
    report: dict[str, list[str]] = field(default_factory=dict)

    def all_functions(self) -> list[A.FuncDef]:
        return [*self.entries.values(), *(i.func for i in self.instances.values())]


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _FunDescriptor:
    """Static shape of a functional argument at a call site."""

    kind: str  # "user" | "builtin" | "section" | "param"
    name: str  # function name or operator text
    lifted: int = 0  # number of lifted (partially applied) arguments
    inner: tuple["_FunDescriptor", ...] = ()  # descriptors of *its* fn args


class _Instantiator:
    def __init__(self, checked: CheckedProgram):
        self.checked = checked
        self.out = InstantiatedProgram(checked)
        self._memo: dict[tuple, str] = {}
        self._counter: dict[str, int] = {}

    # ------------------------------------------------------------------ utils
    def resolved(self, t: Type | None) -> Type:
        if t is None:
            raise InstantiationError("internal: untyped expression")
        return self.checked.resolved(t)

    def is_functional(self, t: Type | None) -> bool:
        return isinstance(self.resolved(t), TFun)

    def _mangle(self, source: str) -> str:
        self._counter[source] = self._counter.get(source, 0) + 1
        n = self._counter[source]
        if n > MAX_INSTANCES_PER_FUNCTION:
            raise InstantiationError(
                f"function {source!r} required more than "
                f"{MAX_INSTANCES_PER_FUNCTION} instances — this is the "
                "recursively-defined HOF class the paper's instantiation "
                "procedure excludes"
            )
        return f"{source}_{n}"

    # ------------------------------------------------------------------ driver
    def run(self) -> InstantiatedProgram:
        for name, f in self.checked.functions.items():
            if self._is_entry(f):
                clone = A.clone(f)
                self.out.entries[name] = clone
                self._process_body(clone, param_map={})
        return self.out

    def _is_entry(self, f: A.FuncDef) -> bool:
        types = [p.ty for p in f.params] + [f.ret]
        for t in types:
            rt = self.resolved(t)
            if isinstance(rt, TFun) or free_vars(rt):
                return False
        return True

    # ------------------------------------------------------------------ descriptors
    def _describe(self, e: A.Expr, param_map: dict) -> _FunDescriptor:
        """Classify a functional argument expression."""
        if isinstance(e, A.OperatorSection):
            return _FunDescriptor("section", e.op)
        if isinstance(e, A.Ident):
            if e.name in param_map:
                return param_map[e.name][0]
            if e.name in self.checked.functions or e.name in self.checked.externals:
                return _FunDescriptor("user", e.name)
            if e.name in BUILTIN_FUNCTIONS:
                return _FunDescriptor("builtin", e.name)
            raise InstantiationError(
                f"line {e.line}: functional argument {e.name!r} is not a "
                "statically known function — the instantiation procedure "
                "requires functional arguments to be resolvable at compile "
                "time"
            )
        if isinstance(e, A.Call) and e.partial:
            inner = self._describe(e.func, param_map)
            inner_descs = tuple(
                self._describe(a, param_map) if self.is_functional(a.ty) else None
                for a in e.args
            )
            return _FunDescriptor(
                inner.kind,
                inner.name,
                lifted=inner.lifted + len(e.args),
                inner=tuple(d for d in inner_descs if d is not None),
            )
        raise InstantiationError(
            f"line {e.line}: unsupported functional argument "
            f"({type(e).__name__}); pass a named function, an operator "
            "section, or a partial application of one"
        )

    def _flatten_fun_arg(
        self, e: A.Expr, param_map: dict
    ) -> tuple[_FunDescriptor, list[A.Expr]]:
        """Descriptor plus the lifted-value expressions, outermost last."""
        if isinstance(e, A.Call) and e.partial:
            desc_inner, lifted_inner = self._flatten_fun_arg(e.func, param_map)
            lifted = list(lifted_inner)
            plain_args: list[A.Expr] = []
            for a in e.args:
                if self.is_functional(a.ty):
                    continue  # functional sub-arguments live in the descriptor
                plain_args.append(a)
            desc = self._describe(e, param_map)
            return desc, lifted + plain_args
        if isinstance(e, A.Ident) and e.name in param_map:
            desc, lifted_params = param_map[e.name]
            return desc, [A.Ident(nm, ty=t) for nm, t in lifted_params]
        return self._describe(e, param_map), []

    # ------------------------------------------------------------------ body
    def _process_body(self, f: A.FuncDef, param_map: dict) -> None:
        """Rewrite all calls inside *f* (which is already first-order)."""
        f.body = self._expr(f.body, param_map)

    def _expr(self, e: A.Node, pm: dict) -> A.Node:
        """Rewrite the calls under statement or expression *e*, in place."""
        if isinstance(e, A.Call):
            return self._call(e, pm)
        if isinstance(e, A.Ident) and e.name in pm:
            raise InstantiationError(
                f"line {e.line}: functional parameter {e.name!r} escapes in a "
                "non-call position the instantiation procedure cannot lift"
            )
        return A.map_children(e, lambda child: self._expr(child, pm))

    # ------------------------------------------------------------------ calls
    def _call(self, e: A.Call, pm: dict) -> A.Expr:
        # flatten application of a partial application: g(a)(b) -> g(a, b)
        if isinstance(e.func, A.Call) and e.func.partial:
            merged = A.Call(
                e.func.func, e.func.args + e.args, line=e.line, ty=e.ty
            )
            return self._call(merged, pm)

        # call THROUGH a functional parameter: inline the actual function
        if isinstance(e.func, A.Ident) and e.func.name in pm:
            desc, lifted_params = pm[e.func.name]
            args = [self._expr(a, pm) for a in e.args]
            lifted_exprs = [A.Ident(nm, ty=t) for nm, t in lifted_params]
            return self._direct_call(desc, lifted_exprs + args, e, pm)

        if isinstance(e.func, A.OperatorSection):
            args = [self._expr(a, pm) for a in e.args]
            return self._apply_section(e.func.op, args, e)

        if not isinstance(e.func, A.Ident):
            raise InstantiationError(
                f"line {e.line}: cannot instantiate a call through "
                f"{type(e.func).__name__}"
            )

        name = e.func.name
        if e.partial:
            # a partial application in value position is consumed by the
            # surrounding call (as a functional argument); standalone
            # partial applications cannot exist in first-order code
            raise InstantiationError(
                f"line {e.line}: partial application of {name!r} used as a "
                "value outside a functional-argument position"
            )

        if name in BUILTIN_FUNCTIONS:
            return self._builtin_call(name, e, pm)
        if name in self.checked.externals:
            e.args = [self._expr(a, pm) for a in e.args]
            return e
        if name in self.checked.functions:
            return self._user_call(name, e, pm)
        raise InstantiationError(f"line {e.line}: unknown function {name!r}")

    def _apply_section(self, op: str, args: list[A.Expr], e: A.Call) -> A.Expr:
        if op in ("min", "max") and len(args) == 2:
            call = A.Call(A.Ident(op), args, line=e.line, ty=e.ty)
            return call
        if len(args) == 2:
            return A.BinOp(op, args[0], args[1], line=e.line, ty=e.ty)
        raise InstantiationError(
            f"line {e.line}: operator section ({op}) applied to "
            f"{len(args)} arguments"
        )

    def _direct_call(
        self, desc: _FunDescriptor, args: list[A.Expr], e: A.Call, pm: dict
    ) -> A.Expr:
        if desc.kind == "section":
            return self._apply_section(desc.name, args, e)
        if desc.kind == "builtin":
            return A.Call(A.Ident(desc.name), args, line=e.line, ty=e.ty)
        call = A.Call(A.Ident(desc.name), args, line=e.line, ty=e.ty)
        if desc.name in self.checked.functions:
            return self._user_call(desc.name, call, pm, forced_desc=desc)
        return call  # external

    # ------------------------------------------------------------------ user calls
    def _user_call(
        self,
        name: str,
        e: A.Call,
        pm: dict,
        forced_desc: _FunDescriptor | None = None,
    ) -> A.Expr:
        f = self.checked.functions[name]
        if len(e.args) != len(f.params):
            raise InstantiationError(
                f"line {e.line}: call of {name!r} with {len(e.args)} args "
                f"for {len(f.params)} parameters after flattening"
            )
        arg_types = tuple(self.resolved(a.ty) for a in e.args)

        # split arguments into plain values and functional descriptors
        fun_descs: list[_FunDescriptor | None] = []
        fun_lifted: list[list[A.Expr] | None] = []
        for p, a in zip(f.params, e.args):
            if self.is_functional(p.ty):
                desc, lifted = self._flatten_fun_arg(a, pm)
                fun_descs.append(desc)
                fun_lifted.append([self._expr(x, pm) for x in lifted])
            else:
                fun_descs.append(None)
                fun_lifted.append(None)

        needs_instance = any(d is not None for d in fun_descs) or any(
            free_vars(self.resolved(p.ty)) for p in f.params
        ) or free_vars(self.resolved(f.ret))

        if not needs_instance:
            if name not in self.out.entries and name not in self.out.instances:
                # plain monomorphic helper — emit as a (single) instance
                key = ("plain", name)
                if key not in self._memo:
                    inst_name = name  # keep the original name
                    clone = A.clone(f)
                    self._memo[key] = inst_name
                    global_metrics().inc("lang.instantiations")
                    self.out.instances[inst_name] = Instance(
                        inst_name, name, clone, arg_types
                    )
                    self.out.report.setdefault(name, []).append(inst_name)
                    self._process_body(clone, {})
            new_args = [self._expr(a, pm) for a in e.args]
            return A.Call(A.Ident(name), new_args, line=e.line, ty=e.ty)

        # ---- build / reuse a specialized instance --------------------------
        type_key = tuple(t.show() for t in arg_types)
        desc_key = tuple(fun_descs)
        key = (name, type_key, desc_key)
        if key in self._memo:
            global_metrics().inc("lang.specialize_cache_hits")
            inst_name = self._memo[key]
        else:
            inst_name = self._mangle(name)
            self._memo[key] = inst_name
            global_metrics().inc("lang.instantiations")
            # self-recursive calls inside the instance body see the
            # ORIGINAL (generic) parameter types; pre-register that key so
            # d&c-style recursion with unchanged functional arguments maps
            # back onto this very instance instead of spawning a new one
            generic_types = tuple(self.resolved(p.ty).show() for p in f.params)
            self._memo.setdefault((name, generic_types, desc_key), inst_name)
            clone = A.clone(f)
            new_params: list[A.FuncParam] = []
            inner_pm: dict[str, tuple[_FunDescriptor, list[tuple[str, Type]]]] = {}
            for p, desc, lifted in zip(clone.params, fun_descs, fun_lifted):
                if desc is None:
                    new_params.append(p)
                    continue
                lifted_params = []
                for i, lv in enumerate(lifted or []):
                    ln = f"_lift_{p.name}_{i}"
                    lt = self.resolved(lv.ty)
                    new_params.append(A.FuncParam(ln, lt, line=p.line))
                    lifted_params.append((ln, lt))
                inner_pm[p.name] = (desc, lifted_params)
            clone.params = tuple(new_params)
            clone.name = inst_name
            inst = Instance(inst_name, name, clone, arg_types)
            self.out.instances[inst_name] = inst
            self.out.report.setdefault(name, []).append(inst_name)
            self._process_body(clone, inner_pm)

        # ---- rewrite the call site -----------------------------------------
        new_args: list[A.Expr] = []
        for a, desc, lifted in zip(e.args, fun_descs, fun_lifted):
            if desc is None:
                new_args.append(self._expr(a, pm))
            else:
                new_args.extend(lifted or [])
        return A.Call(A.Ident(inst_name), new_args, line=e.line, ty=e.ty)

    # ------------------------------------------------------------------ builtins
    def _builtin_call(self, name: str, e: A.Call, pm: dict) -> A.Expr:
        from repro.lang.builtins import KERNEL_KINDS

        sig = BUILTIN_FUNCTIONS[name]
        new_args: list[A.Expr] = []
        for idx, (pt, a) in enumerate(zip(sig.params, e.args)):
            if isinstance(pt, TFun):
                n_elems = KERNEL_KINDS.get((name, idx))
                new_args.append(self._kernel_arg(a, pm, n_elems))
            else:
                new_args.append(self._expr(a, pm))
        e.args = new_args
        return e

    def _kernel_arg(
        self, a: A.Expr, pm: dict, n_elems: "int | None" = None
    ) -> A.Expr:
        """Materialise a skeleton's functional argument."""
        if isinstance(a, A.OperatorSection):
            return SectionRef(a.op, line=a.line, ty=a.ty)
        if isinstance(a, A.Ident) and a.name in ("min", "max"):
            return SectionRef(a.name, line=a.line, ty=a.ty)
        desc, lifted = self._flatten_fun_arg(a, pm)
        lifted = [self._expr(x, pm) for x in lifted]
        if desc.kind == "section":
            if lifted:
                raise InstantiationError(
                    f"line {a.line}: a partially applied operator section "
                    "does not match any skeleton argument signature"
                )
            return SectionRef(desc.name, line=a.line, ty=a.ty)
        if desc.kind == "user":
            if desc.name not in self.checked.functions:
                # external function linked in at run time
                return KernelRef(desc.name, lifted, 1.0, line=a.line, ty=a.ty)
            inst_name = self._kernel_instance(desc, a, lifted, pm)
            inst = self.out.instances[inst_name]
            if inst.kernel_elems is None:
                inst.kernel_elems = n_elems
            return KernelRef(inst_name, lifted, _estimate_ops(inst.func),
                             line=a.line, ty=a.ty)
        if desc.kind == "builtin":
            return KernelRef(desc.name, lifted, 1.0, line=a.line, ty=a.ty)
        raise InstantiationError(
            f"line {a.line}: cannot materialise functional argument "
            f"of kind {desc.kind!r}"
        )

    def _kernel_instance(
        self, desc: _FunDescriptor, a: A.Expr, lifted: list[A.Expr], pm: dict
    ) -> str:
        """Instance for a user function handed to a skeleton."""
        name = desc.name
        f = self.checked.functions.get(name)
        if f is None:
            # external function used directly as a kernel
            return name
        # reconstruct the full call type: lifted args bound, rest open
        arg_types: list[Type] = []
        for x in lifted:
            arg_types.append(self.resolved(x.ty))
        # remaining parameter types come from the use-site type of `a`
        use_t = self.resolved(a.ty)
        if isinstance(use_t, TFun):
            arg_types.extend(self.resolved(p) for p in use_t.params)
        type_key = tuple(t.show() for t in arg_types)
        key = ("kernel", name, type_key, desc.inner)
        if key in self._memo:
            global_metrics().inc("lang.specialize_cache_hits")
            return self._memo[key]
        inst_name = self._mangle(name)
        self._memo[key] = inst_name
        global_metrics().inc("lang.instantiations")
        clone = A.clone(f)
        clone.name = inst_name
        # parameters stay as declared: the lifted values are BOUND at the
        # call site via the KernelRef, and the generated python binds them
        # as leading parameters with default-argument lifting
        inst = Instance(inst_name, name, clone, tuple(arg_types))
        self.out.instances[inst_name] = inst
        self.out.report.setdefault(name, []).append(inst_name)
        self._process_body(clone, {})
        return inst_name


_ARITH_OPS = {"+", "-", "*", "/", "%", "<<", ">>"}


def _estimate_ops(f: A.FuncDef) -> float:
    """Abstract-op estimate of one kernel application.

    Arithmetic operators count 1.0, comparisons/logical glue 0.25 (they
    compile to cheap branch tests), minimum 1.0 total.  The goal is for
    compiled kernels to charge roughly what a hand-annotated driver
    (``skil_fn(ops=...)``) would, so compiled and native runs of the
    same program land on the same simulated times.
    """
    count = 0.0
    for e in A.walk(f.body):
        if isinstance(e, A.BinOp):
            count += 1.0 if e.op in _ARITH_OPS else 0.25
        elif isinstance(e, A.UnOp):
            count += 0.5
    return float(max(1.0, count))


def instantiate_program(checked: CheckedProgram) -> InstantiatedProgram:
    """Run translation by instantiation over a checked program."""
    return _Instantiator(checked).run()
