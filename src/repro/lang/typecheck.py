"""Polymorphic type checking of Skil programs.

Hindley-Milner-flavoured checking over the C subset: top-level function
declarations act as type *schemes* (their ``$``-variables are
universally quantified and instantiated freshly at every use), local
inference is plain unification.  Curried application is resolved here —
a call supplying fewer arguments than parameters types as a function
over the remaining parameters and is flagged ``partial`` for the
instantiation pass.

C-isms kept deliberately: numeric primitives inter-convert; an
assignment to an undeclared identifier implicitly declares it in the
current function (the paper's sample code writes ``for (i = 0; ...)``
without declaring ``i``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SkilTypeError
from repro.lang import ast as A
from repro.lang.builtins import BUILTIN_FUNCTIONS, BUILTIN_VALUES
from repro.lang.types import (
    DOUBLE,
    INDEX,
    INT,
    STRING,
    VOID,
    Subst,
    TArray,
    TFun,
    TPointer,
    TPrim,
    TStruct,
    TVar,
    Type,
)

__all__ = ["TypeChecker", "CheckedProgram", "check"]


@dataclass
class CheckedProgram:
    program: A.Program
    subst: Subst
    functions: dict[str, A.FuncDef] = field(default_factory=dict)
    externals: dict[str, A.FuncDecl] = field(default_factory=dict)
    struct_decls: dict[str, A.StructDecl] = field(default_factory=dict)

    def resolved(self, t: Type) -> Type:
        return self.subst.apply(t)


class TypeChecker:
    def __init__(self, program: A.Program):
        self.program = program
        self.subst = Subst()
        self.functions: dict[str, A.FuncDef] = {}
        self.externals: dict[str, A.FuncDecl] = {}
        self.struct_decls: dict[str, A.StructDecl] = {}
        #: per-function local scopes (stack)
        self.scopes: list[dict[str, Type]] = []
        self.current_ret: Type = VOID

    # ------------------------------------------------------------------ driver
    def check(self) -> CheckedProgram:
        for d in self.program.decls:
            if isinstance(d, A.FuncDef):
                if d.name in self.functions or d.name in BUILTIN_FUNCTIONS:
                    raise SkilTypeError(
                        f"line {d.line}: function {d.name!r} redefined"
                    )
                self.functions[d.name] = d
            elif isinstance(d, A.FuncDecl):
                self.externals[d.name] = d
            elif isinstance(d, A.StructDecl):
                self.struct_decls[d.name] = d
        for d in self.program.decls:
            if isinstance(d, A.FuncDef):
                self._check_function(d)
        return CheckedProgram(
            self.program, self.subst, self.functions, self.externals,
            self.struct_decls,
        )

    # ------------------------------------------------------------------ scopes
    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, t: Type, line: int = 0) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise SkilTypeError(f"line {line}: {name!r} redeclared")
        scope[name] = t

    def lookup_local(self, name: str) -> Type | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # ------------------------------------------------------------------ funcs
    def scheme_of(self, name: str) -> Type | None:
        """The (polymorphic) type of a top-level function or builtin."""
        if name in BUILTIN_FUNCTIONS:
            return BUILTIN_FUNCTIONS[name]
        if name in self.functions:
            f = self.functions[name]
            return TFun(tuple(p.ty for p in f.params), f.ret)
        if name in self.externals:
            f = self.externals[name]
            return TFun(tuple(p.ty for p in f.params), f.ret)
        return None

    def _check_function(self, f: A.FuncDef) -> None:
        self.push()
        for p in f.params:
            if not p.name:
                raise SkilTypeError(
                    f"line {f.line}: parameter of {f.name!r} lacks a name"
                )
            self.declare(p.name, p.ty, f.line)
        saved = self.current_ret
        self.current_ret = f.ret
        self.stmt(f.body)
        self.current_ret = saved
        self.pop()

    # ------------------------------------------------------------------ stmts
    def stmt(self, s: A.Stmt) -> None:
        try:
            self._stmt(s)
        except SkilTypeError as err:
            raise _located(err, s) from None

    def _stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Block):
            self.push()
            for inner in s.stmts:
                self.stmt(inner)
            self.pop()
        elif isinstance(s, A.VarDecl):
            if s.init is not None:
                t = self.expr(s.init)
                self.subst.unify(s.ty, t)
            self.declare(s.name, s.ty, s.line)
        elif isinstance(s, A.If):
            self.expr(s.cond)
            self.stmt(s.then)
            if s.orelse is not None:
                self.stmt(s.orelse)
        elif isinstance(s, A.While):
            self.expr(s.cond)
            self.stmt(s.body)
        elif isinstance(s, A.For):
            self.push()
            if s.init is not None:
                self.stmt(s.init)
            if s.cond is not None:
                self.expr(s.cond)
            if s.step is not None:
                self.expr(s.step)
            self.stmt(s.body)
            self.pop()
        elif isinstance(s, A.Return):
            if s.value is None:
                self.subst.unify(self.current_ret, VOID)
            else:
                t = self.expr(s.value)
                self.subst.unify(self.current_ret, t)
        elif isinstance(s, A.ExprStmt):
            self.expr(s.expr)
        else:  # pragma: no cover - exhaustive
            raise SkilTypeError(f"unknown statement {type(s).__name__}")

    # ------------------------------------------------------------------ exprs
    def expr(self, e: A.Expr) -> Type:
        try:
            t = self._expr(e)
        except SkilTypeError as err:
            raise _located(err, e) from None
        e.ty = t
        return t

    def _expr(self, e: A.Expr) -> Type:
        if isinstance(e, A.IntLit):
            return INT
        if isinstance(e, A.FloatLit):
            return DOUBLE
        if isinstance(e, A.StringLit):
            return STRING
        if isinstance(e, A.CharLit):
            return TPrim("char")
        if isinstance(e, A.Ident):
            local = self.lookup_local(e.name)
            if local is not None:
                return local
            if e.name in BUILTIN_VALUES:
                return BUILTIN_VALUES[e.name]
            scheme = self.scheme_of(e.name)
            if scheme is not None:
                return self.subst.instantiate(scheme)
            raise SkilTypeError(f"line {e.line}: unknown identifier {e.name!r}")
        if isinstance(e, A.OperatorSection):
            a = self.subst.instantiate(TVar("$a"))
            if e.op in ("==", "!=", "<", ">", "<=", ">="):
                return TFun((a, a), INT)
            return TFun((a, a), a)
        if isinstance(e, A.Call):
            return self._call(e)
        if isinstance(e, A.BinOp):
            lt = self.expr(e.left)
            rt = self.expr(e.right)
            if e.op in ("&&", "||"):
                return INT
            self.subst.unify(lt, rt)
            if e.op in ("==", "!=", "<", ">", "<=", ">="):
                return INT
            return self.subst.apply(lt)
        if isinstance(e, A.UnOp):
            t = self.expr(e.operand)
            if e.op == "!":
                return INT
            return t
        if isinstance(e, A.Assign):
            if not isinstance(e.target, (A.Ident, A.IndexExpr, A.Member)):
                raise SkilTypeError(
                    f"cannot assign to a {type(e.target).__name__} expression: "
                    "the target must be an identifier, an indexed element or "
                    "a struct field"
                )
            vt = self.expr(e.value)
            if isinstance(e.target, A.Ident) and self.lookup_local(
                e.target.name
            ) is None and e.target.name not in BUILTIN_VALUES and self.scheme_of(
                e.target.name
            ) is None:
                # C-style implicit declaration (the paper's loop counters)
                self.scopes[-1][e.target.name] = self.subst.apply(vt)
                e.target.ty = vt
                return vt
            tt = self.expr(e.target)
            self.subst.unify(tt, vt)
            return self.subst.apply(tt)
        if isinstance(e, A.IndexExpr):
            bt = self.subst.resolve(self.expr(e.base))
            it = self.expr(e.index)
            self.subst.unify(it, INT)
            if isinstance(bt, TPrim) and bt.name in ("Index", "Size"):
                return INT
            if isinstance(bt, TArray):
                return bt.elem
            if isinstance(bt, TVar):
                elem = self.subst.instantiate(TVar("$e"))
                self.subst.unify(bt, TArray(elem))
                return elem
            raise SkilTypeError(
                f"line {e.line}: cannot index a value of type {bt.show()}"
            )
        if isinstance(e, A.Member):
            bt = self.subst.resolve(self.expr(e.base))
            if isinstance(bt, TPointer):
                bt = self.subst.resolve(bt.target)
            if isinstance(bt, TPrim) and bt.name == "Bounds":
                if e.name in ("lowerBd", "upperBd"):
                    return INDEX
                raise SkilTypeError(
                    f"line {e.line}: Bounds has no field {e.name!r} "
                    "(use lowerBd / upperBd)"
                )
            if isinstance(bt, TStruct):
                if not bt.fields and bt.name in self.struct_decls:
                    bt = TStruct(bt.name, tuple(self.struct_decls[bt.name].fields))
                return bt.field_type(e.name)
            raise SkilTypeError(
                f"line {e.line}: cannot access field {e.name!r} of {bt.show()}"
            )
        if isinstance(e, A.Cond):
            self.expr(e.cond)
            tt = self.expr(e.then)
            ot = self.expr(e.orelse)
            self.subst.unify(tt, ot)
            return self.subst.apply(tt)
        if isinstance(e, A.BraceList):
            for item in e.items:
                self.subst.unify(self.expr(item), INT)
            return INDEX
        if isinstance(e, A.Cast):
            self.expr(e.operand)
            return e.target
        raise SkilTypeError(f"unknown expression {type(e).__name__}")

    def _call(self, e: A.Call) -> Type:
        ft = self.subst.resolve(self.expr(e.func))
        arg_ts = [self.expr(a) for a in e.args]
        if isinstance(ft, TVar):
            ret = self.subst.instantiate(TVar("$r"))
            self.subst.unify(ft, TFun(tuple(arg_ts), ret))
            return ret
        if not isinstance(ft, TFun):
            raise SkilTypeError(
                f"line {e.line}: calling a non-function of type {ft.show()}"
            )
        nparams = len(ft.params)
        nargs = len(arg_ts)
        if nargs < nparams:
            # partial application (currying, §2.1)
            for pt, at in zip(ft.params, arg_ts):
                self.subst.unify(pt, at)
            e.partial = True
            return TFun(ft.params[nargs:], ft.ret)
        if nargs == nparams:
            for pt, at in zip(ft.params, arg_ts):
                self.subst.unify(pt, at)
            return self.subst.apply(ft.ret)
        # over-application: the result must itself be a function
        for pt, at in zip(ft.params, arg_ts[:nparams]):
            self.subst.unify(pt, at)
        rest = A.Call(e.func, e.args[nparams:], line=e.line)  # type check only
        ret = self.subst.resolve(ft.ret)
        if isinstance(ret, TVar):
            out = self.subst.instantiate(TVar("$r"))
            self.subst.unify(ret, TFun(tuple(arg_ts[nparams:]), out))
            return out
        if not isinstance(ret, TFun):
            raise SkilTypeError(
                f"line {e.line}: too many arguments "
                f"({nargs} for {nparams}-ary {ft.show()})"
            )
        for pt, at in zip(ret.params, arg_ts[nparams:]):
            self.subst.unify(pt, at)
        if len(ret.params) != nargs - nparams:
            raise SkilTypeError(
                f"line {e.line}: argument count mismatch in curried call"
            )
        del rest
        return self.subst.apply(ret.ret)

    # ------------------------------------------------------------------ final
    def finalize(self, prog: CheckedProgram) -> None:
        """Resolve all recorded types (every expression's, and the
        declared type of every local) through the substitution."""
        for f in prog.functions.values():
            for node in A.walk(f.body):
                ty = getattr(node, "ty", None)
                if ty is not None:
                    node.ty = self.subst.apply(ty)


def _located(err: SkilTypeError, node: A.Node) -> SkilTypeError:
    """*err* naming *node*'s source line — unless it names one already:
    ``unify`` and the other helpers of :mod:`repro.lang.types` know no
    node, so the innermost ``expr``/``stmt`` frame they fail under is
    where their message gets its position."""
    msg = str(err)
    return err if msg.startswith("line ") else SkilTypeError(f"line {node.line}: {msg}")


def check(program: A.Program) -> CheckedProgram:
    """Type-check *program*; returns the checked program with resolved
    expression type annotations."""
    tc = TypeChecker(program)
    out = tc.check()
    tc.finalize(out)
    return out
