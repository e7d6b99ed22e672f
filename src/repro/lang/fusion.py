"""Compiler-level skeleton discovery & fusion.

This pass runs between instantiation and code generation.  It rewrites
the first-order AST so that the *program* becomes cheaper on the
simulated machine — fewer skeleton rounds, fewer intermediate
``DistArray`` allocations — while the values it computes stay bit-equal
to the unfused program (the contract the ``repro.check`` ``fusion``
pillar enforces at multiple p).  Two groups of rewrites:

**Skeleton fusion** — a producer call and a consumer call connected only
by an intermediate array collapse into one call, one row of
:data:`_ROWS` each: ``map∘map``, ``map``-into-``zip``, ``zip``-into-
``map`` and ``map``-into-``fold`` compose the two kernels (``array_map(
k1, a, t); array_map(k2, t, b)`` becomes ``array_map(k2∘k1, a, b)``, and
``t``'s create/destroy rounds and the first map round disappear);
``create∘map`` never allocates an array created only to be mapped away;
``array_copy(a, b); array_gen_mult(a, b, ...)`` becomes
``array_gen_mult_square(a, ...)``, the shortest-paths squaring idiom.
Arrays left only created and destroyed are removed, and creates whose
initial values are provably overwritten before any read lose their init
round (``array_create → array_create_uninit``).

**Skeleton discovery** — element-wise ``for`` loops over pardata that
match map/zip/fold shapes become skeleton calls: the loop paid one
simulated message per ``array_get_elem``/``array_put_elem`` on the
front end, the skeleton does the same work collectively.

Legality is one question asked of one table.  Each function gets a
def-use table (:class:`_Uses`), built by one walk of its body and
rebuilt after every rewrite: per name its mentions and its definers
(``=``/``op=`` assignments, initialised declarations, skeleton calls
that write it as destination), per array its create and destroy
statements, per statement its pre-order position and parent slot.  A
rewrite that drops an intermediate array ``tmp`` — producer P at
``block[i]``, consumer Q anywhere inside ``block[j]`` — is legal when
(:meth:`_Fuser._legal`):

* ``tmp`` is a local created once by a pure-init create, and its only
  other mentions are P, Q and its destroys;
* nothing in ``block[i+1 .. j]`` mentions ``tmp`` or P's sources, or
  defines a source or a name either kernel captures — all of
  ``block[j]`` counts when Q is nested inside it, since a loop around
  Q runs that code again before Q's next reading;
* no line the rewrite changes or removes is vetoed.

A dead array is the same question with no P and no Q.  Discovery asks
the table whether a loop counts: its variable defined only by the
header's ``= 0`` and ``+ 1`` step and dead after the loop, its bound
with no definer in the function.

Kernel composition is restricted to the pure expression subset, and a
composed kernel is only accepted when :func:`~repro.lang.vectorize.
try_vectorize` proves it vectorizable *and* env-free, i.e. it stays
eligible for the fused dispatch path of :mod:`repro.skeletons.fuse`
(rank-dependent kernels such as ``procId`` readers never fuse).  The
intermediate's element type must round-trip exactly through its dtype
(``int``/``double``), since the unfused program stores the producer's
value before the consumer reads it back.

Eliminating a round also eliminates its *runtime argument checks*
(PERFORMANCE.md): a program that would have raised a shape/aliasing
error unfused may run to completion fused; valid programs compute
identical values.  The pass runs only under ``compile_skil(fusion=True)``.

Traversal order is load-bearing — lifted-scalar order, the
``__fused_<n>`` counter and "first mention's type" all follow the
kit's pre-order (:func:`repro.lang.ast.walk`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.lang import ast as A
from repro.lang.builtins import BUILTIN_VALUES
from repro.lang.instantiate import (
    Instance,
    InstantiatedProgram,
    KernelRef,
    SectionRef,
    _estimate_ops,
)
from repro.lang.printer import _Printer
from repro.lang.types import INDEX, INT, TPrim, Type
from repro.lang.vectorize import try_vectorize

__all__ = ["FusionRewrite", "FusionReport", "fuse_program"]


class _Bail(Exception):
    """Internal: candidate is outside the fusable subset."""


@dataclass
class FusionRewrite:
    kind: str  #: e.g. "fuse:map.map", "discover:map", "square", "uninit"
    line: int  #: source line of the rewritten (consumer) call
    detail: str
    #: static skeleton rounds removed from the program text (calls inside
    #: loops count once here; dynamic counts show up in stats.skeleton_calls)
    rounds: int = 0


@dataclass
class FusionReport:
    rewrites: list[FusionRewrite] = field(default_factory=list)

    def _count(self, *kinds: str) -> int:
        return sum(r.kind.startswith(kinds) for r in self.rewrites)

    fused_calls = property(lambda self: self._count("fuse:", "square"))
    discovered_loops = property(lambda self: self._count("discover:"))
    arrays_eliminated = property(lambda self: self._count("fuse:", "dead-array"))
    inits_elided = property(lambda self: self._count("uninit"))
    rounds_eliminated = property(lambda self: sum(r.rounds for r in self.rewrites))

    def add(self, kind: str, line: int, detail: str, rounds: int = 0) -> None:
        self.rewrites.append(FusionRewrite(kind, line, detail, rounds))

    def summary(self) -> str:
        lines = [
            f"fused skeleton calls      : {self.fused_calls}",
            f"discovered loops          : {self.discovered_loops}",
            f"intermediate arrays gone  : {self.arrays_eliminated}",
            f"init rounds elided        : {self.inits_elided}",
            f"static rounds eliminated  : {self.rounds_eliminated}",
        ]
        for r in self.rewrites:
            lines.append(f"  line {r.line:4d}  {r.kind:<16} {r.detail}")
        return "\n".join(lines)


# --------------------------------------------------------------------- queries
def _idents(n: A.Node) -> set[str]:
    """Names of the identifiers under statement or expression *n*."""
    return {x.name for x in A.walk(n) if isinstance(x, A.Ident)}


def _is_ident(e: Optional[A.Expr], name: str) -> bool:
    return isinstance(e, A.Ident) and e.name == name


def _is_int(e: Optional[A.Expr], value: int) -> bool:
    return isinstance(e, A.IntLit) and e.value == value


def _pp(e: A.Expr) -> str:
    return _Printer().expr(e)


def _call_of(s: A.Stmt, *names: str) -> Optional[A.Call]:
    """The call when *s* is ``ExprStmt(Call(<one of names>, ...))``."""
    if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Call):
        c = s.expr
        if isinstance(c.func, A.Ident) and c.func.name in names:
            return c
    return None


def _binding(s: Optional[A.Stmt]) -> Optional[tuple[str, A.Expr, A.Node]]:
    """``(name, value, definer)`` when *s* is ``T name = value;`` or
    ``name = value;``."""
    if isinstance(s, A.VarDecl) and s.init is not None:
        return s.name, s.init, s
    if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign):
        a = s.expr
        if a.op == "=" and isinstance(a.target, A.Ident):
            return a.target.name, a.value, a
    return None


def _create_call(s: A.Stmt) -> Optional[tuple[str, A.Call]]:
    """``(name, call)`` when *s* binds an ``array_create`` result."""
    b = _binding(s)
    if b is None or not isinstance(b[1], A.Call):
        return None
    return (b[0], b[1]) if _is_ident(b[1].func, "array_create") else None


def _adds_one(e: Optional[A.Expr], var: str) -> bool:
    """Whether *e* steps *var* by one, however spelled: ``v++``, ``++v``
    and ``v += 1`` parse to ``v += 1``; ``v = v + 1`` and ``v = 1 + v``
    normalise to the same sum."""
    if not (isinstance(e, A.Assign) and _is_ident(e.target, var)):
        return False
    if e.op == "+=":
        terms = (A.Ident(var), e.value)
    elif e.op == "=" and isinstance(e.value, A.BinOp) and e.value.op == "+":
        terms = (e.value.left, e.value.right)
    else:
        return False
    return any(_is_ident(x, var) and _is_int(y, 1) for x, y in (terms, terms[::-1]))


def _other(acc: str, x: A.Expr, y: A.Expr) -> Optional[A.Expr]:
    """The operand of ``acc ⊕ e`` / ``e ⊕ acc`` that is not *acc*."""
    return y if _is_ident(x, acc) else x if _is_ident(y, acc) else None


# ------------------------------------------------------------- def-use table
#: skeleton -> index of the argument it writes
_WRITES = {
    "array_map": 2, "array_zip": 3, "array_copy": 1, "array_scan": 2,
    "array_gen_mult": 4, "array_gen_mult_square": 3, "array_permute_rows": 2,
    "array_broadcast_part": 0, "array_put_elem": 0,
}


class _Uses:
    """One function's def-use table, built by one walk of its body.

    Statements are numbered in pre-order, so a statement's subtree is
    the position range :meth:`span`; an expression belongs to its
    innermost statement (a ``for`` header's condition and step to the
    ``for``).  ``mentions[name]`` holds the position of every identifier
    spelling *name*, ``defs[name]`` the ``(position, node)`` of every
    definer; ``creates`` / ``destroys`` / ``folds`` index the statements
    and calls that create, destroy and fold an array by name."""

    def __init__(self, f: A.FuncDef) -> None:
        self.params = {p.name for p in f.params}
        self.stmts: list[A.Stmt] = []
        self.pos: dict[int, int] = {}
        #: id(statement) -> the statement holding it
        self.parent: dict[int, A.Stmt] = {}
        self.mentions: dict[str, list[int]] = defaultdict(list)
        self.defs: dict[str, list[tuple[int, A.Node]]] = defaultdict(list)
        self.creates: dict[str, list[A.Stmt]] = defaultdict(list)
        self.destroys: dict[str, list[A.Stmt]] = defaultdict(list)
        self.folds: dict[str, list[tuple[int, A.Call]]] = defaultdict(list)
        #: does the body call any ``array_*`` builtin at all?
        self.skeletal = False
        header: dict[int, int] = {}
        at = -1
        for n in A.walk(f.body):
            if isinstance(n, A.Stmt):
                at = len(self.stmts)
                self.pos[id(n)] = at
                self.stmts.append(n)
                self._stmt(n, at, header)
            else:
                at = header.pop(id(n), at)
                self._expr(n, at)
        self.end = [k + 1 for k in range(len(self.stmts))]
        for s in reversed(self.stmts[1:]):
            up, k = self.pos[id(self.parent[id(s)])], self.pos[id(s)]
            self.end[up] = max(self.end[up], self.end[k])
        self.blocks = [s for s in self.stmts if isinstance(s, A.Block)]

    def _stmt(self, s: A.Stmt, at: int, header: dict[int, int]) -> None:
        for x in A.children(s):
            if isinstance(x, A.Stmt):
                self.parent[id(x)] = s
            elif isinstance(s, A.For):
                header[id(x)] = at  # the condition and the step
        if isinstance(s, A.VarDecl) and s.init is not None:
            self.defs[s.name].append((at, s))
        made = _create_call(s)
        if made is not None:
            self.creates[made[0]].append(s)
        c = _call_of(s, "array_destroy")
        if c is not None and len(c.args) == 1 and isinstance(c.args[0], A.Ident):
            self.destroys[c.args[0].name].append(s)

    def _expr(self, e: A.Expr, at: int) -> None:
        if isinstance(e, A.Ident):
            self.mentions[e.name].append(at)
        elif isinstance(e, A.Assign) and isinstance(e.target, A.Ident):
            self.defs[e.target.name].append((at, e))
        elif isinstance(e, A.Call) and isinstance(e.func, A.Ident):
            name, args = e.func.name, e.args
            self.skeletal = self.skeletal or name.startswith("array_")
            k = _WRITES.get(name)
            if k is not None and k < len(args) and isinstance(args[k], A.Ident):
                self.defs[args[k].name].append((at, e))
            if name == "array_fold" and len(args) == 3 and isinstance(args[2], A.Ident):
                self.folds[args[2].name].append((at, e))

    # ------------------------------------------------------------- lookups
    def span(self, s: A.Stmt) -> range:
        """The positions of *s* and its sub-statements."""
        k = self.pos[id(s)]
        return range(k, self.end[k])

    def count(self, name: str, where: range) -> int:
        """How often *name* is mentioned at the positions *where*."""
        return sum(k in where for k in self.mentions.get(name, ()))

    def defined(self, name: str, where: range) -> bool:
        return any(k in where for k, _ in self.defs.get(name, ()))

    def fixed(self, e: A.Expr) -> bool:
        """Whether no name in *e* has a definer anywhere in the function."""
        return not any(self.defs.get(x) for x in _idents(e))

    def created_once(self, name: str) -> Optional[tuple[A.Stmt, A.Call]]:
        """``(statement, call)`` of *name*'s only create, if it has one."""
        made = self.creates.get(name, ())
        return (made[0], _create_call(made[0])[1]) if len(made) == 1 else None

    def remove(self, s: A.Stmt) -> None:
        """Cut *s* out of its parent (by identity — dataclass == is
        structural): an optional slot empties, a required one gets ``{}``."""
        up = self.parent[id(s)]
        if isinstance(up, A.Block):
            up.stmts[:] = [x for x in up.stmts if x is not s]
            return
        for name in ("then", "orelse", "body", "init"):
            if getattr(up, name, None) is s:
                empty = None if name in ("orelse", "init") else A.Block([], line=s.line)
                setattr(up, name, empty)


# ------------------------------------------------------------- body -> expr
#: calls that are pure and stay inside composed kernel bodies
_PURE_CALLS = frozenset({"min", "max", "abs"})
#: the node types a kernel body may be built from, besides identifiers
#: (the leaf's to answer for) and calls of :data:`_PURE_CALLS`
_PURE_NODES = (
    A.IntLit, A.FloatLit, A.CharLit, A.BinOp, A.UnOp, A.Cond, A.Cast, A.IndexExpr,
)


def _pure_map(e: A.Expr, leaf) -> A.Expr:
    """Copy *e*, replacing every sub-expression *leaf* answers for (a
    non-``None`` return) by that answer; raise :class:`_Bail` outside
    the pure expression subset."""
    new = leaf(e)
    if new is not None:
        return new
    if isinstance(e, A.Call):
        if isinstance(e.func, A.Ident) and e.func.name in _PURE_CALLS:
            args = [_pure_map(x, leaf) for x in e.args]
            return replace(e, func=A.clone(e.func), args=args)
    elif isinstance(e, _PURE_NODES):
        return A.rebuild(e, lambda child: _pure_map(child, leaf))
    raise _Bail(f"{type(e).__name__} outside the composable subset")


def _subst_expr(e: A.Expr, env: dict[str, A.Expr]) -> A.Expr:
    """Rebuild *e* with identifiers substituted per *env*; raise
    :class:`_Bail` outside the pure expression subset."""

    def leaf(x: A.Expr) -> Optional[A.Expr]:
        if not isinstance(x, A.Ident):
            return None
        if x.name in env:
            return A.clone(env[x.name])
        if x.name in ("INT_MAX", "UINT_MAX", "FLT_MAX", "procId"):
            # procId is allowed through so the vectorizer's env_free gate
            # (not this syntactic filter) is what rejects rank dependence
            return A.clone(x)
        raise _Bail(f"free identifier {x.name!r}")

    return _pure_map(e, leaf)


def _index_names(ix: A.BraceList) -> list[Optional[str]]:
    """The identifiers of an ``{i, j}`` index literal (``None`` for
    anything that is not a plain identifier)."""
    return [x.name if isinstance(x, A.Ident) else None for x in ix.items]


def _lift_elem_expr(expr: A.Expr, loop_vars: list[str]):
    """The body of an element loop as a kernel body: reads at the
    loop indices become element parameters ``__v<k>``, the loop
    variables ``__ix[d]``.  Returns ``(kexpr, srcs, scalars)`` — the
    arrays read and the outer scalars mentioned (they become lifted
    kernel arguments), each ``name -> ty of its first mention`` in
    first-appearance order, which is the kernel's parameter order."""
    srcs: dict[str, Optional[Type]] = {}
    scalars: dict[str, Optional[Type]] = {}

    def leaf(e: A.Expr) -> Optional[A.Expr]:
        if isinstance(e, A.Call) and _is_ident(e.func, "array_get_elem"):
            arr, ix = e.args if len(e.args) == 2 else (None, None)
            if not (isinstance(arr, A.Ident) and isinstance(ix, A.BraceList)):
                raise _Bail("get_elem outside the subset")
            if _index_names(ix) != loop_vars:
                raise _Bail("read is not at the loop indices")
            srcs.setdefault(arr.name, e.ty)
            k = list(srcs).index(arr.name)
            return A.Ident(f"__v{k}", line=e.line, ty=e.ty)
        if isinstance(e, A.Ident):
            if e.name == "procId":
                # outside a skeleton procId is an error; a discovered
                # kernel would make it a per-rank value — never rewrite
                raise _Bail("procId in an element loop")
            if e.name in loop_vars:
                d = A.IntLit(loop_vars.index(e.name), line=e.line, ty=INT)
                ix = A.Ident("__ix", line=e.line, ty=INDEX)
                return A.IndexExpr(ix, d, line=e.line, ty=INT)
            if e.name not in BUILTIN_VALUES:
                scalars.setdefault(e.name, e.ty)
            return A.clone(e)
        if isinstance(e, A.IndexExpr):
            raise _Bail("IndexExpr outside the subset")
        return None

    kexpr = _pure_map(expr, leaf)
    for name in srcs:
        scalars.pop(name, None)
    return kexpr, srcs, scalars


def _stmts_to_expr(stmts: list[A.Stmt], env: dict[str, A.Expr]) -> A.Expr:
    """A kernel body as one pure expression (mirrors the vectorizer's
    statement subset: local declarations, if/return chains, a return)."""
    env = dict(env)
    work = list(stmts)
    while work:
        s = work.pop(0)
        if isinstance(s, A.Block):
            work = list(s.stmts) + work
            continue
        if isinstance(s, A.VarDecl):
            if s.init is None:
                raise _Bail("uninitialised local")
            env[s.name] = _subst_expr(s.init, env)
            continue
        if isinstance(s, A.Return):
            if s.value is None:
                raise _Bail("void return")
            return _subst_expr(s.value, env)
        if isinstance(s, A.If):
            cond = _subst_expr(s.cond, env)
            then_e = _stmts_to_expr([s.then], env)
            else_stmts = [s.orelse] if s.orelse is not None else work
            if not else_stmts:
                raise _Bail("if without else falls off the end")
            else_e = _stmts_to_expr(list(else_stmts), env)
            return A.Cond(cond, then_e, else_e, line=s.line, ty=then_e.ty)
        raise _Bail(f"statement {type(s).__name__} outside the composable subset")
    raise _Bail("falls off the end without a return")


# ------------------------------------------------------- producer -> consumer
#: (producer, consumer) -> element parameters (producer's, consumer's) of
#: the composed kernel; copy→gen_mult composes nothing
_ROWS: dict[tuple[str, str], Optional[tuple[int, int]]] = {
    ("map", "map"): (1, 1), ("map", "zip"): (1, 2), ("map", "fold"): (1, 1),
    ("zip", "map"): (2, 1), ("create", "map"): (0, 1), ("copy", "gen_mult"): None,
}


def _producer_at(s: A.Stmt):
    """``(kind, kernel, sources, tmp, call)`` when *s* writes array
    *tmp* as a candidate producer."""
    c = _call_of(s, "array_map", "array_zip", "array_copy")
    if c is not None:
        name, args = c.func.name, c.args
        k = args[0] if name != "array_copy" and args else None
        srcs = args[1:-1] if k is not None else args[:-1]
        arity = {"array_map": 3, "array_zip": 4, "array_copy": 2}[name]
        if (
            len(args) == arity
            and (k is None or isinstance(k, KernelRef))
            and all(isinstance(x, A.Ident) for x in (*srcs, args[-1]))
            and args[-1].name not in {x.name for x in srcs}
        ):
            return name[len("array_"):], k, list(srcs), args[-1].name, c
        return None
    made = _create_call(s)
    if made is not None:
        tmp, c = made
        if len(c.args) >= 6 and isinstance(c.args[4], KernelRef):
            return "create", c.args[4], [], tmp, c
    return None


def _consumer_at(t: _Uses, s: A.Stmt, tmp: str, srcs: list[A.Ident]):
    """``(kind, call, kernel, slot, nested)`` for a call in *s* reading
    *tmp*: a map/zip/gen_mult that is *s*, or the first fold anywhere
    inside it (*nested* when that is not *s* itself)."""
    c = _call_of(s, "array_map", "array_zip")
    if c is not None and isinstance(c.args[0], KernelRef):
        if all(isinstance(x, A.Ident) for x in c.args[1:]):
            reads = [x.name for x in c.args[1:-1]]
            if reads.count(tmp) == 1 and c.args[-1].name != tmp:
                kind = c.func.name[len("array_"):]
                return kind, c, c.args[0], reads.index(tmp), False
    c = _call_of(s, "array_gen_mult")
    if c is not None and len(c.args) == 5:
        a, b, dst = c.args[0], c.args[1], c.args[4]
        if all(isinstance(x, A.Ident) for x in (a, b, dst)):
            pair = {x.name for x in srcs} | {tmp}
            if {a.name, b.name} == pair and dst.name not in pair:
                return "gen_mult", c, None, [a.name, b.name].index(tmp), False
    where = t.span(s)
    for at, fold in t.folds.get(tmp, ()):
        if at in where and isinstance(fold.args[0], KernelRef):
            return "fold", fold, fold.args[0], 0, at != where.start
    return None


# ------------------------------------------------------------------- the pass
class _Fuser:
    def __init__(self, prog: InstantiatedProgram, no_fuse_lines) -> None:
        self.prog = prog
        self.no_fuse = frozenset(int(x) for x in no_fuse_lines)
        self.report = FusionReport()
        self._n = 0
        self._pure: dict[str, bool] = {}

    # ------------------------------------------------------------ utilities
    def _fresh_name(self) -> str:
        while True:
            self._n += 1
            name = f"__fused_{self._n}"
            if name not in self.prog.instances and name not in self.prog.entries:
                return name

    def _kernel_is_pure(self, k: A.Expr) -> bool:
        """Whether the kernel's body is in the pure expression subset
        (so dropping its applications cannot lose error()/printf/put
        side effects)."""
        if not isinstance(k, KernelRef) or k.name not in self.prog.instances:
            return False
        if k.name not in self._pure:
            f = self.prog.instances[k.name].func
            env = {p.name: A.Ident(p.name, ty=p.ty) for p in f.params}
            try:
                _stmts_to_expr(list(f.body.stmts), env)
                self._pure[k.name] = True
            except _Bail:
                self._pure[k.name] = False
        return self._pure[k.name]

    def _legal(self, t: _Uses, tmp: str, users: int, lines: list[int], between=range(0),
               nested=False, reads: tuple[str, ...] = (), writes=frozenset()) -> bool:
        """The one legality question of every rewrite that drops array
        *tmp*.  *users* statements (producer and consumer) mention *tmp*
        once each; *between* are the positions from the producer's next
        sibling to the consumer's top-level statement — included when
        the consumer is *nested* in it; *reads* are the producer's
        sources, *writes* those plus the names its kernels capture;
        *lines* are the calls the rewrite changes."""
        made = t.created_once(tmp)
        if tmp in t.params or made is None:
            return False
        create, call = made
        destroys = t.destroys.get(tmp, [])
        if len(call.args) < 6 or not self._kernel_is_pure(call.args[4]):
            return False  # dropping tmp drops its init applications too
        own = isinstance(create, A.ExprStmt) + users + len(destroys)
        touched = {*lines, create.line, *(d.line for d in destroys)}
        return (
            len(t.mentions[tmp]) == own
            and t.count(tmp, between) == nested
            and not any(t.count(x, between) for x in reads)
            and not any(t.defined(x, between) for x in writes)
            and not touched & self.no_fuse
        )

    def _fixed_equal(self, t: _Uses, x: A.Expr, y: A.Expr) -> bool:
        """Whether *x* and *y* are the same expression over names that
        nothing in the function redefines."""
        return _pp(x) == _pp(y) and t.fixed(x)

    # --------------------------------------------------------- composition
    def _compose(self, producer: KernelRef, consumer: KernelRef, slot: int,
                 producer_elems: int, consumer_elems: int, extra_ignored_elem=False):
        """Compose producer-into-consumer; register the composed instance
        and return its call-site :class:`KernelRef`, or ``None`` when the
        pair is outside the composable subset or the composed kernel would
        lose fused-dispatch eligibility."""
        resolved = self.prog.checked.resolved
        funcs = []
        for k, elems in ((producer, producer_elems), (consumer, consumer_elems)):
            inst = self.prog.instances.get(k.name)
            if inst is None or inst.kernel_elems not in (None, elems):
                return None
            if len(inst.func.params) != len(k.bound) + elems + 1:
                return None
            funcs.append(inst.func)
        pf, cf = funcs
        ret_t, cons_ret = resolved(pf.ret), resolved(cf.ret)
        # dtype round-trip: the unfused program stores the producer's
        # value into the intermediate's dtype before the consumer reads
        # it back — only int64/float64 make that a bit-exact identity
        if not (isinstance(ret_t, TPrim) and ret_t.name in ("int", "double")):
            return None

        def rename(env, params, prefix, first=0) -> list[A.FuncParam]:
            """Parameters *params* as ``<prefix><first + i>``."""
            out = []
            for i, p in enumerate(params, first):
                env[p.name] = A.Ident(f"{prefix}{i}", ty=p.ty)
                out.append(A.FuncParam(f"{prefix}{i}", resolved(p.ty), line=p.line))
            return out

        env_p: dict[str, A.Expr] = {}
        env_c: dict[str, A.Expr] = {}
        pp, cp = pf.params, cf.params
        nb, cb = len(producer.bound), len(consumer.bound)
        bound = rename(env_p, pp[:nb], "__p") + rename(env_c, cp[:cb], "__c")
        elems: list[A.FuncParam] = []
        for s_i, p in enumerate(cp[cb:cb + consumer_elems]):
            if s_i == slot:
                elems += rename(env_p, pp[nb:nb + producer_elems], "__u")
                env_c[p.name] = A.Ident("__t0", ty=ret_t)
            else:
                elems += rename(env_c, [p], "__v", s_i)
        if extra_ignored_elem:
            # create∘map: the rewritten call is map(k, dst, dst); the
            # composed kernel takes (and ignores) dst's element value
            elems.append(A.FuncParam("__v0", cons_ret, line=cf.line))
        env_p[pp[-1].name] = A.Ident("__ix", ty=pp[-1].ty)
        env_c[cp[-1].name] = A.Ident("__ix", ty=cp[-1].ty)
        try:
            expr1 = _stmts_to_expr(list(pf.body.stmts), env_p)
            expr2 = _stmts_to_expr(list(cf.body.stmts), env_c)
        except _Bail:
            return None

        body = A.Block([A.VarDecl("__t0", ret_t, init=expr1, line=pf.body.line),
                        A.Return(expr2, line=cf.body.line)], line=cf.body.line)
        name = self._fresh_name()
        ix = A.FuncParam("__ix", resolved(cp[-1].ty))
        fdef = A.FuncDef(name, (*bound, *elems, ix), cons_ret, body, line=cf.line)
        source = f"{consumer.name}.{producer.name}"
        if not self._admit(Instance(name, source, fdef, (), kernel_elems=len(elems))):
            return None
        args = [*producer.bound, *consumer.bound]
        ops = _estimate_ops(fdef)
        return KernelRef(name, args, ops, line=consumer.line, ty=consumer.ty)

    def _admit(self, inst: Instance) -> bool:
        """The gate on a synthesized kernel: it must vectorize AND stay
        env-free, i.e. remain eligible for fused dispatch — else the
        "one big kernel" would run scalar and the rewrite would cost
        wall-clock instead of saving rounds.  Registers it when it does."""
        vec = try_vectorize(inst, self.prog.checked.resolved)
        if vec is None or not vec[1]:
            return False
        self.prog.instances[inst.name] = inst
        return True

    # ----------------------------------------------- producer -> consumer
    def _pairs(self, t: _Uses, kinds: tuple[str, ...]) -> bool:
        """Apply the first legal row whose producer is one of *kinds*."""
        for block in t.blocks:
            for i, s in enumerate(block.stmts):
                prod = _producer_at(s)
                if prod and prod[0] in kinds and self._try_pair(t, block, i, prod):
                    return True
        return False

    def _try_pair(self, t: _Uses, block: A.Block, i: int, prod) -> bool:
        pkind, k1, srcs, tmp, pcall = prod
        # the consumer sits in the first later sibling that mentions tmp
        later = range(t.span(block.stmts[i]).stop, t.span(block).stop)
        first = min((k for k in t.mentions[tmp] if k in later), default=None)
        if first is None:
            return False
        last = next(t.span(x) for x in block.stmts[i + 1:] if first in t.span(x))
        found = _consumer_at(t, t.stmts[last.start], tmp, srcs)
        if found is None or (pkind, found[0]) not in _ROWS:
            return False
        ckind, qcall, k2, slot, nested = found
        between = range(later.start, last.stop if nested else last.start)
        reads = tuple(x.name for x in srcs)
        writes = {*reads, *(n for k in (k1, k2) if k for b in k.bound for n in _idents(b))}
        users = 1 if pkind == "create" else 2
        lines = [pcall.line, qcall.line]
        if not self._legal(t, tmp, users, lines, between, nested, reads, writes):
            return False

        if pkind == "copy":
            qcall.func = replace(qcall.func, name="array_gen_mult_square")
            qcall.args = [qcall.args[1 - slot], *qcall.args[2:]]
            t.remove(block.stmts[i])
            detail = f"copy+gen_mult over {tmp!r} -> array_gen_mult_square"
            self.report.add("square", qcall.line, detail, 1)
            return True  # tmp is now only created/destroyed: a dead array

        if pkind == "create":
            # the consumer's dst must be shaped like the eliminated array
            # would have been, else the fused program would skip a runtime
            # shape check the unfused one performs on valid inputs
            made = t.created_once(qcall.args[2].name)
            if made is None or not all(
                ai < len(pcall.args) and ai < len(made[1].args)
                and self._fixed_equal(t, pcall.args[ai], made[1].args[ai])
                for ai in (0, 1, 2, 3, 5)
            ):
                return False
        p_elems, c_elems = _ROWS[pkind, ckind]
        composed = self._compose(k1, k2, slot, p_elems, c_elems, pkind == "create")
        if composed is None:
            return False

        # ---- rewrite the consumer call site ----------------------------
        if pkind == "zip":
            qcall.func = replace(qcall.func, name="array_zip")
            qcall.args = [composed, *srcs, qcall.args[2]]
        elif pkind == "create":
            dst = qcall.args[2]
            qcall.args = [composed, A.clone(dst), dst]
        else:
            qcall.args[0] = composed
            qcall.args[2 if ckind == "fold" else 1 + slot] = srcs[0]

        # ---- delete the producer round and the intermediate array ------
        doomed = [t.created_once(tmp)[0], *t.destroys[tmp]]
        if pkind != "create":
            doomed.append(block.stmts[i])
        for s in doomed:
            t.remove(s)
        detail = f"{k1.name}∘{k2.name} eliminates {tmp!r} ({len(doomed)} rounds)"
        self.report.add(f"fuse:{pkind}.{ckind}", qcall.line, detail, len(doomed))
        return True

    def _dead_array(self, t: _Uses) -> bool:
        """Remove the first array that is only created and destroyed."""
        for s in t.stmts:
            made = _create_call(s)
            if made is None or not self._legal(t, made[0], 0, []):
                continue
            doomed = [s, *t.destroys[made[0]]]
            for d in doomed:
                t.remove(d)
            detail = f"{made[0]!r} is only created/destroyed — removed"
            self.report.add("dead-array", made[1].line, detail, len(doomed))
            return True
        return False

    # ------------------------------------------------------- discovery
    def _counter(self, t: _Uses, s: A.For):
        """``(var, bound, body_stmts)`` when *s* counts a variable from
        0 up to a bound by 1: the variable defined only by the header and
        dead after the loop, the bound defined nowhere in the function."""
        b, c = _binding(s.init), s.cond
        if b is None or not (_is_int(b[1], 0) and isinstance(c, A.BinOp)):
            return None
        var, _, init_def = b
        if not (c.op == "<" and _is_ident(c.left, var) and _adds_one(s.step, var)):
            return None
        defs, loop = {id(d) for _, d in t.defs[var]}, t.span(s)
        if defs != {id(init_def), id(s.step)} or not t.fixed(c.right):
            return None
        if not all(k in loop for k in t.mentions[var]):
            return None
        body = s.body
        stmts = list(body.stmts) if isinstance(body, A.Block) else [body]
        while len(stmts) == 1 and isinstance(stmts[0], A.Block):
            stmts = list(stmts[0].stmts)
        return var, c.right, stmts

    def _dst_size_matches(self, t: _Uses, dst: str, bounds) -> bool:
        made = t.created_once(dst)
        if made is None or len(made[1].args) < 6:
            return False
        dim, size = made[1].args[:2]
        return (
            _is_int(dim, len(bounds))
            and isinstance(size, A.BraceList)
            and len(size.items) == len(bounds)
            and all(self._fixed_equal(t, b, sz) for b, sz in zip(bounds, size.items))
        )

    def _synth_kernel(self, s: A.For, ty: Optional[Type], kexpr, srcs, scalars):
        """Gate + register the kernel discovered in loop *s* and return
        its call-site reference.  Parameters: the lifted scalars, one
        element value per array read (an ignored one when the loop reads
        none), the index; *ty* is the element expression's type."""
        resolved = self.prog.checked.resolved
        elem_tys = list(srcs.values()) or [ty]
        if ty is None or None in elem_tys or None in scalars.values():
            return None  # an untyped mention: no type to declare it with
        params = [A.FuncParam(sc, resolved(t), line=s.line) for sc, t in scalars.items()]
        for k, t in enumerate(elem_tys):
            params.append(A.FuncParam(f"__v{k}", resolved(t), line=s.line))
        params.append(A.FuncParam("__ix", INDEX, line=s.line))
        name = self._fresh_name()
        body = A.Block([A.Return(kexpr, line=s.line)], line=s.line)
        fdef = A.FuncDef(name, tuple(params), resolved(ty), body, line=s.line)
        if not self._admit(Instance(name, name, fdef, (), kernel_elems=len(elem_tys))):
            return None
        bound = [A.Ident(sc, line=s.line) for sc in scalars]
        return KernelRef(name, bound, _estimate_ops(fdef), line=s.line, ty=ty)

    def _discover(self, t: _Uses) -> bool:
        for block in t.blocks:
            for idx, s in enumerate(block.stmts):
                if isinstance(s, A.For) and s.line not in self.no_fuse:
                    m = self._counter(t, s)
                    if m is not None and (
                        self._discover_map(t, block, idx, s, *m)
                        or self._discover_fold(t, block, idx, s, *m)
                    ):
                        return True
        return False

    def _discover_map(self, t: _Uses, block, idx, s: A.For, var, bound, stmts) -> bool:
        loop_vars, bounds = [var], [bound]
        if len(stmts) == 1 and isinstance(stmts[0], A.For):
            m2 = self._counter(t, stmts[0])
            if m2 is None:
                return False
            var2, bound2, stmts = m2
            loop_vars, bounds = [var, var2], [bound, bound2]
        put = _call_of(stmts[0], "array_put_elem") if len(stmts) == 1 else None
        if put is None or len(put.args) != 3 or put.line in self.no_fuse:
            return False
        dst, ixl, expr = put.args
        if not (isinstance(ixl, A.BraceList) and _index_names(ixl) == loop_vars):
            return False
        if not isinstance(dst, A.Ident):
            return False
        try:
            kexpr, srcs, scalars = _lift_elem_expr(expr, loop_vars)
        except _Bail:
            return False
        if len(srcs) > 2 or not self._dst_size_matches(t, dst.name, bounds):
            return False
        kref = self._synth_kernel(s, expr.ty, kexpr, srcs, scalars)
        if kref is None:
            return False
        # a loop that reads no array maps dst onto itself (value ignored)
        read = [A.Ident(n, line=s.line) for n in srcs] or [A.clone(dst)]
        kind = "zip" if len(srcs) == 2 else "map"
        fn = A.Ident(f"array_{kind}", line=s.line)
        call = A.Call(fn, [kref, *read, A.clone(dst)], line=s.line)
        block.stmts[idx] = A.ExprStmt(call, line=s.line)
        detail = f"element loop over {dst.name!r} -> {call.func.name}"
        self.report.add(f"discover:{kind}", s.line, detail)
        return True

    def _discover_fold(self, t: _Uses, block, idx, s: A.For, var, bound, stmts) -> bool:
        st = stmts[0] if len(stmts) == 1 else None
        asg = st.expr if isinstance(st, A.ExprStmt) else None
        if not (isinstance(asg, A.Assign) and isinstance(asg.target, A.Ident)):
            return False
        acc, v = asg.target.name, asg.value
        if asg.op == "+=":
            comb, rhs = "+", v
        elif asg.op != "=":
            return False
        elif isinstance(v, A.BinOp) and v.op == "+":
            comb, rhs = "+", _other(acc, v.left, v.right)
        elif isinstance(v, A.Call) and isinstance(v.func, A.Ident) and len(v.args) == 2:
            if v.func.name not in ("min", "max"):
                return False
            comb, rhs = v.func.name, _other(acc, *v.args)
        else:
            return False
        if rhs is None or acc == var or asg.line in self.no_fuse:
            return False
        # exact associativity+commutativity needs integer arithmetic
        for ty in (asg.target.ty, rhs.ty):
            ty = None if ty is None else self.prog.checked.resolved(ty)
            if not (isinstance(ty, TPrim) and ty.name in ("int", "unsigned")):
                return False
        try:
            kexpr, srcs, scalars = _lift_elem_expr(rhs, [var])
        except _Bail:
            return False
        if len(srcs) != 1 or acc in scalars:
            return False
        (src,) = srcs
        if not self._dst_size_matches(t, src, [bound]):
            return False
        kref = self._synth_kernel(s, rhs.ty, kexpr, srcs, scalars)
        if kref is None:
            return False
        line, ty = s.line, asg.target.ty
        args = [kref, SectionRef(comb, line=line), A.Ident(src, line=line)]
        folded = A.Call(A.Ident("array_fold", line=line), args, line=line, ty=ty)
        if comb != "+":
            args = [A.clone(asg.target), folded]
            folded = A.Call(A.Ident(comb, line=line), args, line=line, ty=ty)
        op = "+=" if comb == "+" else "="
        new = A.Assign(A.clone(asg.target), folded, op, line=line)
        block.stmts[idx] = A.ExprStmt(new, line=line)
        detail = f"reduction loop over {src!r} -> array_fold({comb})"
        self.report.add("discover:fold", line, detail)
        return True

    # ------------------------------------------------------- init elision
    #: skeletons that overwrite all of their last argument -> the
    #: arguments they read
    _OVERWRITERS = {
        "array_copy": (0,), "array_map": (1,), "array_zip": (1, 2), "array_scan": (1,),
    }

    def _init_state(self, t: _Uses, stmts, name: str) -> str:
        """Abstract state of *name*'s initial values over *stmts*:
        ``OVER`` = definitely fully overwritten before any read,
        ``LIVE`` = (possibly) read, ``CLEAN`` = untouched so far."""
        for s in stmts:
            if isinstance(s, A.Block):
                state = self._init_state(t, s.stmts, name)
            elif isinstance(s, (A.If, A.While, A.For)):
                inner = s.then if isinstance(s, A.If) else s.body
                # the header: an if's or while's condition, a for's init,
                # condition and step
                if t.count(name, range(t.pos[id(s)], t.pos[id(inner)])):
                    return "LIVE"
                if isinstance(s, A.If):
                    states = {self._init_state(t, [b] if b else [], name)
                              for b in (s.then, s.orelse)}
                    # maybe-overwritten counts as CLEAN: a later read bails
                    state = "LIVE" if "LIVE" in states else "CLEAN"
                    state = "OVER" if states == {"OVER"} else state
                else:
                    # the loop may run zero times, so OVER does not
                    # propagate out; but its body provably never reads
                    body = self._init_state(t, [s.body], name)
                    state = "LIVE" if body == "LIVE" else "CLEAN"
            else:
                state = self._init_leaf(t, s, name)
            if state != "CLEAN":
                return state
        return "CLEAN"

    def _init_leaf(self, t: _Uses, s: A.Stmt, name: str) -> str:
        mentions = t.count(name, t.span(s))
        if not mentions or _call_of(s, "array_destroy") is not None:
            return "CLEAN"
        c = _call_of(s, *self._OVERWRITERS)
        if c is None or len(c.args) != _WRITES[c.func.name] + 1:
            return "LIVE"
        reads = [c.args[k] for k in self._OVERWRITERS[c.func.name]]
        if not _is_ident(c.args[-1], name) or any(_is_ident(x, name) for x in reads):
            return "LIVE"
        return "OVER" if mentions == 1 else "LIVE"

    def _elide_inits(self, t: _Uses, f: A.FuncDef) -> None:
        body = f.body.stmts
        for pos, st in enumerate(body):
            made = _create_call(st)
            if made is None:
                continue
            name, call = made
            if (
                name in t.params or call.line in self.no_fuse or len(call.args) < 6
                or not self._kernel_is_pure(call.args[4])
                or t.created_once(name) is None or t.creates[name][0] is not st
                or self._init_state(t, body[pos + 1:], name) == "LIVE"
            ):
                continue
            call.func = replace(call.func, name="array_create_uninit")
            del call.args[4]
            detail = f"init of {name!r} is dead -> array_create_uninit"
            self.report.add("uninit", call.line, detail, 1)

    # ------------------------------------------------------------ driver
    def fuse_function(self, f: A.FuncDef) -> None:
        t = _Uses(f)
        if not t.skeletal:
            return
        # skeleton-skeleton pairs before creates: fusing create∘map early
        # would turn map(k, t, dst) into map(k', dst, dst), whose aliased
        # operands can no longer act as a producer for the next map
        steps = (
            self._discover,
            lambda t: self._pairs(t, ("map", "zip")) or self._pairs(t, ("create",)),
            lambda t: self._pairs(t, ("copy",)),
            self._dead_array,
        )
        for _ in range(200):
            changed = False
            for step in steps:
                if step(t):
                    t = _Uses(f)
                    changed = True
            if not changed:
                break
        # rewriting creates leaves positions and mentions of the
        # statements after them as they were: the table stays valid
        self._elide_inits(t, f)


def fuse_program(prog: InstantiatedProgram, no_fuse_lines=()) -> FusionReport:
    """Run skeleton discovery & fusion over *prog* in place."""
    fz = _Fuser(prog, no_fuse_lines)
    for f in list(prog.entries.values()):
        fz.fuse_function(f)
    for inst in list(prog.instances.values()):
        # plain monomorphic helpers can contain skeleton calls too;
        # kernels simply have nothing to rewrite
        fz.fuse_function(inst.func)
    return fz.report
