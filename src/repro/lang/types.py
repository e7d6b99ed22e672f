"""Skil's polymorphic type system.

Types are C types extended with type variables (``$t``) and *pardata*
types (``array<$t>``).  Function types are kept uncurried internally
(parameter list + result) but **application is curried**: supplying the
first *k* arguments of an *n*-ary function yields a function over the
remaining ``n - k`` parameters — the semantics Section 2.1 introduces
for partial application.

Unification is standard first-order unification with an occurs check;
one Skil-specific restriction is enforced here: "type variables
appearing as components of other data types may not be instantiated
with types introduced by the pardata construct", and pardata type
arguments may not be pardatas themselves (no nesting).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SkilTypeError

__all__ = [
    "Type",
    "TPrim",
    "TVar",
    "TFun",
    "TPointer",
    "TArray",
    "TStruct",
    "TPardata",
    "INT",
    "UNSIGNED",
    "FLOAT",
    "DOUBLE",
    "CHAR",
    "VOID",
    "INDEX",
    "SIZE",
    "BOUNDS",
    "STRING",
    "Subst",
    "fresh_var",
    "free_vars",
    "contains_pardata",
]


class Type:
    """Base class; concrete types below are immutable value objects.

    A compound type states its structure once, as :meth:`parts` and
    :meth:`map`; every structural recursion below (and the parser's
    typedef expansion) is written against those two.
    """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return self.show()

    def show(self) -> str:
        raise NotImplementedError

    def parts(self) -> tuple["Type", ...]:
        """The component types, in order (none for a prim or a variable)."""
        return ()

    def map(self, fn: Callable[["Type"], "Type"]) -> "Type":
        """This type with every component ``c`` replaced by ``fn(c)``."""
        return self


@dataclass(frozen=True)
class TPrim(Type):
    name: str

    def show(self) -> str:
        return self.name


@dataclass(frozen=True)
class TVar(Type):
    name: str  # includes the leading '$'

    def show(self) -> str:
        return self.name


@dataclass(frozen=True)
class TFun(Type):
    params: tuple[Type, ...]
    ret: Type

    def show(self) -> str:
        ps = ", ".join(p.show() for p in self.params)
        return f"({ps}) -> {self.ret.show()}"

    def parts(self) -> tuple[Type, ...]:
        return (*self.params, self.ret)

    def map(self, fn) -> Type:
        return TFun(tuple(fn(p) for p in self.params), fn(self.ret))


@dataclass(frozen=True)
class TPointer(Type):
    target: Type

    def show(self) -> str:
        return f"{self.target.show()}*"

    def parts(self) -> tuple[Type, ...]:
        return (self.target,)

    def map(self, fn) -> Type:
        return TPointer(fn(self.target))


@dataclass(frozen=True)
class TArray(Type):
    """A classical C array (not the distributed pardata array)."""

    elem: Type
    size: int | None = None

    def show(self) -> str:
        sz = "" if self.size is None else str(self.size)
        return f"{self.elem.show()}[{sz}]"

    def parts(self) -> tuple[Type, ...]:
        return (self.elem,)

    def map(self, fn) -> Type:
        return TArray(fn(self.elem), self.size)


@dataclass(frozen=True)
class TStruct(Type):
    name: str
    fields: tuple[tuple[str, Type], ...] = ()

    def show(self) -> str:
        return f"struct {self.name}"

    def parts(self) -> tuple[Type, ...]:
        return tuple(t for _, t in self.fields)

    def map(self, fn) -> Type:
        return TStruct(self.name, tuple((f, fn(t)) for f, t in self.fields))

    def field_type(self, fname: str) -> Type:
        for f, t in self.fields:
            if f == fname:
                return t
        raise SkilTypeError(f"struct {self.name} has no field {fname!r}")


@dataclass(frozen=True)
class TPardata(Type):
    name: str
    args: tuple[Type, ...] = ()

    def show(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}<{', '.join(a.show() for a in self.args)}>"

    def parts(self) -> tuple[Type, ...]:
        return self.args

    def map(self, fn) -> Type:
        return TPardata(self.name, tuple(fn(a) for a in self.args))


INT = TPrim("int")
UNSIGNED = TPrim("unsigned")
FLOAT = TPrim("float")
DOUBLE = TPrim("double")
CHAR = TPrim("char")
VOID = TPrim("void")
STRING = TPrim("string")  # literals passed to error()
#: opaque builtins — "the types Index and Size are 'classical' arrays
#: with dim elements"; Bounds is the struct array_part_bounds returns
INDEX = TPrim("Index")
SIZE = TPrim("Size")
BOUNDS = TPrim("Bounds")

#: primitive types usable in arithmetic, and their joins
_NUMERIC = {INT.name, UNSIGNED.name, FLOAT.name, DOUBLE.name, CHAR.name}
_RANK = {CHAR.name: 0, INT.name: 1, UNSIGNED.name: 2, FLOAT.name: 3, DOUBLE.name: 4}

_fresh_counter = itertools.count()


def fresh_var(stem: str = "t") -> TVar:
    return TVar(f"${stem}%{next(_fresh_counter)}")


def is_numeric(t: Type) -> bool:
    return isinstance(t, TPrim) and t.name in _NUMERIC


def numeric_join(a: TPrim, b: TPrim) -> TPrim:
    return a if _RANK[a.name] >= _RANK[b.name] else b


def free_vars(t: Type, out: set[str] | None = None) -> set[str]:
    if out is None:
        out = set()
    if isinstance(t, TVar):
        out.add(t.name)
    for part in t.parts():
        free_vars(part, out)
    return out


def contains_pardata(t: Type) -> bool:
    return isinstance(t, TPardata) or any(contains_pardata(p) for p in t.parts())


@dataclass
class Subst:
    """A substitution: type-variable name -> type, with path resolution."""

    map: dict[str, Type] = field(default_factory=dict)

    # ------------------------------------------------------------------ core
    def resolve(self, t: Type) -> Type:
        """Follow variable bindings one level (cheap shallow walk)."""
        while isinstance(t, TVar) and t.name in self.map:
            t = self.map[t.name]
        return t

    def apply(self, t: Type) -> Type:
        """Deep application of the substitution."""
        return self.resolve(t).map(self.apply)

    def _occurs(self, name: str, t: Type) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.name == name
        return any(self._occurs(name, p) for p in t.parts())

    def bind(self, var: TVar, t: Type, inside_compound: bool = False) -> None:
        t = self.resolve(t)
        if isinstance(t, TVar) and t.name == var.name:
            return
        if self._occurs(var.name, t):
            raise SkilTypeError(
                f"infinite type: {var.show()} occurs in {self.apply(t).show()}"
            )
        if inside_compound and contains_pardata(self.apply(t)):
            raise SkilTypeError(
                "type variables appearing as components of other data types "
                f"may not be instantiated with pardata types (got "
                f"{self.apply(t).show()})"
            )
        self.map[var.name] = t

    # ------------------------------------------------------------------ unify
    def unify(self, a: Type, b: Type, inside_compound: bool = False) -> None:
        """Make *a* and *b* equal under this substitution (or raise)."""
        a = self.resolve(a)
        b = self.resolve(b)
        if isinstance(a, TVar):
            self.bind(a, b, inside_compound)
            return
        if isinstance(b, TVar):
            self.bind(b, a, inside_compound)
            return
        if isinstance(a, TPrim) and isinstance(b, TPrim):
            if a.name == b.name:
                return
            # numeric primitives unify with the usual C conversions — but
            # only in direct value positions; inside compound types (the
            # element type of an array, a function's parameter) the match
            # must be exact, so array<int> never unifies with array<float>
            if not inside_compound and is_numeric(a) and is_numeric(b):
                return
            # Index and Size are both "classical arrays with dim elements"
            if {a.name, b.name} == {"Index", "Size"}:
                return
            raise SkilTypeError(f"cannot unify {a.show()} with {b.show()}")
        if isinstance(a, TFun) and isinstance(b, TFun):
            if len(a.params) != len(b.params):
                raise SkilTypeError(
                    f"arity mismatch: {self.apply(a).show()} vs {self.apply(b).show()}"
                )
            for pa, pb in zip(a.params, b.params):
                self.unify(pa, pb, inside_compound=True)
            self.unify(a.ret, b.ret, inside_compound=True)
            return
        if isinstance(a, TPointer) and isinstance(b, TPointer):
            self.unify(a.target, b.target, inside_compound=True)
            return
        if isinstance(a, TArray) and isinstance(b, TArray):
            if a.size is not None and b.size is not None and a.size != b.size:
                raise SkilTypeError(
                    f"array sizes differ: {a.show()} vs {b.show()}"
                )
            self.unify(a.elem, b.elem, inside_compound=True)
            return
        if isinstance(a, TStruct) and isinstance(b, TStruct):
            if a.name != b.name:
                raise SkilTypeError(
                    f"cannot unify struct {a.name} with struct {b.name}"
                )
            return
        if isinstance(a, TPardata) and isinstance(b, TPardata):
            if a.name != b.name or len(a.args) != len(b.args):
                raise SkilTypeError(
                    f"cannot unify {a.show()} with {b.show()}"
                )
            for xa, xb in zip(a.args, b.args):
                # pardata arguments are components of a compound type
                self.unify(xa, xb, inside_compound=True)
                if contains_pardata(self.apply(xa)):
                    raise SkilTypeError(
                        "distributed data structures may not be nested"
                    )
            return
        raise SkilTypeError(
            f"cannot unify {self.apply(a).show()} with {self.apply(b).show()}"
        )

    def instantiate(self, t: Type) -> Type:
        """Replace the (generalized) type variables of *t* by fresh ones."""
        mapping: dict[str, TVar] = {}

        def walk(u: Type) -> Type:
            u = self.resolve(u)
            if isinstance(u, TVar):
                if u.name not in mapping:
                    mapping[u.name] = fresh_var(u.name.lstrip("$").split("%")[0])
                return mapping[u.name]
            return u.map(walk)

        return walk(t)
