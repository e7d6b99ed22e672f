"""Abstract syntax tree of the Skil subset.

Nodes carry a ``ty`` slot filled in by the type checker and used by the
instantiation pass and the code generator.

The child structure of a node is its dataclass fields: the *traversal
kit* at the end of this module (:func:`children`, :func:`walk`,
:func:`map_children`, :func:`rebuild`, :func:`clone`) reads it from the
field annotations, so a pass states only the node types it cares about
and a new node field is seen by every pass the day it is declared.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, Optional, get_args, get_type_hints

from repro.lang.types import Type

__all__ = [
    "Node",
    "Expr",
    "Stmt",
    "Program",
    "TypedefDecl",
    "StructDecl",
    "PardataHeader",
    "FuncParam",
    "FuncDecl",
    "FuncDef",
    "VarDecl",
    "Block",
    "If",
    "While",
    "For",
    "Return",
    "ExprStmt",
    "IntLit",
    "FloatLit",
    "StringLit",
    "CharLit",
    "Ident",
    "Call",
    "BinOp",
    "UnOp",
    "Assign",
    "IndexExpr",
    "Member",
    "Cond",
    "OperatorSection",
    "BraceList",
    "Cast",
    "children",
    "walk",
    "map_children",
    "rebuild",
    "clone",
]


@dataclass
class Node:
    line: int = field(default=0, kw_only=True)


# --------------------------------------------------------------------------- types
@dataclass
class Expr(Node):
    ty: Optional[Type] = field(default=None, kw_only=True)


@dataclass
class Stmt(Node):
    pass


# --------------------------------------------------------------------------- decls
@dataclass
class TypedefDecl(Node):
    name: str
    type_params: tuple[str, ...]
    target: Type


@dataclass
class StructDecl(Node):
    name: str
    type_params: tuple[str, ...]
    fields: tuple[tuple[str, Type], ...]


@dataclass
class PardataHeader(Node):
    """``pardata name <$t1,...> [implem] ;`` — implementation hidden."""

    name: str
    type_params: tuple[str, ...]
    has_implem: bool = False


@dataclass
class FuncParam(Node):
    name: str
    ty: Type


@dataclass
class FuncDecl(Node):
    """Prototype — used for externals (host-supplied functions)."""

    name: str
    params: tuple[FuncParam, ...]
    ret: Type


@dataclass
class FuncDef(Node):
    name: str
    params: tuple[FuncParam, ...]
    ret: Type
    body: Block


@dataclass
class Program(Node):
    decls: list[Node] = field(default_factory=list)

    def functions(self) -> dict[str, FuncDef]:
        return {d.name: d for d in self.decls if isinstance(d, FuncDef)}


# --------------------------------------------------------------------------- stmts
@dataclass
class VarDecl(Stmt):
    name: str
    ty: Type
    init: Optional[Expr] = None


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class For(Stmt):
    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Expr]
    body: Stmt


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


# --------------------------------------------------------------------------- exprs
@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class CharLit(Expr):
    value: str = "\0"


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Call(Expr):
    func: Expr = None  # type: ignore[assignment]
    args: list[Expr] = field(default_factory=list)
    #: filled by the checker: True when fewer arguments than parameters
    #: were supplied and the call is a partial application
    partial: bool = False


@dataclass
class BinOp(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnOp(Expr):
    op: str = ""
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Assign(Expr):
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]
    op: str = "="  # =, +=, -=, ...


@dataclass
class IndexExpr(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    base: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False  # True for '->'


@dataclass
class Cond(Expr):
    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    orelse: Expr = None  # type: ignore[assignment]


@dataclass
class OperatorSection(Expr):
    """``(+)``, ``(*)`` ... — an operator converted to a function."""

    op: str = ""


@dataclass
class BraceList(Expr):
    """``{a, b}`` — the paper's pseudo-code Index/Size literal."""

    items: list[Expr] = field(default_factory=list)


@dataclass
class Cast(Expr):
    target: Type = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


# --------------------------------------------------------------------------- kit
def _holds_nodes(hint) -> bool:
    """Whether a field annotated *hint* can hold a node (``Expr``,
    ``Optional[Stmt]``) or a sequence of nodes (``list[Expr]``,
    ``tuple[FuncParam, ...]``)."""
    if isinstance(hint, type):
        return issubclass(hint, Node)
    return any(_holds_nodes(a) for a in get_args(hint))


@functools.cache
def _child_fields(cls: type) -> tuple[str, ...]:
    """The node-capable fields of *cls* in declaration order.  Only
    these are ever probed: ``line``, ``ty``, ``op``, ``name`` ... hold
    no nodes, and looking at them costs every pass about a third."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if _holds_nodes(hints[f.name]))


def children(node: Node) -> list[Node]:
    """The direct sub-nodes of *node*, in field declaration order."""
    out: list[Node] = []
    for name in _child_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            out.append(v)
        elif v:
            out.extend(v)
    return out


def walk(node: Node, only: type = Node) -> Iterator[Node]:
    """*node* and its descendants, pre-order in field order.  Sub-nodes
    that are not an *only* are neither yielded nor entered, so
    ``walk(body, Stmt)`` visits the statements and no expression."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        kids = children(n)
        if only is not Node:
            kids = [c for c in kids if isinstance(c, only)]
        stack.extend(reversed(kids))


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """Replace every direct sub-node ``c`` of *node* by ``fn(c)``, in
    place and in field order; returns *node*."""
    for name in _child_fields(type(node)):
        v = getattr(node, name)
        if isinstance(v, Node):
            setattr(node, name, fn(v))
        elif v is not None:
            setattr(node, name, type(v)(fn(c) for c in v))
    return node


def rebuild(node: Node, fn: Callable[[Node], Node]) -> Node:
    """A new node like *node* whose sub-nodes are ``fn`` of the old
    ones; *node* is left alone.  Types are frozen and stay shared."""
    new = object.__new__(type(node))
    new.__dict__.update(node.__dict__)
    return map_children(new, fn)


def clone(node: Node) -> Node:
    """Structural copy: equal to *node*, sharing no node object."""
    return rebuild(node, clone)
