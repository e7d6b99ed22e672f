"""The traversal kit of ``repro.lang.ast`` and ``Type.parts`` / ``Type.map``.

Every generic pass of ``lang/`` (finalize, instantiation's call rewrite,
the op estimate, all of the fusion pass's queries and copies) is the
kit plus a few cases, so what is held here is held for all of them: the
kit sees every node of real programs exactly once, in the shape the
passes rely on, and cannot half-visit a node type added later.
"""

import dataclasses
import re

import pytest

from repro.lang import ast as A
from repro.lang import check, instantiate_program, parse
from repro.lang.fusion import fuse_program
from repro.lang.instantiate import KernelRef, SectionRef
from repro.lang.types import (
    INT,
    TArray,
    TFun,
    TPardata,
    TPointer,
    TStruct,
    TVar,
    free_vars,
)
from tests.lang import skil_corpus


def _all_node_classes(cls=A.Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_node_classes(sub)


def _nodes_by_value(node):
    """An independent traversal: probe every field's *value*."""
    yield node
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        for item in v if isinstance(v, (list, tuple)) else [v]:
            if isinstance(item, A.Node):
                yield from _nodes_by_value(item)


@pytest.fixture(scope="module")
def functions():
    """Every function of the corpus: as parsed+checked, as instantiated
    and as fused (so KernelRef / SectionRef and synthesized kernels occur)."""
    out = []
    for name, src in skil_corpus().items():
        checked = check(parse(src))
        out += [(f"{name}:{f.name}", f) for f in checked.functions.values()]
        for fused in (False, True):
            prog = instantiate_program(check(parse(src)))
            if fused:
                fuse_program(prog)
            out += [(f"{name}:{f.name}:{fused}", f) for f in prog.all_functions()]
    return out


class TestOverTheCorpus:
    def test_corpus_has_the_instantiation_only_nodes(self, functions):
        kinds = {type(n) for _, f in functions for n in A.walk(f)}
        assert {KernelRef, SectionRef, A.Cond, A.For, A.Member, A.BraceList} <= kinds

    def test_walk_yields_every_node_once_in_preorder(self, functions):
        for name, f in functions:
            got = list(A.walk(f))
            assert len({id(n) for n in got}) == len(got), name
            assert [id(n) for n in got] == [id(n) for n in _nodes_by_value(f)], name

    def test_walk_only_stmt_is_exactly_the_statements(self, functions):
        for name, f in functions:
            stmts = list(A.walk(f.body, A.Stmt))
            assert all(isinstance(s, A.Stmt) for s in stmts), name
            assert [id(s) for s in stmts] == [
                id(n) for n in A.walk(f.body) if isinstance(n, A.Stmt)
            ], name

    def test_clone_is_equal_and_shares_no_node(self, functions):
        for name, f in functions:
            g = A.clone(f)
            assert g == f, name
            assert not {id(n) for n in A.walk(f)} & {id(n) for n in A.walk(g)}, name

    def test_rebuild_leaves_the_original_alone(self, functions):
        for name, f in functions:
            before = A.clone(f.body)
            new = A.rebuild(f.body, A.clone)
            assert new == before and f.body == before and new is not f.body, name

    def test_map_children_rewrites_in_place_in_field_order(self):
        e = A.Cond(A.Ident("c"), A.Ident("t"), A.Ident("o"))
        seen = []

        def fn(child):
            seen.append(child.name)
            return A.IntLit(len(seen))

        assert A.map_children(e, fn) is e
        assert seen == ["c", "t", "o"]
        assert (e.cond.value, e.then.value, e.orelse.value) == (1, 2, 3)


class TestNoNodeTypeIsHalfVisited:
    NODE_NAMES = {c.__name__ for c in _all_node_classes()} | {"Node"}

    @pytest.mark.parametrize("cls", sorted(_all_node_classes(), key=lambda c: c.__name__))
    def test_every_field_annotated_to_hold_nodes_is_a_child(self, cls):
        """Found from the annotation *text*, not the way the kit finds
        it — so a new node type, or a new field, cannot be missed by
        every pass at once without this failing."""
        for f in dataclasses.fields(cls):
            if not set(re.findall(r"\w+", str(f.type))) & self.NODE_NAMES:
                continue
            node = object.__new__(cls)
            for other in dataclasses.fields(cls):
                setattr(node, other.name, None)
            sentinel = A.Ident("sentinel")
            many = re.match(r"(list|tuple)\b", str(f.type))
            setattr(node, f.name, [sentinel] if many else sentinel)
            assert [id(c) for c in A.children(node)] == [id(sentinel)], f.name

    def test_the_fields_that_hold_no_node_are_never_probed(self):
        assert A.children(A.BinOp("+", A.Ident("a"), A.Ident("b"), ty=INT)) == [
            A.Ident("a"), A.Ident("b"),
        ]
        assert A.children(A.FuncParam("x", INT)) == []
        assert A.children(A.Cast(INT, A.Ident("a"))) == [A.Ident("a")]


class TestTypeStructure:
    NESTED = TFun(
        (
            TPardata("array", (TVar("$t"),)),
            TFun((TVar("$t"), TPointer(TArray(TVar("$u"), 4))), TVar("$r")),
            TStruct("s", (("x", INT), ("y", TVar("$f")))),
        ),
        TPardata("array", (TVar("$r"),)),
    )

    def _leaves(self, t):
        parts = t.parts()
        return [t] if not parts else [x for p in parts for x in self._leaves(p)]

    def test_identity_map_is_equal(self):
        def ident(t):
            return t.map(ident)

        assert ident(self.NESTED) == self.NESTED
        assert INT.map(ident) is INT and TVar("$t").parts() == ()

    def test_parts_agrees_with_free_vars(self):
        by_parts = {t.name for t in self._leaves(self.NESTED) if isinstance(t, TVar)}
        assert by_parts == free_vars(self.NESTED) == {"$t", "$u", "$r", "$f"}

    def test_map_rewrites_every_component_and_keeps_the_rest(self):
        def to_int(t):
            return INT if isinstance(t, TVar) else t.map(to_int)

        got = to_int(self.NESTED)
        assert free_vars(got) == set()
        assert got.params[1].params[1] == TPointer(TArray(INT, 4))
        assert got.params[2] == TStruct("s", (("x", INT), ("y", INT)))
