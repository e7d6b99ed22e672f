"""Unit tests for the Skil lexer and parser."""

import pytest

from repro.errors import SkilSyntaxError
from repro.lang import ast as A
from repro.lang.lexer import tokenize
from repro.lang.parser import parse
from repro.lang.tokens import TokKind
from repro.lang.types import INT, TFun, TPardata, TPointer, TVar


class TestLexer:
    def test_type_variables(self):
        toks = tokenize("$t $elem1")
        assert toks[0].kind is TokKind.TYPEVAR and toks[0].text == "$t"
        assert toks[1].text == "$elem1"

    def test_bare_dollar_rejected(self):
        with pytest.raises(SkilSyntaxError):
            tokenize("$ t")

    def test_keywords_vs_idents(self):
        toks = tokenize("int intx")
        assert toks[0].kind is TokKind.KEYWORD
        assert toks[1].kind is TokKind.IDENT

    def test_numbers(self):
        toks = tokenize("42 3.14 1e6 2.5e-3")
        assert [t.kind for t in toks[:-1]] == [
            TokKind.INT,
            TokKind.FLOAT,
            TokKind.FLOAT,
            TokKind.FLOAT,
        ]

    def test_strings_with_escapes(self):
        toks = tokenize(r'"a\nb"')
        assert toks[0].text == "a\nb"

    @pytest.mark.parametrize(
        "src, text",
        [(r"'\''", "'"), (r'"\"\t\0\\\q"', '"\t\0\\q'), ('"a\\\nb"', "a\nb")],
        ids=["quote", "others", "backslash-newline"],
    )
    def test_escape_set(self, src, text):
        assert tokenize(src)[0].text == text

    def test_unterminated_string(self):
        with pytest.raises(SkilSyntaxError):
            tokenize('"abc')

    def test_comments_stripped(self):
        toks = tokenize("a /* x\ny */ b // z\nc")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(SkilSyntaxError):
            tokenize("/* never closed")

    def test_multichar_punct_greedy(self):
        toks = tokenize("a->b <= >= == !=")
        assert toks[1].text == "->"
        assert [t.text for t in toks[3:7]] == ["<=", ">=", "==", "!="]

    def test_line_column_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_tab_is_one_column(self):
        assert tokenize("\t\tx")[0].column == 3

    def test_eof_after_a_line_comment(self):
        # the EOF sits where the text ends, not where the comment starts
        assert tokenize("x // end")[-1][2:] == (1, 9)

    @pytest.mark.parametrize("src", ["x\u00e9", "\u0663", "$\u00e9", "1\u00b2"])
    def test_identifiers_and_numbers_are_ascii(self, src):
        with pytest.raises(SkilSyntaxError, match="unexpected character|'\\$'"):
            tokenize(src)


class TestParserDecls:
    def test_function_def(self):
        prog = parse("int f (int x) { return x; }")
        f = prog.decls[0]
        assert isinstance(f, A.FuncDef)
        assert f.name == "f"
        assert f.params[0].ty == INT

    def test_prototype(self):
        prog = parse("unsigned init_f (Index ix);")
        assert isinstance(prog.decls[0], A.FuncDecl)

    def test_functional_parameter(self):
        prog = parse("$b apply ($b solve ($a), $a x) { return solve (x); }")
        f = prog.decls[0]
        assert isinstance(f.params[0].ty, TFun)
        assert f.params[0].ty.params == (TVar("$a"),)
        assert f.params[0].ty.ret == TVar("$b")

    def test_pardata_header_only(self):
        prog = parse("pardata dlist <$t> ;")
        d = prog.decls[0]
        assert isinstance(d, A.PardataHeader)
        assert d.type_params == ("$t",)
        assert not d.has_implem

    def test_pardata_with_implem(self):
        prog = parse("pardata dvec <$t> $t* ;")
        assert prog.decls[0].has_implem

    def test_typedef_polymorphic(self):
        prog = parse(
            "struct _list {$t elem; struct _list *next;};"
            "typedef struct _list * list<$t>;"
        )
        td = prog.decls[1]
        assert isinstance(td, A.TypedefDecl)
        assert td.type_params == ("$t",)
        assert isinstance(td.target, TPointer)

    def test_typedef_usable_as_type(self):
        prog = parse(
            "typedef int myint; myint g (myint x) { return x; }"
        )
        assert prog.decls[1].params[0].ty == INT

    def test_struct_fields(self):
        prog = parse("struct _e {float val; int row, col;};")
        sd = prog.decls[0]
        assert [f for f, _ in sd.fields] == ["val", "row", "col"]

    def test_pardata_array_type(self):
        prog = parse("void f (array<int> a) { }")
        assert prog.decls[0].params[0].ty == TPardata("array", (INT,))


class TestParserExpr:
    def _expr(self, text):
        prog = parse(f"int f (int x, int y) {{ return {text}; }}")
        return prog.decls[0].body.stmts[0].value

    def test_precedence(self):
        e = self._expr("x + y * 2")
        assert isinstance(e, A.BinOp) and e.op == "+"
        assert isinstance(e.right, A.BinOp) and e.right.op == "*"

    def test_operator_section(self):
        e = self._expr("f ((+), x)") if False else None
        prog = parse("void g (int x) { h ((+), (*)(2)); }")
        call = prog.decls[0].body.stmts[0].expr
        assert isinstance(call.args[0], A.OperatorSection)
        assert call.args[0].op == "+"
        sec_applied = call.args[1]
        assert isinstance(sec_applied, A.Call)
        assert isinstance(sec_applied.func, A.OperatorSection)

    def test_brace_list(self):
        e = self._expr("g ({x, y})")
        assert isinstance(e.args[0], A.BraceList)
        assert len(e.args[0].items) == 2

    def test_member_and_arrow(self):
        e = self._expr("a.val + b->row")
        assert isinstance(e.left, A.Member) and not e.left.arrow
        assert isinstance(e.right, A.Member) and e.right.arrow

    def test_ternary(self):
        e = self._expr("x > y ? x : y")
        assert isinstance(e, A.Cond)

    def test_cast(self):
        e = self._expr("(float) x")
        assert isinstance(e, A.Cast)

    def test_increment_sugar(self):
        prog = parse("void f () { i = 0; i++; ++i; }")
        stmts = prog.decls[0].body.stmts
        assert isinstance(stmts[1].expr, A.Assign)
        assert stmts[1].expr.op == "+="

    def test_nested_calls_currying_syntax(self):
        e = self._expr("f (x) (y)")
        assert isinstance(e, A.Call)
        assert isinstance(e.func, A.Call)


class TestParserStmt:
    def test_for_loop(self):
        prog = parse("void f (int n) { for (i = 0; i < n; i++) { g (i); } }")
        loop = prog.decls[0].body.stmts[0]
        assert isinstance(loop, A.For)
        assert loop.cond is not None and loop.step is not None

    def test_if_else(self):
        prog = parse("int f (int x) { if (x > 0) return 1; else return 0; }")
        s = prog.decls[0].body.stmts[0]
        assert isinstance(s, A.If) and s.orelse is not None

    def test_while(self):
        prog = parse("void f (int n) { while (n > 0) n = n - 1; }")
        assert isinstance(prog.decls[0].body.stmts[0], A.While)

    def test_multi_declarator(self):
        prog = parse("void f () { array<int> a, b, c; }")
        block = prog.decls[0].body.stmts[0]
        assert isinstance(block, A.Block) and len(block.stmts) == 3

    def test_decl_with_init(self):
        prog = parse("void f () { int x = 5; }")
        d = prog.decls[0].body.stmts[0]
        assert isinstance(d, A.VarDecl) and isinstance(d.init, A.IntLit)

    def test_syntax_error_reported_with_location(self):
        with pytest.raises(SkilSyntaxError):
            parse("void f ( { }")

    def test_missing_semicolon(self):
        with pytest.raises(SkilSyntaxError):
            parse("void f () { x = 1 }")
