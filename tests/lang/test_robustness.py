"""Robustness/fuzz tests: the front end must fail *predictably*.

Whatever bytes arrive, the lexer/parser/checker may only raise the
documented `SkilError` subclasses — never `IndexError`, `RecursionError`
(within reason) or silent misparses.
"""

import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SkilError, SkilSyntaxError, SkilTypeError
from repro.lang import compile_skil, parse, tokenize
from repro.lang.lexer import tokenize as lex
from repro.lang.tokens import Token, TokKind
from repro.lang.types import INT, TPointer
from tests.lang import skil_corpus


def _with_unicode(ascii_chars: str):
    """An alphabet of ``ascii_chars`` and, as often, any code point."""
    return st.one_of(st.sampled_from(ascii_chars), st.characters())


class TestLexerTotal:
    @given(st.text(alphabet=_with_unicode(string.printable), max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_tokenize_total(self, text):
        """Any text either tokenizes or raises SkilError."""
        try:
            toks = lex(text)
        except SkilError:
            return
        assert toks[-1].kind is TokKind.EOF

    @given(st.text(alphabet=_with_unicode("(){}[];,<>=+-*/%&|!$._ \n\t0123456789abc\"'"),
                   max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_parser_never_crashes(self, text):
        try:
            parse(text)
        except SkilError:
            pass
        except RecursionError:
            pytest.skip("pathological nesting")

    @given(st.text(alphabet=_with_unicode(string.ascii_letters + " (){};$"), max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_compile_never_crashes(self, text):
        try:
            compile_skil(text)
        except SkilError:
            pass


class TestLexerRoundTripTokens:
    @given(
        st.lists(
            st.sampled_from(
                ["int", "x", "42", "3.5", "+", "(", ")", "{", "}", ";",
                 "$t", "->", "<=", "=="]
            ),
            max_size=40,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_token_stream_stable(self, pieces):
        """Lexing space-joined tokens yields exactly those tokens."""
        text = " ".join(pieces)
        toks = [t.text for t in lex(text)[:-1]]
        assert toks == pieces


class TestDiagnosticQuality:
    """Error messages must carry position and name information."""

    def test_lexer_position(self):
        with pytest.raises(SkilError, match="2:"):
            tokenize("ok\n  @")

    @pytest.mark.parametrize(
        "src, column",
        [("int f () { return ²; }", 19), ("int f () { int x²; return 0; }", 17)],
        ids=["digit", "identifier"],
    )
    def test_non_ascii_is_a_located_syntax_error(self, src, column):
        # str.isdigit / str.isalnum let these through to a bare ValueError
        # from int('²') and a bare SyntaxError from the generated Python
        with pytest.raises(SkilSyntaxError, match="unexpected character '²'") as exc:
            compile_skil(src)
        assert (exc.value.line, exc.value.column) == (1, column)

    def test_backslash_newline_in_a_literal_counts_its_line(self):
        src = 'void f () {\n  g ("one \\\ntwo");\n  @\n}'
        with pytest.raises(SkilSyntaxError) as exc:
            tokenize(src)
        assert (exc.value.line, exc.value.column) == (4, 3)

    def test_parser_mentions_offending_token(self):
        with pytest.raises(SkilError, match="near"):
            parse("int f ( ; ) { }")

    def test_unknown_identifier_named(self):
        with pytest.raises(SkilError, match="mysterious"):
            compile_skil("int f () { return mysterious; }")

    def test_unknown_function_named(self):
        with pytest.raises(SkilError, match="frobnicate"):
            compile_skil("int f (int x) { return frobnicate (x); }")

    def test_arity_error_mentions_line(self):
        with pytest.raises(SkilError, match="line"):
            compile_skil(
                "int g (int a) { return a; }\n"
                "int f () { return g (1, 2); }"
            )

    @pytest.mark.parametrize(
        "src, where",
        [
            ("int f (int x) {\n  return (+)(x);\n}", "line 2: cannot unify"),
            ("void f () {\n  array<int> a;\n  a = 3;\n}", "line 3: cannot unify"),
            # used to type-check and die in codegen, without a line
            ("int f (int x) {\n  3 = x;\n  return x;\n}", "line 2: cannot assign"),
            ("int g () { return 1; }\nint g () { return 2; }", "line 2: function 'g'"),
        ],
        ids=["section-arity", "array-from-int", "non-lvalue", "redefined"],
    )
    def test_type_errors_from_unification_carry_the_line(self, src, where):
        with pytest.raises(SkilTypeError) as exc:
            compile_skil(src, fusion=True)
        assert str(exc.value).startswith(where)

    def test_pardata_nesting_message(self):
        with pytest.raises(SkilError, match="nested"):
            compile_skil(
                "void f (array<array<int>> a) { }"
            )

    def test_locality_error_mentions_partition(self):
        import numpy as np

        from repro.arrays.darray import DistArray
        from repro.errors import LocalityError
        from repro.machine.machine import Machine

        a = DistArray.uninitialized(Machine(4), (8,), np.float64)
        with pytest.raises(LocalityError, match="partition"):
            a.get_elem((7,), rank=0)


class TestMutantsFailWithAPosition:
    """Negative fuzzing: one token of a valid program is deleted,
    duplicated, swapped with its neighbour or replaced by another of its
    kind.  Whatever stage notices — lexer, parser, checker, instantiation,
    fusion, codegen — answers with a ``SkilError`` that says where."""

    POSITION = re.compile(r"^line \d+: |^\d+:\d+: ")
    #: errors about a whole function carry its name instead of a line
    WHOLE_FUNCTION = re.compile(r"^function '\w+' required more than \d+ instances")

    @staticmethod
    def _mutant(rng: random.Random, src: str) -> str:
        toks = tokenize(src)[:-1]
        i = rng.randrange(len(toks))
        op = rng.choice(("delete", "duplicate", "swap", "replace"))
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, toks[i])
        elif op == "swap" and i + 1 < len(toks):
            a, b = toks[i], toks[i + 1]
            toks[i] = Token(b.kind, b.text, a.line, a.column)
            toks[i + 1] = Token(a.kind, a.text, b.line, b.column)
        else:
            t = toks[i]
            same_kind = sorted({u.text for u in toks if u.kind is t.kind})
            toks[i] = Token(t.kind, rng.choice(same_kind), t.line, t.column)
        out, line = [], 1
        for t in toks:  # keep every token on its source line
            out.append("\n" * max(0, t.line - line) + t.text)
            line = max(line, t.line)
        return " ".join(out)

    @classmethod
    def mutants(cls) -> list[str]:
        """The sweep: 400 mutants, cycling through ``skil_corpus()``."""
        rng = random.Random(1)
        corpus = list(skil_corpus().values())
        return [cls._mutant(rng, corpus[k % len(corpus)]) for k in range(400)]

    def test_every_mutant_compiles_or_names_a_position(self):
        past_the_parser = 0
        for text in self.mutants():
            try:
                compile_skil(text, fusion=True)
            except SkilError as err:  # anything else fails the test as itself
                msg = str(err)
                assert self.POSITION.match(msg) or self.WHOLE_FUNCTION.match(msg), (
                    f"{type(err).__name__} without a position: {msg}\n{text}"
                )
                past_the_parser += not isinstance(err, SkilSyntaxError)
        # the sweep reaches the checker and beyond, or it holds nothing
        assert past_the_parser >= 20


class TestTruncatedPrograms:
    """The parser reads ``peek(2)`` with no bounds check: its token list
    carries two EOFs past the end."""

    def test_every_prefix_parses_or_names_a_position(self):
        for name, src in skil_corpus().items():
            starts = [0]  # offset of each line's first character
            starts += [i + 1 for i, c in enumerate(src) if c == "\n"]
            toks = tokenize(src)
            for i in range(1, len(toks) - 1):
                cut = src[: starts[toks[i].line - 1] + toks[i].column - 1]
                try:
                    parse(cut)
                except SkilSyntaxError as err:  # an IndexError fails the test
                    assert re.match(r"\d+:\d+: ", str(err)), (name, i, str(err))
                else:  # only a whole declaration can end a program
                    assert toks[i - 1].text in (";", "}"), (name, i)

    @pytest.mark.parametrize(
        "tail, expected",
        [
            ("void f (ptr<ptr<int>> a) { }", None),
            ("ptr<ptr<int>>", "1:36: expected an identifier (near '')"),
            ("ptr<ptr<int>", "1:35: expected '>' (near '')"),
        ],
        ids=["inside", "last-token", "unclosed"],
    )
    def test_split_close_angle(self, tail, expected):
        """``>>`` closes two type-argument lists, the last token too."""
        src = "typedef $t * ptr<$t>; " + tail
        if expected is None:
            ty = parse(src).decls[1].params[0].ty
            assert ty == TPointer(TPointer(INT))
        else:
            with pytest.raises(SkilSyntaxError) as exc:
                parse(src)
            assert str(exc.value) == expected


class TestDeepNesting:
    def test_deep_expression_nesting(self):
        expr = "x" + " + x" * 500
        mod = compile_skil(f"int f (int x) {{ return {expr}; }}")
        from repro.machine.costmodel import SKIL
        from repro.machine.machine import Machine
        from repro.skeletons import SkilContext

        assert mod.run("f", 1, ctx=SkilContext(Machine(1), SKIL)) == 501

    def test_deep_paren_nesting_raises_cleanly(self):
        src = "int f (int x) { return " + "(" * 2000 + "x" + ")" * 2000 + "; }"
        try:
            compile_skil(src)
        except (SkilError, RecursionError):
            pass  # either outcome is acceptable; no other exception is

    def test_many_functions(self):
        parts = [f"int f{i} (int x) {{ return x + {i}; }}" for i in range(200)]
        src = "\n".join(parts)
        mod = compile_skil(src)
        from repro.machine.costmodel import SKIL
        from repro.machine.machine import Machine
        from repro.skeletons import SkilContext

        assert mod.run("f199", 1, ctx=SkilContext(Machine(1), SKIL)) == 200
