"""Lexer for the Skil language (a C subset with ``$t`` type variables).

Peculiarities relative to plain C:

* ``$`` starts a type variable: ``$t``, ``$elem1`` ("a type variable is
  an identifier which begins with a $");
* ``&`` followed by an identifier like ``d&c`` is **not** special — the
  paper names its skeleton ``d&c``, but that is pseudo-code; Skil
  sources here use ``dc`` (documented in the language reference);
* both ``/* ... */`` and ``// ...`` comments are accepted;
* identifiers and numbers are ASCII, as in C.

One compiled pattern matches a token together with the whitespace and
comments before it, and its named group is the token's kind.  Lines and
columns come from offsets, so a newline counts wherever it sits.
"""

from __future__ import annotations

import re

from repro.errors import SkilSyntaxError
from repro.lang.tokens import KEYWORDS, PUNCT, Token, TokKind

__all__ = ["tokenize"]

_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"  # skipped before every token
    r"(?:(?P<IDENT>[A-Za-z_]\w*)"
    r"|(?P<TYPEVAR>\$\w+)"
    r"|(?P<FLOAT>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<INT>\d+)"
    r'|(?P<STRING>"(?:[^"\\\n]|\\.)*")'
    r"|(?P<CHAR>'(?:[^'\\\n]|\\.)*')"
    r"|(?P<unclosed>/\*)"
    rf"|(?P<PUNCT>{'|'.join(map(re.escape, sorted(PUNCT, key=len, reverse=True)))})"
    r"|(?P<EOF>\Z)"
    r"|(?P<error>.))",
    re.ASCII | re.DOTALL,
)

#: token kind by group number; None for the two error groups
_KINDS = {i: TokKind.__members__.get(name) for name, i in _TOKEN.groupindex.items()}

_ERRORS = {
    "/*": "unterminated /* comment",
    "$": "'$' must be followed by a type-variable name",
    '"': "unterminated literal",
    "'": "unterminated literal",
}

#: a backslash before any other character (a newline too) stands for it
_ESCAPES = {"n": "\n", "t": "\t", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unquote(literal: str) -> str:
    body = literal[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), body)


def tokenize(source: str) -> list[Token]:
    """Turn Skil source text into a token list ending with EOF."""
    toks: list[Token] = []
    new = tuple.__new__  # Token(...) without the generated __new__'s frame
    IDENT, STRING, CHAR, EOF = TokKind.IDENT, TokKind.STRING, TokKind.CHAR, TokKind.EOF
    line, line_start = 1, 0
    next_nl = source.find("\n")
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        start = m.start(group)
        while 0 <= next_nl < start:
            line += 1
            line_start = next_nl + 1
            next_nl = source.find("\n", line_start)
        text = m[group]
        kind = _KINDS[group]
        if kind is IDENT:
            if text in KEYWORDS:
                kind = TokKind.KEYWORD
        elif kind is None:
            raise SkilSyntaxError(
                _ERRORS.get(text, f"unexpected character {text!r}"),
                line, start - line_start + 1,
            )
        elif kind is STRING or kind is CHAR:
            text = _unquote(text)
        toks.append(new(Token, (kind, text, line, start - line_start + 1)))
        if kind is EOF:
            return toks
    raise AssertionError("unreachable: the pattern matches at the end")
