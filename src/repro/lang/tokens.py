"""Token definitions for the Skil front end."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple

__all__ = ["TokKind", "Token", "KEYWORDS", "PUNCT"]


class TokKind(Enum):
    IDENT = auto()
    TYPEVAR = auto()  # $t
    KEYWORD = auto()
    INT = auto()
    FLOAT = auto()
    STRING = auto()
    CHAR = auto()
    PUNCT = auto()
    EOF = auto()


#: reserved words of the C subset plus the Skil extensions
KEYWORDS = frozenset(
    {
        "int",
        "unsigned",
        "float",
        "double",
        "char",
        "void",
        "struct",
        "union",
        "typedef",
        "pardata",
        "if",
        "else",
        "while",
        "for",
        "return",
        "break",
        "continue",
        "sizeof",
    }
)

#: punctuation; the lexer's pattern tries the longest first
PUNCT = (
    "<<=",
    ">>=",
    "->",
    "++",
    "--",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "=",
    "!",
    "&",
    "|",
    "^",
    "?",
    ":",
    "~",
)


class Token(NamedTuple):
    """One located token; a tuple, so building one is as cheap as the match."""

    kind: TokKind
    text: str
    line: int
    column: int

    def is_punct(self, *texts: str) -> bool:
        return self.kind is TokKind.PUNCT and self.text in texts

    def is_keyword(self, *texts: str) -> bool:
        return self.kind is TokKind.KEYWORD and self.text in texts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
