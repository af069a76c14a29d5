"""Token definitions for the MiniJ language.

MiniJ is the small Java-like object language the whole reproduction is
built on: the subject libraries (C1..C9), the sequential seed tests, and
the synthesized multithreaded tests are all MiniJ programs.  Keeping the
language tiny lets the VM expose every field access and lock operation as
an explicit, schedulable event — which is what makes races *real* in a
Python reproduction despite the GIL.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokenKind(enum.Enum):
    """Lexical categories of MiniJ tokens."""

    # Literals and identifiers.
    IDENT = "ident"
    INT = "int"

    # Keywords.
    KW_CLASS = "class"
    KW_INTERFACE = "interface"
    KW_IMPLEMENTS = "implements"
    KW_SYNCHRONIZED = "synchronized"
    KW_VOID = "void"
    KW_INT = "kw_int"
    KW_BOOL = "kw_bool"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_RETURN = "return"
    KW_NEW = "new"
    KW_THIS = "this"
    KW_NULL = "null"
    KW_TRUE = "true"
    KW_FALSE = "false"
    KW_TEST = "test"
    KW_ASSERT = "assert"
    KW_RAND = "rand"
    KW_FORK = "fork"

    # Punctuation.
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    SEMI = ";"
    COMMA = ","
    DOT = "."

    # Operators.
    ASSIGN = "="
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    NOT = "!"
    AND = "&&"
    OR = "||"

    EOF = "eof"


#: Reserved words mapped to their token kinds.
KEYWORDS: dict[str, TokenKind] = {
    "class": TokenKind.KW_CLASS,
    "interface": TokenKind.KW_INTERFACE,
    "implements": TokenKind.KW_IMPLEMENTS,
    "synchronized": TokenKind.KW_SYNCHRONIZED,
    "void": TokenKind.KW_VOID,
    "int": TokenKind.KW_INT,
    "bool": TokenKind.KW_BOOL,
    "boolean": TokenKind.KW_BOOL,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "return": TokenKind.KW_RETURN,
    "new": TokenKind.KW_NEW,
    "this": TokenKind.KW_THIS,
    "null": TokenKind.KW_NULL,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "test": TokenKind.KW_TEST,
    "assert": TokenKind.KW_ASSERT,
    "rand": TokenKind.KW_RAND,
    "fork": TokenKind.KW_FORK,
}


class Token(NamedTuple):
    """A single lexical token.

    A plain named tuple: the lexer builds one per token of every parsed
    program, and a tuple is the cheapest immutable value to build.

    Attributes:
        kind: the lexical category.
        text: the exact source text of the token.
        line: 1-based source line.
        column: 1-based source column of the first character.
    """

    kind: TokenKind
    text: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.column})"
