"""Lexer for MiniJ source text.

One compiled master regex splits the source into whitespace, comments
(``//`` line and ``/* ... */`` block), identifiers and keywords, decimal
integer literals, and the operator/punctuation set listed in
:mod:`repro.lang.tokens`; the keyword and operator tables then name each
token's kind.

MiniJ source is ASCII outside comments: any other character is a
:class:`LexError` at its position, as is any ASCII character that starts
no token.
"""

from __future__ import annotations

import re
import sys

from repro._util.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind

#: Operators and punctuation by spelling.
_OPERATORS: dict[str, TokenKind] = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.NOT,
}

#: One token per match, with the blanks before it: identifiers and
#: keywords, operators (two-character ones before their one-character
#: prefixes, ``/`` only where no comment starts), line breaks, integer
#: literals, comments, an unterminated block comment, and any other
#: character.  Blanks at the very end of the source precede no token:
#: :func:`tokenize` stops its scan before them, because a search from
#: each of them would run to the end and back (quadratic in their count).
_MASTER = re.compile(
    r"""
    [ \t\r]*
    (?:
        (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|!=|<=|>=|&&|\|\||[{}();,.=<>+\-*%!]|/(?![/*]))
      | (?P<newline>\n)
      | (?P<int>[0-9]+)
      | (?P<comment>//[^\n]*|/\*.*?\*/)
      | (?P<open>/\*)
      | (?P<bad>[^ \t\r])
    )
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniJ source text.

    Args:
        source: MiniJ program text.

    Returns:
        The token list, terminated by an EOF token.

    Raises:
        LexError: on malformed input.
    """
    tokens: list[Token] = []
    append = tokens.append
    keywords = KEYWORDS
    operators = _OPERATORS
    ident = TokenKind.IDENT
    intern = sys.intern
    line = 1
    line_start = 0  # source offset of the current line's first character
    for match in _MASTER.finditer(source, 0, len(source.rstrip(" \t\r"))):
        group = match.lastgroup
        if group == "word":
            # Intern identifiers: every field/method/class name string in
            # the AST (and hence every hot dict key on the interpreter's
            # field and method lookups) shares one object per spelling,
            # making those lookups pointer comparisons in the common case.
            text = intern(match[group])
            kind = keywords.get(text, ident)
        elif group == "op":
            text = match[group]
            kind = operators[text]
        elif group == "newline":
            line += 1
            line_start = match.end()
            continue
        elif group == "int":
            text = match[group]
            kind = TokenKind.INT
        elif group == "comment":
            text = match[group]
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = match.start(group) + text.rindex("\n") + 1
            continue
        else:
            column = match.start(group) - line_start + 1
            if group == "open":
                raise LexError("unterminated block comment", line, column)
            raise LexError(f"unexpected character {match[group]!r}", line, column)
        append(Token(kind, text, line, match.start(group) - line_start + 1))
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
