"""Reference MiniJ front end: the character scanner and six-level parser.

Production lexing is one compiled master regex and production binary
expressions are one precedence-table loop (``repro.lang.lexer``,
``repro.lang.parser``).  The code here is what they replaced, kept as
the differential reference: on ASCII input, :func:`tokenize` and
:func:`parse` must produce exactly the production tokens, the same AST
(pretty text, ``node_id`` and ``line`` of every node), and the same
errors (class, message, line and column); see
tests/lang/test_frontend_equivalence.py.

The only intended divergence is non-ASCII source: this scanner lexes
``'²'`` as an integer (``str.isdigit``) and letters such as ``'é'`` as
identifier characters, where the production lexer rejects any non-ASCII
character outside comments.
"""

from __future__ import annotations

import sys

from repro._util.errors import LexError
from repro.lang import ast
from repro.lang.parser import Parser
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_TWO_CHAR_OPS: dict[str, TokenKind] = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

_ONE_CHAR_OPS: dict[str, TokenKind] = {
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


class Lexer:
    """Converts MiniJ source text into a list of tokens."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return its tokens, ending with EOF."""
        tokens: list[Token] = []
        while True:
            self._skip_trivia()
            if self._at_end():
                tokens.append(Token(TokenKind.EOF, "", self._line, self._column))
                return tokens
            tokens.append(self._next_token())

    def _at_end(self) -> bool:
        return self._pos >= len(self._source)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self) -> str:
        ch = self._source[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return ch

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments."""
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        line, column = self._line, self._column
        self._advance()  # '/'
        self._advance()  # '*'
        while not self._at_end():
            if self._peek() == "*" and self._peek(1) == "/":
                self._advance()
                self._advance()
                return
            self._advance()
        raise LexError("unterminated block comment", line, column)

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        ch = self._peek()

        if ch.isdigit():
            return self._lex_int(line, column)
        if ch.isalpha() or ch == "_":
            return self._lex_word(line, column)

        pair = ch + self._peek(1)
        if pair in _TWO_CHAR_OPS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPS[pair], pair, line, column)
        if ch in _ONE_CHAR_OPS:
            self._advance()
            return Token(_ONE_CHAR_OPS[ch], ch, line, column)

        raise LexError(f"unexpected character {ch!r}", line, column)

    def _lex_int(self, line: int, column: int) -> Token:
        start = self._pos
        while not self._at_end() and self._peek().isdigit():
            self._advance()
        text = self._source[start : self._pos]
        return Token(TokenKind.INT, text, line, column)

    def _lex_word(self, line: int, column: int) -> Token:
        start = self._pos
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = sys.intern(self._source[start : self._pos])
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        return Token(kind, text, line, column)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniJ source text with the reference scanner."""
    return Lexer(source).tokenize()


class ReferenceParser(Parser):
    """The production parser with its original token access and its
    original one-method-per-level binary expression grammar."""

    def __init__(self, tokens: list[Token]) -> None:
        super().__init__(tokens)
        self._tokens = tokens  # no EOF sentinel: ``_peek`` clamps instead

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_binary_level(self, sub_parser, ops: dict[TokenKind, str]) -> ast.Expr:
        left = sub_parser()
        while self._peek().kind in ops:
            op_token = self._advance()
            right = sub_parser()
            node = ast.Binary(op=ops[op_token.kind], left=left, right=right)
            left = self._stamp(node, op_token)
        return left

    def _parse_or(self) -> ast.Expr:
        return self._parse_binary_level(self._parse_and, {TokenKind.OR: "||"})

    def _parse_and(self) -> ast.Expr:
        return self._parse_binary_level(self._parse_equality, {TokenKind.AND: "&&"})

    def _parse_equality(self) -> ast.Expr:
        return self._parse_binary_level(
            self._parse_relational, {TokenKind.EQ: "==", TokenKind.NE: "!="}
        )

    def _parse_relational(self) -> ast.Expr:
        return self._parse_binary_level(
            self._parse_additive,
            {
                TokenKind.LT: "<",
                TokenKind.LE: "<=",
                TokenKind.GT: ">",
                TokenKind.GE: ">=",
            },
        )

    def _parse_additive(self) -> ast.Expr:
        return self._parse_binary_level(
            self._parse_multiplicative, {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
        )

    def _parse_multiplicative(self) -> ast.Expr:
        return self._parse_binary_level(
            self._parse_unary,
            {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"},
        )


def parse(source: str) -> ast.Program:
    """Parse MiniJ source text with the reference lexer and parser."""
    return ReferenceParser(tokenize(source)).parse_program()
