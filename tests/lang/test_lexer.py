"""Unit tests for the MiniJ lexer."""

import time

import pytest

from repro._util.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        assert kinds("") == [TokenKind.EOF]

    def test_whitespace_only_yields_eof(self):
        assert kinds("  \t\n  \r\n") == [TokenKind.EOF]

    def test_integer_literal(self):
        tokens = tokenize("42")
        assert tokens[0].kind is TokenKind.INT
        assert tokens[0].text == "42"

    def test_identifier(self):
        tokens = tokenize("fooBar_3")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "fooBar_3"

    def test_keywords_are_not_identifiers(self):
        assert kinds("class")[0] is TokenKind.KW_CLASS
        assert kinds("synchronized")[0] is TokenKind.KW_SYNCHRONIZED
        assert kinds("while")[0] is TokenKind.KW_WHILE
        assert kinds("test")[0] is TokenKind.KW_TEST
        assert kinds("rand")[0] is TokenKind.KW_RAND

    def test_boolean_alias(self):
        # "boolean" (Java spelling) and "bool" both lex to KW_BOOL.
        assert kinds("boolean")[0] is TokenKind.KW_BOOL
        assert kinds("bool")[0] is TokenKind.KW_BOOL

    def test_keyword_prefix_identifier(self):
        tokens = tokenize("classy")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "classy"


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("==", TokenKind.EQ),
            ("!=", TokenKind.NE),
            ("<=", TokenKind.LE),
            (">=", TokenKind.GE),
            ("&&", TokenKind.AND),
            ("||", TokenKind.OR),
        ],
    )
    def test_two_char_operators(self, text, kind):
        assert kinds(text)[0] is kind

    def test_two_char_beats_one_char(self):
        assert kinds("= =")[:2] == [TokenKind.ASSIGN, TokenKind.ASSIGN]
        assert kinds("==")[0] is TokenKind.EQ

    def test_single_char_punctuation(self):
        assert kinds("{ } ( ) ; , .")[:-1] == [
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.SEMI,
            TokenKind.COMMA,
            TokenKind.DOT,
        ]

    def test_arithmetic_operators(self):
        assert kinds("+ - * / %")[:-1] == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("x // comment\ny") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_block_comment_skipped(self):
        assert kinds("x /* any { } tokens */ y") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    def test_block_comment_spans_lines(self):
        tokens = tokenize("/* a\nb\nc */ x")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].line == 3

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_slash_alone_is_division(self):
        assert kinds("a / b")[1] is TokenKind.SLASH


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  bb\n   c")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)
        assert (tokens[2].line, tokens[2].column) == (3, 4)

    def test_error_position_reported(self):
        with pytest.raises(LexError) as exc:
            tokenize("ok\n  @")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("$")


class TestAsciiSource:
    """MiniJ source is ASCII outside comments."""

    def test_non_ascii_digit_is_a_lex_error(self):
        # '²'.isdigit() is true, but it is no MiniJ digit.
        with pytest.raises(LexError) as exc:
            tokenize("f = ²;")
        assert (exc.value.line, exc.value.column) == (1, 5)
        assert "unexpected character '²'" in str(exc.value)

    def test_non_ascii_letter_is_a_lex_error(self):
        with pytest.raises(LexError) as exc:
            tokenize("int x;\nint né = 1;")
        assert (exc.value.line, exc.value.column) == (2, 6)

    def test_non_ascii_in_comments_is_allowed(self):
        tokens = tokenize("// § note\n/* é\n² */ x")
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            (TokenKind.IDENT, 3, 6),
            (TokenKind.EOF, 3, 7),
        ]

    def test_load_reports_a_source_error(self):
        from repro._util.errors import SourceError
        from repro.lang import load

        with pytest.raises(SourceError):
            load("class A { int f; void m() { this.f = ²; } }")


class TestTrailingBlanks:
    def test_a_million_trailing_blanks_lex_promptly(self):
        # Searching for a token from each trailing blank would scan to the
        # end and back every time: quadratic in the number of blanks.
        source = "class A { }" + " " * 1_000_000
        start = time.perf_counter()
        tokens = tokenize(source)
        assert time.perf_counter() - start < 5.0
        assert [(t.kind, t.column) for t in tokens[-2:]] == [
            (TokenKind.RBRACE, 11),
            (TokenKind.EOF, len(source) + 1),
        ]
