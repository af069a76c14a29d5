"""The production front end against the reference in tests/lang/reference.py.

On ASCII input the two must agree exactly: the token stream, the AST
(pretty text, ``node_id`` and ``line`` of every node) and any error
(class, message, line and column).  Inputs are the paper subjects, the
seed-0 300-subject corpus, hypothesis programs built with
:mod:`repro.lang.build`, and deterministic byte mutations of those
sources: truncation every k characters, single-character insertions and
single-character deletions.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.errors import SourceError
from repro.corpus import CorpusConfig, generate_corpus
from repro.lang import ast
from repro.lang import build as b
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.pretty import pretty_program
from repro.lang.types import INT, Type
from repro.subjects import all_subjects
from tests.lang import reference

#: Characters a mutation inserts: token starts, comment openers, and
#: characters that start no token at all.
INSERTABLE = "{}();,.=<>+-*/%!&|_aZ0 \n\t#\"@"


def _nodes(node, rows: list) -> list:
    """(type, node_id, line) of every AST node, in field order; nodes
    without a site id (declarations) record None for it."""
    if isinstance(node, list):
        for item in node:
            _nodes(item, rows)
    elif dataclasses.is_dataclass(node) and not isinstance(node, Type):
        rows.append(
            (
                type(node).__name__,
                getattr(node, "node_id", None),
                getattr(node, "line", None),
            )
        )
        for f in dataclasses.fields(node):
            _nodes(getattr(node, f.name), rows)
    return rows


def _error(error: SourceError) -> tuple:
    return (type(error).__name__, str(error), error.line, error.column)


def _front_end(tokenizer, parser, source: str) -> tuple:
    """(tokens or lex error, AST rows or parse error) of one front end."""
    try:
        tokens = tokenizer(source)
    except SourceError as error:
        return _error(error), None
    try:
        program = parser(tokens).parse_program()
    except SourceError as error:
        return [tuple(t) for t in tokens], _error(error)
    return [tuple(t) for t in tokens], (pretty_program(program), _nodes(program, []))


def assert_same_front_end(source: str) -> None:
    assert source.isascii()
    assert _front_end(tokenize, Parser, source) == _front_end(
        reference.tokenize, reference.ReferenceParser, source
    )


def mutations(source: str, seed: int, every: int, edits: int):
    """Truncations every ``every`` characters, then ``edits`` seeded
    single-character insertions and as many deletions."""
    for cut in range(every, len(source), every):
        yield source[:cut]
    rng = random.Random(seed)
    for _ in range(edits):
        at = rng.randrange(len(source) + 1)
        yield source[:at] + rng.choice(INSERTABLE) + source[at:]
        at = rng.randrange(len(source))
        yield source[:at] + source[at + 1 :]


def _ascii(source: str) -> str:
    """``source`` with its few non-ASCII characters (all in comments)
    replaced by ``?``, so that a mutation exposing one is an input both
    front ends must reject alike."""
    return source.encode("ascii", "replace").decode()


PAPER = {subject.key: _ascii(subject.source) for subject in all_subjects()}


@pytest.fixture(scope="module")
def corpus_sources() -> list[str]:
    corpus = generate_corpus(CorpusConfig(count=300))
    return [_ascii(subject.source) for subject in corpus]


class TestFixedSources:
    @pytest.mark.parametrize("key", sorted(PAPER))
    def test_paper_subject(self, key):
        assert_same_front_end(PAPER[key])

    @pytest.mark.parametrize("seed,key", enumerate(sorted(PAPER)))
    def test_paper_subject_mutations(self, seed, key):
        for mutant in mutations(PAPER[key], seed, 211, 8):
            assert_same_front_end(mutant)

    def test_corpus(self, corpus_sources):
        assert len(corpus_sources) == 300
        for source in corpus_sources:
            assert_same_front_end(source)

    def test_corpus_mutations(self, corpus_sources):
        # The corpus is templated: every third subject covers its shapes.
        for seed, source in enumerate(corpus_sources[::3]):
            for mutant in mutations(source, seed, 401, 1):
                assert_same_front_end(mutant)


class TestErrors:
    """Each error path, with its exact message and position."""

    @pytest.mark.parametrize(
        "source",
        [
            "class A { int f; } /* never closed",
            "class A { int f; }\n  # }",
            "class A {\n\tint f = 3 $ 4; }",
            "class A { int f; } test T { A a = new A(); a.f = 1 +; }",
            "class A { void m() { int x = (1 + 2; } }",
            "class A { void m() { 1 = 2; } }",
            "class A { synchronized int f; }",
            "test T { int x = 1 < 2 == 3 >= 4 && !5 || -6 % 7 / 8; }",
            "",
            "\n\n   ",
            "// only a comment",
            "x" + " \t" * 50,
            "class A { int f; } // note" + " \t\r" * 50,
            "x /" + " " * 50,
        ],
    )
    def test_error_and_edge_inputs(self, source):
        assert_same_front_end(source)


# ----------------------------------------------------------------------
# Hypothesis programs.

BINARY_OPS = ["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"]
NAMES = st.sampled_from(["a", "b", "count", "x1", "_t"])

LEAVES = st.one_of(
    st.integers(0, 10**6).map(b.lit),
    st.booleans().map(b.boolean),
    st.just(b.null()),
    NAMES.map(b.var),
    NAMES.map(b.this_get),
)


def _extend(children):
    return st.one_of(
        st.builds(b.binop, st.sampled_from(BINARY_OPS), children, children),
        st.builds(
            lambda op, operand: ast.Unary(op=op, operand=operand),
            st.sampled_from(["!", "-"]),
            children,
        ),
        st.builds(b.get, children, NAMES),
        st.builds(
            lambda target, name, args: b.call(target, name, *args),
            children,
            NAMES,
            st.lists(children, max_size=2),
        ),
        st.builds(lambda args: b.new("A", *args), st.lists(children, max_size=2)),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=12)

STMTS = st.one_of(
    st.builds(lambda name, e: b.vdecl(INT, name, e), NAMES, EXPRS),
    st.builds(b.assign, NAMES, EXPRS),
    st.builds(b.set_this, NAMES, EXPRS),
    st.builds(lambda e: b.expr_stmt(e), EXPRS),
    st.builds(b.ret, st.none() | EXPRS),
    st.builds(lambda c, e: b.iff(c, [b.assign("a", e)]), EXPRS, EXPRS),
    st.builds(lambda lock, e: b.sync(lock, b.set_this("a", e)), EXPRS, EXPRS),
)


@st.composite
def programs(draw) -> str:
    body = draw(st.lists(STMTS, max_size=5))
    cls = b.class_decl(
        "A",
        [b.field_decl("a", INT), b.field_decl("next", "A")],
        [
            b.constructor("A", [], []),
            b.method("m", [b.param("x1", INT)], INT, body, draw(st.booleans())),
        ],
    )
    test = b.test_decl("T", draw(st.lists(STMTS, max_size=3)))
    return pretty_program(b.program([cls], [test]))


@st.composite
def flat_expressions(draw) -> str:
    """A test whose one statement is an unparenthesized operator chain;
    pretty-printed programs parenthesize every binary expression, so
    these are what exercise precedence and associativity."""
    operands = st.sampled_from(["1", "x", "this.a", "a.m()", "!y", "-2", "(3 + 4)"])
    parts = [draw(operands)]
    for _ in range(draw(st.integers(0, 8))):
        parts.append(draw(st.sampled_from(BINARY_OPS)))
        parts.append(draw(operands))
    return f"test T {{\n  int r = {' '.join(parts)};\n}}\n"


class TestHypothesisPrograms:
    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_built_programs(self, source):
        assert_same_front_end(source)

    @settings(max_examples=100, deadline=None)
    @given(flat_expressions())
    def test_operator_chains(self, source):
        assert_same_front_end(source)

    @settings(max_examples=60, deadline=None)
    @given(programs(), st.randoms(use_true_random=False))
    def test_mutated_programs(self, source, rng):
        at = rng.randrange(len(source) + 1)
        assert_same_front_end(source[:at])
        assert_same_front_end(source[:at] + rng.choice(INSERTABLE) + source[at:])
        at = rng.randrange(len(source))
        assert_same_front_end(source[:at] + source[at + 1 :])
