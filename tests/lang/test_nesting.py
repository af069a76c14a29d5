"""Deeply nested source fails closed with a ParseError.

The parser, the resolver and the table digest recurse once per level
of nesting; a chain the parser folds in a loop (``1+1+1``, ``a.f.f``)
nests one level per link.  Past ``MAX_NESTING`` levels the parser raises
:class:`ParseError`, which must happen before Python's recursion limit
ends the load with a ``RecursionError`` — both at the default limit of
1,000 and after ``VM(...)`` raised the process limit.
"""

import sys

import pytest

from repro._util.errors import ParseError
from repro.cli import main
from repro.corpus import CorpusConfig, generate_corpus
from repro.lang import load
from repro.lang.parser import MAX_NESTING
from repro.narada.cache import table_digest
from repro.runtime import VM
from repro.subjects import all_subjects


def _parens(depth: int) -> str:
    return (
        "class A { int f; void m() { this.f = "
        + "(" * depth
        + "1"
        + ")" * depth
        + "; } }"
    )


def _blocks(depth: int) -> str:
    return (
        "class A { int f; void m() { "
        + "{" * depth
        + "this.f = 1;"
        + "}" * depth
        + " } }"
    )


def _unary(depth: int) -> str:
    return "class A { bool f; void m() { this.f = " + "!" * depth + "true; } }"


def _sum(depth: int) -> str:
    terms = "+".join(["1"] * (depth + 1))
    return "class A { int f; void m() { this.f = " + terms + "; } }"


def _members(depth: int) -> str:
    chain = ".g" * (depth - 1) + ".f"
    return "class A { int f; A g; void m() { this.f = this" + chain + "; } }"


def _else_ifs(count: int) -> str:
    chain = " else if (true) { this.f = 1; }" * count
    return "class A { int f; void m() { if (true) { this.f = 1; }" + chain + " } }"


HOSTILE = [
    ("parens-250", _parens(250)),
    ("parens-5000", _parens(5000)),
    ("blocks-5000", _blocks(5000)),
    ("unary-5000", _unary(5000)),
    ("else-if-5000", _else_ifs(5000)),
    ("sum-5000", _sum(5000)),
    ("sum-20000", _sum(20000)),
    ("members-5000", _members(5000)),
]


@pytest.fixture()
def default_limit():
    """Python's default recursion limit for the test, restored after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


@pytest.mark.parametrize("name,source", HOSTILE, ids=[n for n, _ in HOSTILE])
def test_deep_nesting_is_a_parse_error(default_limit, name, source):
    with pytest.raises(ParseError, match="nesting deeper than"):
        load(source)
    VM(load("class B { }"))
    assert sys.getrecursionlimit() > 1000
    with pytest.raises(ParseError, match="nesting deeper than"):
        load(source)


@pytest.mark.parametrize("build", [_parens, _blocks, _unary, _sum, _members])
def test_nesting_just_inside_the_limit_loads(default_limit, build):
    # The method body and the statement take levels of their own.
    table_digest(load(build(MAX_NESTING - 3)))


def test_paper_subjects_and_corpus_still_parse(default_limit):
    for subject in all_subjects():
        load(subject.source)
    for subject in generate_corpus(CorpusConfig(count=300)):
        load(subject.source)


def test_fuzz_cli_exits_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.minij"
    path.write_text(_parens(5000) + "\ntest t { A a = new A(); a.m(); }\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", str(path), "--no-cache"])
    message = str(excinfo.value.code)
    assert message.startswith(f"error: {path}:")
    assert "nesting deeper than" in message
    assert "\n" not in message
    assert capsys.readouterr().out == ""
