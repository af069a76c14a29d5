"""MiniJ threads run on heap frames, not on the Python stack.

The interpreter keeps each thread's MiniJ frames in an explicit stack,
so neither call depth nor expression nesting grows the Python stack
while a thread runs, and the VM never touches the process recursion
limit.  ``MAX_CALL_DEPTH`` is the only bound on MiniJ recursion.
"""

import sys

import pytest

from repro._util.errors import MiniJRuntimeError
from repro.lang import load
from repro.narada import Narada
from repro.runtime import VM
from repro.runtime.interp import MAX_CALL_DEPTH
from repro.subjects import all_subjects, get_subject
from repro.trace import Recorder
from repro.trace.recorder import format_trace
from tests.runtime.reference_interp import reference_vm

#: Python's default recursion limit.
DEFAULT_LIMIT = 1000


@pytest.fixture()
def default_limit():
    """Python's default recursion limit for the test, restored after."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_LIMIT)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _chain(depth: int, nesting: int) -> str:
    """A ``depth``-deep MiniJ call chain whose every frame nests
    ``nesting`` calls of ``this.id(...)`` around the next call."""

    def nest(inner: str) -> str:
        return "this.id(" * nesting + inner + ")" * nesting

    return f"""
    class A {{
      int id(int x) {{ return x; }}
      int down(int n) {{
        if (n == 0) {{ return {nest("0")}; }}
        return {nest("this.down(n - 1) + 1")};
      }}
    }}
    test T {{ A a = new A(); int r = a.down({depth - 1}); }}
    """


def _trace(make_vm, table):
    vm = make_vm(table)
    recorder = Recorder()
    result, env = vm.run_test("T", listeners=(recorder,))
    return format_trace(recorder.trace), result, env


def test_deep_call_chain_runs_at_the_default_limit(default_limit):
    table = load(_chain(62, 40))
    # The generator reference needs a dozen Python frames per nesting
    # level of each MiniJ frame; give it room, then restore the limit.
    sys.setrecursionlimit(50_000)
    try:
        expected, _, _ = _trace(reference_vm, table)
    finally:
        sys.setrecursionlimit(DEFAULT_LIMIT)
    trace, result, env = _trace(VM, table)
    assert result.clean
    assert env["r"] == 61
    assert trace == expected
    assert sys.getrecursionlimit() == DEFAULT_LIMIT


def test_unbounded_recursion_is_a_stack_overflow_fault(default_limit):
    table = load(
        "class A { int m(int n) { return this.id(this.id(this.m(n + 1))); }"
        " int id(int x) { return x; } }"
        " test T { A a = new A(); a.m(0); }"
    )
    result, _ = VM(table).run_test("T")
    assert not result.clean
    [(_, fault)] = result.faults
    assert isinstance(fault, MiniJRuntimeError)
    assert fault.kind == "stack-overflow"
    assert str(fault) == "stack-overflow: calling A.m"
    assert sys.getrecursionlimit() == DEFAULT_LIMIT


def test_max_call_depth_is_exact(default_limit):
    table = load(_chain(MAX_CALL_DEPTH, 2))
    result, env = VM(table).run_test("T")
    assert result.faults and result.faults[0][1].kind == "stack-overflow"
    table = load(_chain(MAX_CALL_DEPTH - 1, 2))
    result, env = VM(table).run_test("T")
    assert result.clean and env["r"] == MAX_CALL_DEPTH - 2


def test_the_vm_leaves_the_recursion_limit_alone():
    before = sys.getrecursionlimit()
    for subject in all_subjects():
        table = subject.load()
        vm = VM(table)
        for test in table.program.tests:
            vm.run_test(test.name)
        vm.clone()
    subject = get_subject("C8")
    narada = Narada(subject.load())
    narada.detect(narada.synthesize_for_class(subject.class_name), random_runs=1)
    assert sys.getrecursionlimit() == before
