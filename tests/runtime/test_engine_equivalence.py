"""The frame-stack interpreter against the generator reference.

``tests/runtime/reference_interp.py`` keeps the generator interpreter
MiniJ ran on before; :func:`reference_vm` puts it inside an otherwise
production VM.  Every input here runs once on each engine, and the two
runs must agree on the formatted trace (labels, call indices, scheduling
points, event fields), the ``ExecutionResult`` (steps, end state,
faults), the final client environment, and the counters a later run on
the same VM continues from.  Inputs: the C1..C9 seed suites, the
synthesized tests of the ``CORPUS_PIN`` corpus slice under four
schedulers, the wait/notify and monitor edge-case programs, and
hypothesis programs built with :mod:`repro.lang.build`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.synth.runner as runner_module
from repro.corpus import CorpusConfig, generate_corpus
from repro.lang import ast, load
from repro.lang import build as b
from repro.lang.pretty import pretty_program
from repro.lang.types import INT, VOID, class_type
from repro.narada import Narada
from repro.runtime import (
    VM,
    Execution,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.subjects import all_subjects
from repro.synth.runner import TestRunner
from repro.trace import Recorder
from repro.trace.events import AccessEvent, LockEvent
from repro.trace.recorder import format_event, format_trace
from tests.runtime.reference_interp import reference_vm
from tests.runtime.test_wait_notify import BOUNDED_QUEUE

def _summary(result) -> tuple | None:
    if result is None:
        return None
    return (
        result.steps,
        result.completed,
        result.deadlocked,
        result.timed_out,
        sorted(result.blocked.items()),
        [(tid, f.kind, str(f), f.thread_id) for tid, f in result.faults],
    )


def _counters(vm) -> tuple:
    return (vm._label, vm.interp._next_call_index, vm.rng.getstate(), len(vm.heap))


class _Accesses:
    """A listener that subscribes to accesses and locks only, so the
    engine elides every invoke, return and alloc event."""

    interests = (AccessEvent, LockEvent)

    def __init__(self) -> None:
        self.events: list = []

    def on_event(self, event) -> None:
        self.events.append(event)


def assert_same(observe) -> None:
    """``observe(make_vm)`` returns a comparable observation of one run."""
    frames = observe(VM)
    reference = observe(reference_vm)
    assert frames == reference


# ----------------------------------------------------------------------
# C1..C9 seed suites.


@pytest.mark.parametrize("key", [s.key for s in all_subjects()])
def test_seed_suites(key):
    table = next(s for s in all_subjects() if s.key == key).load()

    def observe(make_vm):
        out = []
        for test in table.program.tests:
            vm = make_vm(table, seed=0)
            recorder = Recorder()
            result, env = vm.run_test(test.name, listeners=(recorder,))
            out.append(
                (format_trace(recorder.trace), _summary(result), env, _counters(vm))
            )
            elided = _Accesses()
            vm = make_vm(table, seed=0)
            result, env = vm.run_test(test.name, listeners=(elided,))
            events = "\n".join(map(format_event, elided.events))
            out.append((events, _summary(result), env, _counters(vm)))
        return out

    assert_same(observe)


# ----------------------------------------------------------------------
# The corpus slice of CORPUS_PIN (tests/integration/test_pipeline_pins.py).


@pytest.fixture(scope="module")
def corpus_tests():
    cases = []
    for subject in generate_corpus(CorpusConfig(seed=0, count=20)):
        table = load(subject.source)
        tests = Narada(table).synthesize_for_class(subject.class_name).tests
        cases.append((subject.key, table, tests))
    return cases


SCHEDULERS = [
    ("random0", lambda: RandomScheduler(0)),
    ("random1", lambda: RandomScheduler(1)),
    ("random2", lambda: RandomScheduler(2)),
    ("round-robin", RoundRobinScheduler),
]


@pytest.mark.parametrize(
    "label,make_scheduler", SCHEDULERS, ids=[s[0] for s in SCHEDULERS]
)
def test_corpus_synthesized_tests(corpus_tests, monkeypatch, label, make_scheduler):
    assert sum(len(tests) for _, _, tests in corpus_tests) > 0

    def observe(make_vm):
        monkeypatch.setattr(runner_module, "VM", make_vm)
        out = []
        for key, table, tests in corpus_tests:
            for test in tests:
                recorder = Recorder()
                outcome = TestRunner(table, listeners=(recorder,)).run(
                    test, make_scheduler()
                )
                execution = outcome.execution
                threads = None if execution is None else [
                    (thread.status, thread.result)
                    for thread in map(execution.thread, execution.thread_ids())
                ]
                out.append(
                    (
                        key,
                        test.name,
                        format_trace(recorder.trace),
                        _summary(outcome.setup_result),
                        _summary(outcome.concurrent_result),
                        outcome.materialized.env,
                        threads,
                        _counters(outcome.materialized.vm),
                    )
                )
        return out

    assert_same(observe)


# ----------------------------------------------------------------------
# Wait/notify and monitor edge cases.

EDGE_PROGRAMS = {
    "sync-return": """
        class B { }
        class A {
          int x; B gate;
          A() { this.gate = new B(); }
          int early() { synchronized (this) { this.x = 1; return this.x; } }
          int nested() {
            synchronized (this) { synchronized (this.gate) { return 7; } }
          }
          int loop(int n) {
            synchronized (this) {
              int i = 0;
              while (true) { if (i == n) { return i; } i = i + 1; }
            }
          }
          synchronized int quick(bool q) {
            if (q) { return 0; }
            this.x = 9;
            return this.x;
          }
          synchronized void outer() { this.middle(); }
          synchronized void middle() { this.inner(); }
          synchronized void inner() { this.x = this.x + 1; }
          void boom() {
            synchronized (this) { synchronized (this.gate) { this.x = 1 / 0; } }
          }
          synchronized void ok() { this.x = 5; }
          void m() { synchronized (this) { this.x = 1; } }
        }
        test T {
          A a = new A();
          int r = a.early(); int r2 = a.nested(); int r3 = a.loop(4);
          int r4 = a.quick(true); int r5 = a.quick(false); a.outer();
        }
    """,
    "conditions": """
        class C {
          int woke; int flag;
          synchronized void outer() { this.inner(); }
          synchronized void inner() { this.wait(); this.woke = 1; }
          synchronized void wake() { this.notifyAll(); }
          synchronized void one() { this.notify(); }
          void oops() { this.wait(); }
          void oops2() { this.notify(); }
        }
        class W {
          int calls;
          void wait() { this.calls = this.calls + 1; }
          void go() { this.wait(); this.wait(); }
        }
        test T { C c = new C(); W w = new W(); w.go(); }
    """,
    "allocation": """
        class Node {
          int v = 3; Node next = null; int w = this.v + 1;
          Node(int v) { this.v = v; }
          int sum() {
            int s = this.v;
            if (this.next != null) { s = s + this.next.sum(); }
            return s;
          }
        }
        class Box {
          IntArray cells = new IntArray(3);
          RefArray refs = new RefArray(2);
          Opaque token = rand();
          int fill(int k) {
            int i = 0;
            while (i < this.cells.length()) { this.cells.set(i, k * i); i = i + 1; }
            this.refs.set(0, new Node(k));
            return this.cells.get(2) + this.cells.length + rand() % 7;
          }
          int bad() { return this.cells.get(5); }
        }
        test T {
          Node n = new Node(1); Node m = new Node(2);
          Box x = new Box(); int f = x.fill(5); int s = n.sum();
          assert f >= 10;
          fork { int g = x.fill(2); }
          int h = x.bad();
        }
        test U { Box x = new Box(); assert x.fill(1) == 0; }
    """,
    # A pure operand evaluated before a later operand's action: its
    # rand() draw or fault must land before that action, not after.
    "operands": """
        class P {
          int f; int g; P next;
          int two(int a, int b) { return a + b; }
          int draw() { return this.two(rand(), this.f) + (rand() - this.g); }
          void write() { this.f = rand(); this.g = this.two(rand(), this.f); }
          int divide(int y) { return this.two(7 / y, this.f); }
          void target() { this.next.f = this.two(this.g, 1); }
          bool both() { return this.f == 0 && this.two(1, this.g) == 1 || rand() > 5; }
        }
        test T { P p = new P(); int d = p.draw(); bool b = p.both(); p.divide(0); }
        test U { P p = new P(); p.target(); }
    """,
}


def _edge_drives():
    """(source, seed test, [(method, args) per thread], scheduler) cases."""
    queue = [
        (BOUNDED_QUEUE, "Seed", "q", threads, make)
        for threads in (
            [("take", []), ("put", [42])],
            [("take", []), ("take", []), ("put", [5])],
            [("take", [])],
            [("put", [1]), ("put", [2]), ("put", [3]), ("take", [])],
        )
        for make in (RoundRobinScheduler, lambda: RandomScheduler(3))
    ]
    sync = [
        (EDGE_PROGRAMS["sync-return"], "T", "a", threads, make)
        for threads in (
            [("boom", []), ("ok", [])],
            [("m", []), ("m", []), ("outer", [])],
            [("loop", [3]), ("quick", [False]), ("nested", [])],
        )
        for make in (RoundRobinScheduler, lambda: RandomScheduler(5))
    ]
    conditions = [
        (EDGE_PROGRAMS["conditions"], "T", "c", threads, make)
        for threads in (
            [("outer", []), ("wake", [])],
            [("outer", []), ("outer", []), ("one", []), ("one", [])],
            [("oops", []), ("oops2", [])],
        )
        for make in (RoundRobinScheduler, lambda: RandomScheduler(1))
    ]
    allocation = [
        (EDGE_PROGRAMS["allocation"], "T", "x", threads, make)
        for threads in ([("fill", [2]), ("fill", [3]), ("bad", [])],)
        for make in (RoundRobinScheduler, lambda: RandomScheduler(7))
    ]
    operands = [
        (EDGE_PROGRAMS["operands"], "U", "p", threads, make)
        for threads in (
            [("draw", []), ("write", []), ("draw", [])],
            [("divide", [0]), ("write", []), ("both", [])],
            [("target", []), ("both", [])],
        )
        for make in (RoundRobinScheduler, lambda: RandomScheduler(2))
    ]
    return queue + sync + conditions + allocation + operands


EDGE_DRIVES = _edge_drives()


@pytest.mark.parametrize("case", range(len(EDGE_DRIVES)))
def test_edge_programs(case):
    source, seed_test, receiver, threads, make_scheduler = EDGE_DRIVES[case]
    table = load(source)

    def observe(make_vm):
        vm = make_vm(table, seed=1)
        recorder = Recorder()
        out = []
        for test in table.program.tests:
            result, env = vm.run_test(test.name, listeners=(recorder,))
            out.append((_summary(result), env))
        _, env = vm.run_test(seed_test)
        target = env[receiver]
        execution = Execution(vm, listeners=(recorder,))
        tids = [
            execution.spawn(
                lambda ctx, m=method, a=args: vm.interp.call_method(ctx, target, m, a)
            )
            for method, args in threads
        ]
        result = execution.run(make_scheduler(), max_steps=3_000)
        out.append(
            (
                format_trace(recorder.trace),
                _summary(result),
                [(execution.thread(t).status, execution.thread(t).result)
                 for t in tids],
                _counters(vm),
            )
        )
        return out

    assert_same(observe)


def test_sequential_bodies_compose_with_yield_from():
    table = load(BOUNDED_QUEUE)

    def observe(make_vm):
        vm = make_vm(table)
        _, env = vm.run_test("Seed")
        queue = env["q"]
        recorder = Recorder()
        execution = Execution(vm, listeners=(recorder,))

        def producer(ctx):
            for value in (1, 2, 3):
                yield from vm.interp.call_method(ctx, queue, "put", [value])
            return (yield from vm.interp.call_method(ctx, queue, "size", []))

        tid = execution.spawn(producer)
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
        result = execution.run(RoundRobinScheduler())
        size = execution.thread(tid).result
        return format_trace(recorder.trace), _summary(result), size

    assert_same(observe)


# ----------------------------------------------------------------------
# Hypothesis programs built with repro.lang.build.

FIELDS = ("a", "c")
METHODS = ("m0", "m1", "m2")

INTS = st.integers(0, 6).map(b.lit)
LEAVES = st.one_of(
    INTS,
    st.sampled_from(("x", "y")).map(b.var),
    st.sampled_from(FIELDS).map(b.this_get),
    st.just(b.get(b.this_get("next"), "a")),
    st.just(ast.Rand(result_type=INT)),
)


def _extend(children):
    arithmetic = st.sampled_from(["+", "-", "*", "/", "%"])
    receivers = st.sampled_from([b.this(), b.this_get("next")])
    return st.one_of(
        st.builds(b.binop, arithmetic, children, children),
        st.builds(lambda e: ast.Unary(op="-", operand=e), children),
        st.builds(b.call, receivers, st.sampled_from(METHODS), children),
    )


EXPRS = st.recursive(LEAVES, _extend, max_leaves=6)
CONDS = st.one_of(
    st.builds(b.binop, st.sampled_from(["<", "<=", "==", "!=", ">"]), EXPRS, EXPRS),
    st.builds(
        lambda op, l, r: b.binop(op, b.binop("<", l, r), b.binop(">", r, l)),
        st.sampled_from(["&&", "||"]),
        EXPRS,
        EXPRS,
    ),
    st.builds(lambda e: ast.Unary(op="!", operand=b.eq(e, b.lit(0))), EXPRS),
)


def _statements(children):
    return st.one_of(
        st.builds(b.set_this, st.sampled_from(FIELDS), EXPRS),
        st.builds(b.assign, st.just("y"), EXPRS),
        st.builds(b.iff, CONDS, children, st.none() | children),
        st.builds(lambda t: b.sync(b.this(), *t), children),
        st.builds(lambda t: b.sync(b.this_get("next"), *t), children),
        st.builds(
            lambda t: ast.While(
                cond=b.binop("<", b.var("i"), b.lit(2)),
                body=b.block(*t, b.assign("i", b.binop("+", b.var("i"), b.lit(1)))),
            ),
            children,
        ),
        st.builds(lambda e: b.ret(e), EXPRS),
        st.builds(b.expr_stmt, EXPRS),
        st.builds(lambda e: b.set_this("next", b.new("A", e)), EXPRS),
        st.just(b.expr_stmt(b.call(b.this(), "notifyAll"))),
    )


STMT_LISTS = st.recursive(
    st.lists(st.builds(b.set_this, st.sampled_from(FIELDS), EXPRS), max_size=2),
    lambda children: st.lists(_statements(children), min_size=1, max_size=3),
    max_leaves=6,
)


@st.composite
def built_programs(draw):
    methods = []
    for name in METHODS:
        body = [b.vdecl(INT, "y", b.lit(1)), b.vdecl(INT, "i", b.lit(0))]
        body += draw(STMT_LISTS)
        body.append(b.ret(draw(EXPRS)))
        methods.append(
            b.method(name, [b.param("x", INT)], INT, body, draw(st.booleans()))
        )
    fields = [
        ast.FieldDecl("a", INT, init=draw(st.none() | INTS)),
        ast.FieldDecl("c", INT),
        ast.FieldDecl("next", class_type("A")),
    ]
    ctor = b.constructor("A", [b.param("x", INT)], [b.set_this("c", b.var("x"))])
    link = b.method(
        "link", [b.param("n", "A")], VOID, [b.set_this("next", b.var("n"))]
    )
    test = b.test_decl(
        "T",
        [
            b.vdecl("A", "o", b.new("A", b.lit(draw(st.integers(0, 3))))),
            b.vdecl("A", "p", b.new("A", b.lit(2))),
            b.expr_stmt(b.call(b.var("o"), "link", b.var("p"))),
            b.expr_stmt(b.call(b.var("p"), "link", b.var("o"))),
            b.expr_stmt(b.call(b.var("o"), "m0", b.lit(1))),
        ],
    )
    cls = b.class_decl("A", fields, [ctor, link, *methods])
    source = pretty_program(b.program([cls], [test]))
    calls = st.tuples(st.sampled_from(METHODS), st.integers(0, 3))
    calls = draw(st.lists(calls, min_size=2, max_size=3))
    return source, calls, draw(st.integers(0, 999))


@settings(max_examples=40, deadline=None)
@given(built_programs())
def test_built_programs(case):
    source, calls, seed = case
    table = load(source)

    def observe(make_vm):
        vm = make_vm(table, seed=seed)
        recorder = Recorder()
        result, env = vm.run_test("T", listeners=(recorder,), max_steps=2_000)
        out = [_summary(result), env]
        target = env["o"]
        execution = Execution(vm, listeners=(recorder,))
        for method, arg in calls:
            execution.spawn(
                lambda ctx, m=method, x=arg: vm.interp.call_method(ctx, target, m, [x])
            )
        result = execution.run(RandomScheduler(seed), max_steps=2_000)
        out += [format_trace(recorder.trace), _summary(result), _counters(vm)]
        return out

    assert_same(observe)
