"""Tests for collectObjects, shareObjects, and test materialization."""

import pytest

from repro._util.errors import SynthesisError
from repro.analysis import analyze_traces
from repro.context import derive_plans
from repro.lang import load
from repro.pairs import generate_pairs
from repro.runtime import VM, RoundRobinScheduler
from repro.synth import SeedCollector, TestRunner, TestSynthesizer, materialize
from repro.trace import Recorder

WRAPPER = """
interface Q { void go(); int peek(); }
class Inner implements Q {
  int state;
  void go() { this.state = this.state + 1; }
  int peek() { return this.state; }
}
class Wrapper implements Q {
  Q inner;
  Wrapper(Q q) { this.inner = q; }
  void go() { synchronized (this) { this.inner.go(); } }
  int peek() { synchronized (this) { return this.inner.peek(); } }
}
test Seed {
  Inner i = new Inner();
  Wrapper w = new Wrapper(i);
  w.go();
  int n = w.peek();
}
"""


def build_tests(source=WRAPPER, test_names=("Seed",)):
    table = load(source)
    traces = []
    for name in test_names:
        vm = VM(table)
        recorder = Recorder(name)
        result, _ = vm.run_test(name, listeners=(recorder,))
        assert result.clean
        traces.append(recorder.trace)
    analysis = analyze_traces(traces)
    pairs = generate_pairs(analysis)
    plans = derive_plans(pairs, analysis, table)
    tests = TestSynthesizer(table).synthesize(plans)
    return table, tests


class TestSeedCollector:
    def test_collects_receiver_and_args(self):
        table = load(WRAPPER)
        vm = VM(table)
        collector = SeedCollector(vm)
        # Ordinal 0 is `new Wrapper(i)`: `new Inner()` has no declared
        # constructor, so it produces no client invocation.
        capture = collector.collect("Seed", 0)
        assert capture.class_name == "Wrapper"
        assert capture.method == "Wrapper"
        assert capture.arg_ref(0).class_name == "Inner"

    def test_suspension_preserves_state(self):
        # Collecting before w.go() leaves the inner counter untouched.
        table = load(WRAPPER)
        vm = VM(table)
        collector = SeedCollector(vm)
        capture = collector.collect("Seed", 1)  # w.go()
        assert capture.method == "go"
        wrapper = vm.heap.get(capture.receiver.ref)
        inner = vm.heap.get(wrapper.fields["inner"].ref)
        assert inner.fields["state"] == 0

    def test_each_collection_gets_fresh_objects(self):
        table = load(WRAPPER)
        vm = VM(table)
        collector = SeedCollector(vm)
        first = collector.collect("Seed", 0)
        second = collector.collect("Seed", 0)
        assert first.receiver.ref != second.receiver.ref
        assert first.arg_ref(0).ref != second.arg_ref(0).ref

    def test_out_of_range_ordinal_raises(self):
        table = load(WRAPPER)
        collector = SeedCollector(VM(table))
        with pytest.raises(SynthesisError):
            collector.collect("Seed", 99)

    def test_unknown_test_raises(self):
        table = load(WRAPPER)
        collector = SeedCollector(VM(table))
        with pytest.raises(SynthesisError):
            collector.collect("Nope", 0)

    def test_a_seed_test_body_compiles_once(self, monkeypatch):
        """Collections and runs of one parsed test share its compiled
        body, across VMs; another parse of the source compiles anew."""
        import repro.runtime.interp as interp

        compiled = []
        real = interp._client_code

        def counting(stmts):
            compiled.append(stmts)
            return real(stmts)

        monkeypatch.setattr(interp, "_client_code", counting)
        table = load(WRAPPER)
        for _ in range(2):
            vm = VM(table)
            collector = SeedCollector(vm)
            collector.collect("Seed", 0)
            collector.collect("Seed", 1)
            assert vm.run_test("Seed")[0].clean
        assert len(compiled) == 1
        assert compiled[0] == table.program.test_decl("Seed").body.stmts
        VM(load(WRAPPER)).run_test("Seed")
        assert len(compiled) == 2


class TestMaterialization:
    def test_shared_slot_binds_to_one_object(self):
        table, tests = build_tests()
        test = next(t for t in tests if t.plan.shared_slot is not None
                    and t.plan.shared_slot.class_name == "Inner"
                    and t.plan.left.setter_calls)
        mat = materialize(test, VM(table))
        runner = TestRunner(table)
        outcome = runner.run(mat, RoundRobinScheduler())
        assert outcome.clean
        vm = outcome.materialized.vm
        # Both wrappers constructed by the setup must wrap one Inner.
        wrappers = [
            obj for obj in vm.heap.objects()
            if obj.class_name == "Wrapper" and obj.fields.get("inner") is not None
        ]
        setup_wrappers = [w for w in wrappers]
        inner_refs = {w.fields["inner"].ref for w in setup_wrappers[-2:]}
        assert len(inner_refs) == 1

    def test_render_mentions_threads(self):
        table, tests = build_tests()
        mat = materialize(tests[0], VM(table))
        rendered = mat.render()
        assert "Thread t1" in rendered
        assert "Thread t2" in rendered
        assert "t1.start(); t2.start();" in rendered

    def test_materialization_deterministic(self):
        table, tests = build_tests()
        mat1 = materialize(tests[0], VM(table, seed=5))
        mat2 = materialize(tests[0], VM(table, seed=5))
        assert mat1.render() == mat2.render()

    def test_dedup_covers_multiple_pairs(self):
        table, tests = build_tests()
        covered = sum(len(t.covered_pairs) for t in tests)
        table2, _ = table, None
        # There are at least as many pairs as tests (dedup never loses).
        assert covered >= len(tests)

    def test_unique_test_names(self):
        _, tests = build_tests()
        names = [t.name for t in tests]
        assert len(names) == len(set(names))


class TestRunnerBehaviour:
    def test_run_executes_both_threads(self):
        table, tests = build_tests()
        test = next(t for t in tests if t.plan.left.setter_calls)
        runner = TestRunner(table)
        outcome = runner.run(test, RoundRobinScheduler())
        assert outcome.clean
        assert outcome.thread_ids is not None
        # The shared inner object saw both increments or lost one; in a
        # round-robin schedule of go();go() it must have advanced.
        inners = [
            obj
            for obj in outcome.materialized.vm.heap.objects()
            if obj.class_name == "Inner"
        ]
        assert any(obj.fields["state"] > 0 for obj in inners)

    def test_failed_setup_reported(self):
        # A test whose setter faults must not reach the racy phase.
        source = WRAPPER.replace(
            "Wrapper(Q q) { this.inner = q; }",
            "Wrapper(Q q) { this.inner = q; int bad = 1 / 0; }",
        )
        with pytest.raises(Exception):
            # Seed itself faults now, so building already fails; this
            # guards against silent acceptance of faulting seeds.
            build_tests(source)

    def test_a_template_compiles_its_statement_lists_once(self, monkeypatch):
        """Every run of a template and its forks reuses the code of its
        setup and thread statement lists; a fresh list compiles anew."""
        import repro.runtime.interp as interp

        compiled = []
        real = interp._client_code

        def counting(stmts):
            compiled.append(stmts)
            return real(stmts)

        monkeypatch.setattr(interp, "_client_code", counting)
        table, tests = build_tests()
        test = next(t for t in tests if t.plan.left.setter_calls)
        template = materialize(test, VM(table))
        compiled.clear()  # seed collection runs the seed test's body
        runner = TestRunner(table)
        outcomes = [runner.run(template, RoundRobinScheduler()) for _ in range(3)]
        assert all(outcome.clean for outcome in outcomes)
        lists = [template.setup_stmts, *template.thread_stmts]
        assert len(compiled) == 3
        assert all(any(s is c for c in compiled) for s in lists)
        copy = type(template.setup_stmts)(template.setup_stmts)
        template.fork().vm.run_client_stmts(copy, env=dict(template.env))
        assert len(compiled) == 4 and compiled[-1] is copy
