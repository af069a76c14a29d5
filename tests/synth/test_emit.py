"""Standalone test emission: synthesized tests as portable MiniJ source."""

import pytest

from repro._util.errors import SynthesisError
from repro.analysis.sweep import run_sweep
from repro.detect import FastTrackDetector
from repro.lang import load
from repro.narada import Narada
from repro.runtime import Execution, RandomScheduler, VM
from repro.subjects import get_subject
from repro.synth.emit import client_invocation_sites, emit_standalone_program
from repro.trace.columnar import ColumnarRecorder

COUNTER = """
class Counter {
  int count;
  void inc() { int t = this.count; this.count = t + 1; }
  int get() { return this.count; }
}
test Seed { Counter c = new Counter(); c.inc(); int n = c.get(); }
"""


def run_standalone(source, test_name, runs=6):
    table = load(source)
    races = set()
    clean = True
    for seed in range(runs):
        vm = VM(table)
        detector = FastTrackDetector()
        test = table.program.test_decl(test_name)
        recorder = ColumnarRecorder(test_name, interests=detector.interests)
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(
            lambda ctx, body=test.body.stmts: vm.interp.run_client_stmts(
                body, ctx, {}
            )
        )
        result = execution.run(RandomScheduler(seed))
        run_sweep((detector,), recorder.packed)
        clean = clean and result.completed and not result.faults
        races |= detector.races.static_keys()
    return races, clean


class TestInvocationSites:
    def test_sites_match_trace_ordinals(self):
        # The static walker must agree with the dynamic client
        # invocation count for every subject seed.
        from repro.trace import Recorder

        for key in ("C1", "C3", "C5", "C9"):
            subject = get_subject(key)
            table = subject.load()
            for test in table.program.tests:
                vm = VM(table)
                recorder = Recorder(test.name)
                vm.run_test(test.name, listeners=(recorder,))
                dynamic = recorder.trace.client_invocations()
                static = client_invocation_sites(test, table)
                assert len(static) == len(dynamic), (key, test.name)
                for site, event in zip(static, dynamic):
                    assert site.method == event.method, (key, test.name)

    def test_builtin_array_calls_not_counted(self):
        source = """
        class A { void m() { } }
        test Seed {
          IntArray buf = new IntArray(4);
          buf.set(0, 1);
          int v = buf.get(0);
          A a = new A();
          a.m();
        }
        """
        table = load(source)
        sites = client_invocation_sites(table.program.tests[0], table)
        assert [s.method for s in sites] == ["m"]

    def test_non_straight_line_rejected(self):
        source = """
        class A { void m() { } }
        test Seed {
          A a = new A();
          if (true) { a.m(); }
        }
        """
        table = load(source)
        with pytest.raises(SynthesisError):
            client_invocation_sites(table.program.tests[0], table)


class TestEmittedPrograms:
    def _emit(self, source_or_table, class_name, count=4):
        narada = Narada(
            source_or_table if isinstance(source_or_table, str) else source_or_table
        )
        report = narada.synthesize_for_class(class_name)
        tests = report.tests[:count]
        return narada, tests, emit_standalone_program(narada.table, tests)

    def test_emitted_program_loads(self):
        _, tests, source = self._emit(COUNTER, "Counter")
        table = load(source)
        for test in tests:
            assert table.program.test_decl(test.name) is not None

    def test_counter_race_reproduces_standalone(self):
        narada, tests, source = self._emit(COUNTER, "Counter")
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        races, clean = run_standalone(source, inc_test.name)
        assert clean
        assert any(key[:2] == ("Counter", "count") for key in races)

    def test_c1_figure3_reproduces_standalone(self):
        subject = get_subject("C1")
        narada = Narada(subject.load())
        report = narada.synthesize_for_class(subject.class_name)
        figure3 = next(
            t
            for t in report.tests
            if t.plan.shared_slot is not None
            and t.plan.shared_slot.class_name == "CoalescedWriteBehindQueue"
            and t.plan.full_context
        )
        source = emit_standalone_program(narada.table, [figure3])
        assert "fork {" in source
        races, clean = run_standalone(source, figure3.name)
        assert clean
        assert any(
            key[:2] == ("CoalescedWriteBehindQueue", "count") for key in races
        )

    def test_emitted_matches_materialized_races(self):
        # The standalone form must find the same racy fields the
        # VM-materialized form finds.
        from repro.fuzz import RaceFuzzer

        narada, tests, source = self._emit(COUNTER, "Counter")
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        fuzz = RaceFuzzer(narada.table, random_runs=6).fuzz(inc_test)
        materialized_fields = {
            key[:2] for key in fuzz.detected.static_keys()
        }
        standalone_races, _ = run_standalone(source, inc_test.name, runs=10)
        standalone_fields = {key[:2] for key in standalone_races}
        assert materialized_fields <= standalone_fields

    def test_cli_emit_run_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "standalone.minij"
        assert main(
            ["emit", "--subject", "C9", "--count", "2", "-o", str(out_file)]
        ) == 0
        capsys.readouterr()
        code = main(["run", str(out_file), "--runs", "4"])
        out = capsys.readouterr().out
        assert "race(s)" in out
        assert code == 1  # races found => nonzero, CI-style
