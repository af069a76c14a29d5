"""Tests for Maple-style interleaving coverage."""

from repro.analysis import analyze_traces, run_sweep
from repro.context import derive_plans
from repro.fuzz.coverage import (
    CoverageGuidedFuzzer,
    InterleavingCoverageProbe,
)
from repro.lang import load
from repro.pairs import generate_pairs
from repro.runtime import Execution, FixedScheduler, VM
from repro.synth import TestSynthesizer
from repro.trace import Recorder
from repro.trace.columnar import ColumnarRecorder

COUNTER = """
class Counter {
  int count;
  void inc() { int t = this.count; this.count = t + 1; }
  synchronized void safeInc() { int t = this.count; this.count = t + 1; }
}
test Seed { Counter c = new Counter(); c.inc(); }
"""


def synthesize(source=COUNTER):
    table = load(source)
    vm = VM(table)
    recorder = Recorder("Seed")
    vm.run_test("Seed", listeners=(recorder,))
    analysis = analyze_traces([recorder.trace])
    plans = derive_plans(generate_pairs(analysis), analysis, table)
    return table, TestSynthesizer(table).synthesize(plans)


class TestProbe:
    def _run(self, methods, schedule):
        table = load(COUNTER)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        receiver = env["c"]
        probe = InterleavingCoverageProbe()
        recorder = ColumnarRecorder(interests=probe.interests)
        execution = Execution(vm, listeners=(recorder,))
        tids = [
            execution.spawn(
                lambda ctx, m=method: vm.interp.call_method(ctx, receiver, m, [])
            )
            for method in methods
        ]
        execution.run(FixedScheduler([tids[i] for i in schedule]))
        run_sweep((probe,), recorder.packed)
        return probe

    def test_interleaved_run_covers_units(self):
        probe = self._run(["inc", "inc"], [0, 1] * 30)
        assert probe.units
        for cls, field_name, pred, succ in probe.units:
            assert (cls, field_name) == ("Counter", "count")
            assert pred > 0 and succ > 0

    def test_units_are_ordered_pairs(self):
        # With asymmetric thread bodies, running one thread first vs the
        # other produces *different* dependency directions — coverage
        # units are ordered, not symmetric conflicts.
        forward = self._run(["inc", "safeInc"], [0] * 30 + [1] * 30).units
        backward = self._run(["inc", "safeInc"], [1] * 30 + [0] * 30).units
        assert forward
        assert backward
        assert forward != backward

    def test_locked_methods_yield_units_but_no_races(self):
        # Coverage counts inter-thread dependencies whether or not they
        # are racy: a monitor-ordered handoff is still an interleaving
        # unit (Maple explores orderings, not just races).
        probe = self._run(["safeInc", "safeInc"], [0, 1] * 40)
        assert probe.units


class TestCoverageGuidedFuzzer:
    def test_saturates_and_finds_races(self):
        table, tests = synthesize()
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        fuzzer = CoverageGuidedFuzzer(table, plateau=3, max_runs=30)
        report = fuzzer.fuzz(inc_test)
        assert report.units
        assert len(report.races) >= 1
        # Growth curve is monotone non-decreasing with a flat tail.
        assert report.growth == sorted(report.growth)
        assert report.growth[-1] == report.growth[-2]

    def test_plateau_bounds_effort(self):
        table, tests = synthesize()
        fuzzer = CoverageGuidedFuzzer(table, plateau=2, max_runs=30)
        report = fuzzer.fuzz(tests[0])
        assert report.runs <= 30
        # Tiny tests saturate quickly: far fewer runs than the cap.
        assert report.runs < 30

    def test_deterministic(self):
        table, tests = synthesize()
        fuzzer = CoverageGuidedFuzzer(table, plateau=3, max_runs=20)
        first = fuzzer.fuzz(tests[0])
        second = CoverageGuidedFuzzer(table, plateau=3, max_runs=20).fuzz(
            tests[0]
        )
        assert first.units == second.units
        assert first.runs == second.runs
