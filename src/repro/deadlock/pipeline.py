"""End-to-end deadlock-test synthesis pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import analyze_traces
from repro.context.plan import TestPlan
from repro.deadlock.analysis import LockOrderAnalyzer, LockOrderSummary
from repro.deadlock.fuzzer import DeadlockFuzzer, DeadlockFuzzReport
from repro.deadlock.synth import (
    DeadlockContextDeriver,
    DeadlockPair,
    generate_deadlock_pairs,
)
from repro.lang import ClassTable, load
from repro.runtime import VM
from repro.synth import SynthesizedTest, TestSynthesizer
from repro.trace import ColumnarRecorder, PackedTrace


@dataclass
class DeadlockSynthesisReport:
    """Everything the deadlock pipeline produced for one program."""

    lock_summaries: list[LockOrderSummary]
    pairs: list[DeadlockPair]
    plans: list[TestPlan] = field(default_factory=list)
    underivable: list[DeadlockPair] = field(default_factory=list)
    tests: list[SynthesizedTest] = field(default_factory=list)


class DeadlockPipeline:
    """Library + seed suite in, deadlock tests + confirmations out."""

    def __init__(self, source_or_table: str | ClassTable, seed: int = 0) -> None:
        if isinstance(source_or_table, str):
            self.table = load(source_or_table)
        else:
            self.table = source_or_table
        self.seed = seed
        self._traces: list[PackedTrace] | None = None

    def run_seed_suite(self) -> list[PackedTrace]:
        """Record the seed suite as packed traces (full interest set).

        Both downstream analyses — lock-order extraction and the race
        analysis feeding the setter database — consume the packed form
        through the sweep engine / packed analyzer paths.
        """
        if self._traces is None:
            traces = []
            for test in self.table.program.tests:
                vm = VM(self.table, seed=self.seed)
                recorder = ColumnarRecorder(test.name)
                vm.run_test(test.name, listeners=(recorder,))
                traces.append(recorder.packed)
            self._traces = traces
        return self._traces

    def synthesize(self, target_class: str | None = None) -> DeadlockSynthesisReport:
        traces = self.run_seed_suite()
        lock_summaries = LockOrderAnalyzer().analyze_all(traces)
        pairs = generate_deadlock_pairs(lock_summaries, target_class=target_class)
        # The setter database comes from the *race* analysis of the same
        # traces — the whole point of the shared infrastructure.
        deriver = DeadlockContextDeriver(analyze_traces(traces), self.table)
        report = DeadlockSynthesisReport(
            lock_summaries=lock_summaries, pairs=pairs
        )
        for pair in pairs:
            plan = deriver.derive(pair)
            if plan is None:
                report.underivable.append(pair)
            else:
                report.plans.append(plan)
        report.tests = TestSynthesizer(
            self.table, name_prefix="Deadlock"
        ).synthesize(report.plans)
        return report

    def confirm(
        self, report: DeadlockSynthesisReport, random_runs: int = 6
    ) -> list[DeadlockFuzzReport]:
        fuzzer = DeadlockFuzzer(
            self.table, random_runs=random_runs, vm_seed=self.seed
        )
        return [fuzzer.fuzz(test) for test in report.tests]
