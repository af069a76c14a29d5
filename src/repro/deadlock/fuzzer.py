"""Deadlock confirmation: random + directed scheduling of synthesized
deadlock tests.

A synthesized test deadlocks only under schedules where both threads
take their first monitor before either takes its second.  The directed
strategy forces exactly that: run thread 1 until its first acquisition,
then thread 2 until its first acquisition, then alternate — the VM's
built-in deadlock detection reports the hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import interest_union, run_sweep
from repro.deadlock.goodlock import GoodLockDetector, PotentialDeadlock
from repro.lang.classtable import ClassTable
from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler
from repro.runtime.vm import ThreadStatus
from repro.synth.runner import TestRunner, lazy_template
from repro.synth.synthesizer import SynthesizedTest
from repro.trace.columnar import ColumnarRecorder
from repro.trace.events import LockEvent

DIRECTED_STEP_BUDGET = 10_000

#: Recorder interest set for the deadlock stack (lock/unlock only).
_GOODLOCK_INTERESTS = interest_union((GoodLockDetector,))


@dataclass
class DeadlockFuzzReport:
    """Outcome of fuzzing one synthesized deadlock test."""

    test: SynthesizedTest
    random_runs: int = 0
    manifested: int = 0
    """Runs that actually deadlocked."""
    directed_manifested: bool = False
    potential: list[PotentialDeadlock] = field(default_factory=list)
    synthesis_failed: bool = False
    failure_trace: str | None = None
    """Full traceback behind ``synthesis_failed`` (kept for triage)."""

    @property
    def confirmed(self) -> bool:
        return self.manifested > 0 or self.directed_manifested

    def describe(self) -> str:
        status = "CONFIRMED" if self.confirmed else (
            "potential only" if self.potential else "nothing"
        )
        return (
            f"{self.test.name}: {status} "
            f"({self.manifested}/{self.random_runs} random runs deadlocked, "
            f"directed={'yes' if self.directed_manifested else 'no'}, "
            f"{len(self.potential)} potential cycle(s))"
        )


class DeadlockFuzzer:
    """Runs synthesized deadlock tests under hostile schedules."""

    def __init__(
        self, table: ClassTable, random_runs: int = 6, vm_seed: int = 0
    ) -> None:
        self._table = table
        self._random_runs = random_runs
        self._vm_seed = vm_seed

    def fuzz(self, test: SynthesizedTest) -> DeadlockFuzzReport:
        report = DeadlockFuzzReport(test=test)
        # Materialized on the first run and forked by every run.
        template = lazy_template(self._table, test, self._vm_seed)
        try:
            self._random_phase(test, template, report)
            if not report.manifested:
                report.directed_manifested = self._directed(
                    test, template, report
                )
        except Exception as error:
            import traceback

            from repro._util.errors import SynthesisError

            if isinstance(error, SynthesisError):
                report.synthesis_failed = True
                report.failure_trace = traceback.format_exc()
                return report
            raise
        return report

    def _random_phase(self, test, template, report) -> None:
        seen: set[tuple] = set()
        for run_index in range(self._random_runs):
            goodlock = GoodLockDetector()
            recorder = ColumnarRecorder(test.name, interests=_GOODLOCK_INTERESTS)
            runner = TestRunner(self._table, listeners=(recorder,))
            outcome = runner.run(
                template(), RandomScheduler(seed=run_index * 48_271 + 11)
            )
            run_sweep((goodlock,), recorder.packed)
            report.random_runs += 1
            result = outcome.concurrent_result
            if result is not None and result.deadlocked:
                report.manifested += 1
            for cycle in goodlock.potential:
                if cycle.static_key() not in seen:
                    seen.add(cycle.static_key())
                    report.potential.append(cycle)

    def _directed(self, test, template, report) -> bool:
        for leader in (0, 1):
            goodlock = GoodLockDetector()
            recorder = ColumnarRecorder(test.name, interests=_GOODLOCK_INTERESTS)
            runner = TestRunner(self._table, listeners=(recorder,))
            prepared = runner.prepare(template())
            if not prepared.ok:
                return False
            assert prepared.thread_ids is not None
            execution = prepared.execution
            assert execution is not None
            first = prepared.thread_ids[leader]
            second = prepared.thread_ids[1 - leader]
            self._run_until_first_lock(execution, first)
            self._run_until_first_lock(execution, second)
            outcome = runner.finish(prepared, RoundRobinScheduler())
            run_sweep((goodlock,), recorder.packed)
            for cycle in goodlock.potential:
                keys = {c.static_key() for c in report.potential}
                if cycle.static_key() not in keys:
                    report.potential.append(cycle)
            result = outcome.concurrent_result
            if result is not None and result.deadlocked:
                return True
        return False

    @staticmethod
    def _run_until_first_lock(execution, tid) -> None:
        for _ in range(DIRECTED_STEP_BUDGET):
            status = execution.thread(tid).status
            if status is not ThreadStatus.RUNNABLE:
                return
            event = execution.step(tid)
            if isinstance(event, LockEvent):
                return
