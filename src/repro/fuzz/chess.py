"""Chess-style iterative context-bounded systematic exploration.

Musuvathi & Qadeer, *Iterative context bounding for systematic testing
of multithreaded programs* (PLDI 2007) — cited by the paper (§6) as a
consumer of multithreaded tests.  Given a synthesized test, the explorer
enumerates **all** schedules with at most ``preemption_bound``
preemptions (a context switch taken while the current thread could have
continued), executing each on a fresh fork of the materialized test,
recording it, and sweeping FastTrack over the recorded trace.

Because the VM is deterministic, stateless exploration is exact: a
schedule is fully described by its thread-choice sequence, and depth-
first enumeration over the branch points visits each bounded schedule
once.  Data races are depth-2 bugs, so a preemption bound of 2 finds
every race a synthesized test can express — with a *certificate*: the
exact schedule log that triggers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import interest_union, run_sweep
from repro.detect.fasttrack import FastTrackDetector
from repro.detect.report import RaceSet
from repro.lang.classtable import ClassTable
from repro.runtime.vm import ThreadStatus
from repro.synth.runner import TemplateSource, TestRunner
from repro.synth.synthesizer import MaterializedTest, SynthesizedTest
from repro.trace.columnar import ColumnarRecorder

#: Safety valves for the exhaustive search.
DEFAULT_MAX_SCHEDULES = 2_000
DEFAULT_MAX_STEPS = 4_000

#: Recorder interests of each explored schedule, swept by FastTrack.
_INTERESTS = interest_union((FastTrackDetector,))


@dataclass
class ChessResult:
    """Outcome of a bounded systematic exploration of one test."""

    test_name: str
    preemption_bound: int
    schedules_run: int = 0
    exhausted: bool = False
    """True when every schedule within the bound was executed."""
    races: RaceSet = field(default_factory=RaceSet)
    race_schedules: dict[tuple, list[int]] = field(default_factory=dict)
    """Race static key -> the first schedule (choice log) exposing it."""
    deadlock_schedules: list[list[int]] = field(default_factory=list)
    fault_schedules: list[list[int]] = field(default_factory=list)

    @property
    def race_count(self) -> int:
        return len(self.races)

    def first_schedule_for(self, key: tuple) -> list[int] | None:
        return self.race_schedules.get(key)


class BoundedExplorer:
    """Exhaustive schedule enumeration under a preemption bound."""

    def __init__(
        self,
        table: ClassTable,
        preemption_bound: int = 2,
        max_schedules: int = DEFAULT_MAX_SCHEDULES,
        max_steps: int = DEFAULT_MAX_STEPS,
        vm_seed: int = 0,
    ) -> None:
        self._table = table
        self._bound = preemption_bound
        self._max_schedules = max_schedules
        self._max_steps = max_steps
        self._vm_seed = vm_seed

    def explore(self, test: SynthesizedTest) -> ChessResult:
        """Run every schedule of ``test`` within the preemption bound."""
        result = ChessResult(
            test_name=test.name, preemption_bound=self._bound
        )
        # DFS over schedule prefixes.  Each stack entry is a list of
        # forced thread choices; execution continues non-preemptively
        # after the prefix, and every point where another thread could
        # have been chosen (within budget) spawns a new prefix.
        stack: list[list[int]] = [[]]
        seen_prefixes: set[tuple[int, ...]] = set()
        # Materialized on the first schedule and forked by every one.
        template = TemplateSource(self._table, self._vm_seed).template(test)
        while stack and result.schedules_run < self._max_schedules:
            prefix = stack.pop()
            branches = self._run_schedule(template(), prefix, result)
            for branch in branches:
                key = tuple(branch)
                if key not in seen_prefixes:
                    seen_prefixes.add(key)
                    stack.append(branch)
        result.exhausted = not stack
        return result

    # ------------------------------------------------------------------

    def _run_schedule(
        self, template: MaterializedTest, prefix: list[int], result: ChessResult
    ) -> list[list[int]]:
        """Execute one schedule; returns newly discovered branch prefixes."""
        recorder = ColumnarRecorder(template.test.name, interests=_INTERESTS)
        runner = TestRunner(self._table, listeners=(recorder,))
        prepared = runner.prepare(template)
        if not prepared.ok:
            return []
        execution = prepared.execution
        assert execution is not None

        choices: list[int] = []
        branches: list[list[int]] = []
        preemptions = 0
        last: int | None = None
        step = 0
        while step < self._max_steps:
            runnable = sorted(execution.runnable_threads())
            if not runnable:
                break
            if len(choices) < len(prefix):
                chosen = prefix[len(choices)]
                if chosen not in runnable:
                    # Replay divergence (should not happen in a
                    # deterministic VM); abandon this prefix.
                    return []
            else:
                chosen = last if last in runnable else runnable[0]
                # Branch points: scheduling any *other* runnable thread.
                for alternative in runnable:
                    if alternative == chosen:
                        continue
                    cost = 1 if (last in runnable and alternative != last) else 0
                    if preemptions + cost <= self._bound:
                        branches.append(choices + [alternative])
            if last is not None and last in runnable and chosen != last:
                preemptions += 1
            choices.append(chosen)
            execution.step(chosen)
            last = chosen
            step += 1

        runner.finish(prepared, _DrainScheduler())
        result.schedules_run += 1
        detector = FastTrackDetector()
        run_sweep((detector,), recorder.packed)
        self._absorb(result, detector, choices, execution)
        return branches

    @staticmethod
    def _absorb(result: ChessResult, detector, choices, execution) -> None:
        for record in detector.races:
            key = record.static_key()
            if result.races.add(record):
                result.race_schedules[key] = list(choices)
            else:
                result.race_schedules.setdefault(key, list(choices))
        live = execution.live_threads()
        if live and all(
            execution.thread(t).status is ThreadStatus.BLOCKED for t in live
        ):
            result.deadlock_schedules.append(list(choices))
        for tid in execution.thread_ids():
            if execution.thread(tid).status is ThreadStatus.FAULTED:
                result.fault_schedules.append(list(choices))
                break


class _DrainScheduler:
    """Round-robin finisher used after the controlled phase ends."""

    def pick(self, runnable, last):
        return sorted(runnable)[0]


def explore_test(
    table: ClassTable,
    test: SynthesizedTest,
    preemption_bound: int = 2,
    max_schedules: int = DEFAULT_MAX_SCHEDULES,
) -> ChessResult:
    """Convenience wrapper over :class:`BoundedExplorer`."""
    explorer = BoundedExplorer(
        table, preemption_bound=preemption_bound, max_schedules=max_schedules
    )
    return explorer.explore(test)
