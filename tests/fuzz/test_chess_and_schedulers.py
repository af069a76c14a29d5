"""Tests for bounded systematic exploration, PCT, and schedule replay."""

from repro.analysis import analyze_traces, run_sweep
from repro.context import derive_plans
from repro.detect import FastTrackDetector
from repro.fuzz import BoundedExplorer, explore_test
from repro.lang import load
from repro.pairs import generate_pairs
from repro.runtime import (
    PCTScheduler,
    RandomScheduler,
    RecordingScheduler,
    VM,
)
from repro.synth import TestRunner, TestSynthesizer
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

# C4-style: pairs exist (the hidden buffer is touched without *its*
# lock) but the only derivable sharing is the receiver, and the
# synchronized methods then serialize -> tests that can never race.
SAFE = """
class Hidden { int v; }
class Safe {
  Hidden secret;
  Safe() { this.secret = new Hidden(); }
  synchronized void poke() { this.secret.v = this.secret.v + 1; }
}
test Seed { Safe c = new Safe(); c.poke(); }
"""


def synthesize(source):
    table = load(source)
    vm = VM(table)
    recorder = Recorder("Seed")
    vm.run_test("Seed", listeners=(recorder,))
    analysis = analyze_traces([recorder.trace])
    plans = derive_plans(generate_pairs(analysis), analysis, table)
    tests = TestSynthesizer(table).synthesize(plans)
    return table, tests


def run_with_fasttrack(table, test, scheduler):
    """Run ``test`` once, recording it, and sweep FastTrack over it."""
    detector = FastTrackDetector()
    recorder = ColumnarRecorder(test.name, interests=detector.interests)
    TestRunner(table, listeners=(recorder,)).run(test, scheduler)
    run_sweep((detector,), recorder.packed)
    return detector


class TestBoundedExplorer:
    def test_exhaustive_with_bound_two_finds_all_races(self):
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        result = explore_test(table, inc_test, preemption_bound=2)
        assert result.exhausted
        assert result.race_count >= 2
        # Every race comes with a replayable schedule certificate.
        for key in result.races.static_keys():
            assert result.first_schedule_for(key) is not None

    def test_bound_zero_finds_serialized_races_only(self):
        # Bound 0 = fully non-preemptive schedules.  The unsynchronized
        # counter race still shows (no HB between serialized threads),
        # and exploration is tiny.
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        bounded = BoundedExplorer(table, preemption_bound=0)
        result = bounded.explore(inc_test)
        assert result.exhausted
        assert result.schedules_run <= 4

    def test_monotone_in_bound(self):
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        runs = {}
        races = {}
        for bound in (0, 1, 2):
            result = BoundedExplorer(table, preemption_bound=bound).explore(
                inc_test
            )
            assert result.exhausted
            runs[bound] = result.schedules_run
            races[bound] = result.races.static_keys()
        assert runs[0] <= runs[1] <= runs[2]
        assert races[0] <= races[1] <= races[2]

    def test_synchronized_test_explores_clean(self):
        table, tests = synthesize(SAFE)
        result = explore_test(table, tests[0], preemption_bound=2)
        assert result.exhausted
        assert result.race_count == 0
        assert not result.deadlock_schedules
        assert not result.fault_schedules

    def test_schedule_certificate_replays_the_race(self):
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        result = explore_test(table, inc_test, preemption_bound=2)
        key = next(iter(result.races.static_keys()))
        schedule = result.first_schedule_for(key)

        from repro.runtime.scheduler import FixedScheduler

        detector = run_with_fasttrack(
            table, inc_test, FixedScheduler(schedule)
        )
        assert key in detector.races.static_keys()

    def test_max_schedules_cap_reported(self):
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        result = BoundedExplorer(
            table, preemption_bound=2, max_schedules=3
        ).explore(inc_test)
        assert result.schedules_run == 3
        assert not result.exhausted


class TestRecordingReplay:
    def test_replay_reproduces_races_exactly(self):
        table, tests = synthesize(COUNTER)
        test = tests[0]
        for seed in range(5):
            recording = RecordingScheduler(RandomScheduler(seed))
            original = run_with_fasttrack(table, test, recording)
            replayed = run_with_fasttrack(
                table, test, recording.log.replayer()
            )
            assert original.races.static_keys() == replayed.races.static_keys()

    def test_log_length_matches_steps(self):
        table, tests = synthesize(COUNTER)
        recording = RecordingScheduler(RandomScheduler(0))
        outcome = TestRunner(table).run(tests[0], recording)
        assert outcome.concurrent_result is not None
        assert len(recording.log) == outcome.concurrent_result.steps


class TestPCT:
    def test_pct_finds_the_race_quickly(self):
        table, tests = synthesize(COUNTER)
        inc_test = next(
            t for t in tests if t.plan.left.side.method_id()[1] == "inc"
        )
        found_at = None
        for attempt in range(20):
            detector = run_with_fasttrack(
                table, inc_test, PCTScheduler(seed=attempt, expected_steps=60)
            )
            if detector.races:
                found_at = attempt
                break
        assert found_at is not None

    def test_pct_deterministic_per_seed(self):
        table, tests = synthesize(COUNTER)
        test = tests[0]

        def run(seed):
            detector = run_with_fasttrack(
                table, test, PCTScheduler(seed=seed, expected_steps=60)
            )
            return detector.races.static_keys()

        assert run(3) == run(3)

    def test_pct_respects_runnable_set(self):
        scheduler = PCTScheduler(seed=1)
        for _ in range(50):
            assert scheduler.pick([4, 7], 4) in (4, 7)
