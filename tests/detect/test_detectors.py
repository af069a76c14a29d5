"""Scenario tests for the Eraser, FastTrack, and Djit+ detectors.

Each scenario records its execution with a ``ColumnarRecorder`` over the
detectors' interests and sweeps the detectors over the packed trace.
"""

import pytest

from repro.analysis.sweep import interest_union, run_sweep
from repro.detect import (
    DjitDetector,
    EraserDetector,
    FastTrackDetector,
    collect_constant_write_sites,
)
from repro.lang import load
from repro.runtime import Execution, FixedScheduler, RoundRobinScheduler, VM
from repro.trace.columnar import ColumnarRecorder

COUNTER = """
class Counter {
  int count;
  int snapshot;
  void inc() { int t = this.count; this.count = t + 1; }
  synchronized void safeInc() { int t = this.count; this.count = t + 1; }
  int get() { return this.count; }
  synchronized int safeGet() { return this.count; }
  void resetToZero() { this.count = 0; }
  void copy() { this.snapshot = this.count; }
}
test Seed { Counter c = new Counter(); }
"""

ALL_DETECTORS = [EraserDetector, FastTrackDetector, DjitDetector]


def recorder_for(detectors) -> ColumnarRecorder:
    """A recorder keeping every row ``detectors`` handle."""
    return ColumnarRecorder(interests=interest_union(detectors))


def run_concurrent(methods, source=COUNTER, scheduler=None, detectors=None):
    """Run the listed methods concurrently on one shared object."""
    table = load(source)
    vm = VM(table)
    _, env = vm.run_test("Seed")
    receiver = env["c"]
    dets = detectors if detectors is not None else [cls() for cls in ALL_DETECTORS]
    recorder = recorder_for(dets)
    execution = Execution(vm, listeners=(recorder,))
    for method in methods:
        execution.spawn(
            lambda ctx, m=method: vm.interp.call_method(ctx, receiver, m, [])
        )
    execution.run(scheduler or RoundRobinScheduler())
    run_sweep(dets, recorder.packed)
    return dets, table


class TestWriteWriteRaces:
    @pytest.mark.parametrize("detector_cls", ALL_DETECTORS)
    def test_unsynchronized_writes_race(self, detector_cls):
        dets, _ = run_concurrent(["inc", "inc"], detectors=[detector_cls()])
        assert len(dets[0].races) >= 1
        record = dets[0].races.races[0]
        assert (record.class_name, record.field_name) == ("Counter", "count")

    @pytest.mark.parametrize("detector_cls", ALL_DETECTORS)
    def test_synchronized_writes_do_not_race(self, detector_cls):
        dets, _ = run_concurrent(["safeInc", "safeInc"], detectors=[detector_cls()])
        assert len(dets[0].races) == 0


class TestReadWriteRaces:
    @pytest.mark.parametrize("detector_cls", ALL_DETECTORS)
    def test_read_vs_write_races(self, detector_cls):
        dets, _ = run_concurrent(["get", "inc"], detectors=[detector_cls()])
        assert len(dets[0].races) >= 1

    @pytest.mark.parametrize("detector_cls", [FastTrackDetector, DjitDetector])
    def test_read_read_is_not_a_race(self, detector_cls):
        dets, _ = run_concurrent(["get", "get"], detectors=[detector_cls()])
        assert len(dets[0].races) == 0

    @pytest.mark.parametrize("detector_cls", [FastTrackDetector, DjitDetector])
    def test_locked_read_vs_unlocked_write_races(self, detector_cls):
        # One side holding a lock does not help if the other side is free.
        dets, _ = run_concurrent(["safeGet", "inc"], detectors=[detector_cls()])
        assert len(dets[0].races) >= 1


class TestHappensBefore:
    def test_fork_edge_orders_parent_writes(self):
        # Writes made by the seed (setup) thread must not race with the
        # spawned threads when a ForkEvent is present.
        table = load(COUNTER)
        vm = VM(table)
        detector = FastTrackDetector()
        recorder = recorder_for((detector,))
        _, env = vm.run_test("Seed", listeners=(recorder,))
        receiver = env["c"]
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, receiver, "inc", []), parent=0
        )
        execution.run(RoundRobinScheduler())
        run_sweep((detector,), recorder.packed)
        assert len(detector.races) == 0

    def test_missing_fork_edge_reports_setup_race(self):
        table = load(COUNTER)
        vm = VM(table)
        detector = FastTrackDetector()
        recorder = recorder_for((detector,))
        _, env = vm.run_test("Seed", listeners=(recorder,))
        receiver = env["c"]
        # Seed only allocates; make the main thread write first.
        execution0 = Execution(vm, listeners=(recorder,))
        execution0.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "inc", []))
        execution0.run(RoundRobinScheduler())
        # No parent= edge: the next thread appears unordered.
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "inc", []))
        execution.run(RoundRobinScheduler())
        run_sweep((detector,), recorder.packed)
        assert len(detector.races) >= 1

    def test_lock_release_acquire_creates_order(self):
        # safeInc ; safeInc through the same monitor is ordered even
        # across threads -> no race on count.
        dets, _ = run_concurrent(["safeInc", "safeInc"])
        for det in dets:
            assert len(det.races) == 0


class TestEraserSpecifics:
    def test_initialization_not_flagged(self):
        # A variable written by one thread then read by the same thread
        # stays EXCLUSIVE: no race.
        dets, _ = run_concurrent(["inc"], detectors=[EraserDetector()])
        assert len(dets[0].races) == 0

    def test_lockset_refinement_keeps_common_lock(self):
        dets, _ = run_concurrent(
            ["safeInc", "safeInc", "safeInc"], detectors=[EraserDetector()]
        )
        assert len(dets[0].races) == 0

    def test_eraser_flags_unordered_but_lock_disjoint(self):
        # Serialized by schedule but no common lock: Eraser still flags
        # (its lockset view is schedule-insensitive) - this is the
        # over-approximation that feeds the paper's "manual" column.
        table = load(COUNTER)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        receiver = env["c"]
        eraser = EraserDetector()
        fasttrack = FastTrackDetector()
        recorder = recorder_for((eraser, fasttrack))
        execution = Execution(vm, listeners=(recorder,))
        t1 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, receiver, "inc", [])
        )
        t2 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, receiver, "inc", [])
        )
        execution.run(FixedScheduler([t1] * 50 + [t2] * 50))
        run_sweep((eraser, fasttrack), recorder.packed)
        assert len(eraser.races) >= 1
        # FastTrack also reports here because there is genuinely no HB
        # edge between the two threads (no fork edge registered).
        assert len(fasttrack.races) >= 1


class TestBenignClassification:
    def test_constant_reset_race_is_benign(self):
        table = load(COUNTER)
        constant_sites = collect_constant_write_sites(table.program)
        dets, _ = run_concurrent(
            ["resetToZero", "resetToZero"], detectors=[FastTrackDetector()]
        )
        races = dets[0].races.races
        assert races
        assert all(r.is_benign(constant_sites) for r in races)

    def test_lost_update_is_harmful_even_with_equal_values(self):
        # Both threads read 0 and write 1: equal written values, but the
        # sites are not constant writes -> harmful.
        table = load(COUNTER)
        constant_sites = collect_constant_write_sites(table.program)
        dets, _ = run_concurrent(["inc", "inc"], detectors=[FastTrackDetector()])
        write_write = [
            r
            for r in dets[0].races.races
            if r.first.kind == "W" and r.second.kind == "W"
        ]
        assert write_write
        assert all(not r.is_benign(constant_sites) for r in write_write)


class TestArrayAddresses:
    SOURCE = """
    class Buf {
      IntArray data;
      Buf() { this.data = new IntArray(4); }
      void setAt(int i, int v) { this.data.set(i, v); }
    }
    test Seed { Buf c = new Buf(); }
    """

    def test_disjoint_elements_do_not_race(self):
        table = load(self.SOURCE)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        receiver = env["c"]
        detector = FastTrackDetector()
        recorder = recorder_for((detector,))
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "setAt", [0, 1]))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "setAt", [1, 2]))
        execution.run(RoundRobinScheduler())
        run_sweep((detector,), recorder.packed)
        assert len(detector.races) == 0

    def test_same_element_races(self):
        table = load(self.SOURCE)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        receiver = env["c"]
        detector = FastTrackDetector()
        recorder = recorder_for((detector,))
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "setAt", [2, 1]))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, receiver, "setAt", [2, 9]))
        execution.run(RoundRobinScheduler())
        run_sweep((detector,), recorder.packed)
        assert len(detector.races) == 1
        assert detector.races.races[0].field_name == "elem"


class TestRaceSetDedup:
    def test_static_dedup_counts_dynamic_occurrences(self):
        from repro.detect import AccessInfo, RaceRecord, RaceSet

        record = RaceRecord(
            detector="x",
            class_name="A",
            field_name="f",
            address=(1, "f", None),
            first=AccessInfo(0, 10, 1, "W", 1),
            second=AccessInfo(1, 11, 2, "W", 2),
        )
        again = RaceRecord(
            detector="x",
            class_name="A",
            field_name="f",
            address=(2, "f", None),  # different object, same sites
            first=AccessInfo(0, 11, 5, "W", 1),
            second=AccessInfo(1, 10, 6, "W", 2),
        )
        races = RaceSet()
        assert races.add(record)
        assert not races.add(again)
        assert len(races) == 1
        assert races.dynamic_count == 2
