"""Condition synchronization: wait / notify / notifyAll semantics."""

import pytest

from repro.lang import load
from repro.runtime import Execution, RandomScheduler, RoundRobinScheduler, VM
from repro.trace import Recorder
from repro.trace.events import LockEvent, NotifyEvent, UnlockEvent, WaitEvent

BOUNDED_QUEUE = """
class BoundedQueue {
  IntArray items;
  int count;
  int capacity;
  BoundedQueue(int capacity) {
    this.items = new IntArray(capacity);
    this.capacity = capacity;
    this.count = 0;
  }
  synchronized void put(int v) {
    while (this.count == this.capacity) { this.wait(); }
    this.items.set(this.count, v);
    this.count = this.count + 1;
    this.notifyAll();
  }
  synchronized int take() {
    while (this.count == 0) { this.wait(); }
    this.count = this.count - 1;
    int v = this.items.get(this.count);
    this.notifyAll();
    return v;
  }
  synchronized int size() { return this.count; }
}
test Seed { BoundedQueue q = new BoundedQueue(2); }
"""


def make_queue():
    table = load(BOUNDED_QUEUE)
    vm = VM(table)
    _, env = vm.run_test("Seed")
    return table, vm, env["q"]


class TestProducerConsumer:
    @pytest.mark.parametrize("seed", range(8))
    def test_handoff_completes_under_random_schedules(self, seed):
        _, vm, queue = make_queue()
        execution = Execution(vm)
        taker = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, queue, "take", [])
        )
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "put", [42]))
        result = execution.run(RandomScheduler(seed))
        assert result.completed, (result.deadlocked, result.blocked)
        assert execution.thread(taker).result == 42

    def test_consumer_first_must_wait(self):
        # Round-robin with the consumer spawned first: it reaches the
        # empty queue before the producer, so a WaitEvent must occur.
        _, vm, queue = make_queue()
        recorder = Recorder()
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "put", [7]))
        result = execution.run(RoundRobinScheduler())
        assert result.completed
        assert any(isinstance(e, WaitEvent) for e in recorder.trace)
        assert any(isinstance(e, NotifyEvent) for e in recorder.trace)

    def test_capacity_blocks_producers(self):
        # Two puts fill capacity 2; the third put waits until a take.
        _, vm, queue = make_queue()
        execution = Execution(vm)

        def producer(ctx):
            for value in (1, 2, 3):
                yield from vm.interp.call_method(ctx, queue, "put", [value])

        execution.spawn(producer)
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
        result = execution.run(RoundRobinScheduler())
        assert result.completed
        assert vm.heap.get(queue.ref).fields["count"] == 2

    def test_lost_wakeup_is_a_detected_deadlock(self):
        # Consumer on an empty queue with no producer: the VM reports
        # the hang instead of spinning.
        _, vm, queue = make_queue()
        execution = Execution(vm)
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
        result = execution.run(RoundRobinScheduler(), max_steps=5_000)
        assert result.deadlocked or result.timed_out
        # The monitor itself is free while the thread waits.
        assert vm.heap.get(queue.ref).monitor.owner is None


class TestWaitSemantics:
    def test_wait_requires_monitor_ownership(self):
        source = """
        class C { void oops() { this.wait(); } }
        test Seed { C c = new C(); c.oops(); }
        """
        table = load(source)
        vm = VM(table)
        result, _ = vm.run_test("Seed")
        assert result.faults
        assert result.faults[0][1].kind == "illegal-monitor-state"

    def test_notify_requires_monitor_ownership(self):
        source = """
        class C { void oops() { this.notify(); } }
        test Seed { C c = new C(); c.oops(); }
        """
        table = load(source)
        vm = VM(table)
        result, _ = vm.run_test("Seed")
        assert result.faults
        assert result.faults[0][1].kind == "illegal-monitor-state"

    def test_wait_releases_and_reacquires_reentrantly(self):
        source = """
        class C {
          int woke;
          synchronized void outer() { this.inner(); }
          synchronized void inner() { this.wait(); this.woke = 1; }
          synchronized void wake() { this.notifyAll(); }
        }
        test Seed { C c = new C(); }
        """
        table = load(source)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        c = env["c"]
        recorder = Recorder()
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, c, "outer", []))
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, c, "wake", []))
        result = execution.run(RoundRobinScheduler())
        assert result.completed
        assert vm.heap.get(c.ref).fields["woke"] == 1
        # wait() released from depth 2 and reacquired at depth 2.
        unlocks = [e for e in recorder.trace if isinstance(e, UnlockEvent)]
        assert any(e.reentrancy == 0 for e in unlocks)
        relocks = [e for e in recorder.trace if isinstance(e, LockEvent)]
        assert any(e.reentrancy == 2 for e in relocks)

    def test_notify_wakes_lowest_waiter_only(self):
        _, vm, queue = make_queue()
        source_table = vm.table
        # Park two consumers, then one put: exactly one value handed off,
        # the other consumer still waits.
        execution = Execution(vm)
        c1 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, queue, "take", [])
        )
        c2 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, queue, "take", [])
        )
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "put", [5]))
        result = execution.run(RoundRobinScheduler(), max_steps=5_000)
        done = [
            tid
            for tid in (c1, c2)
            if execution.thread(tid).result is not None
        ]
        assert len(done) == 1
        assert execution.thread(done[0]).result == 5
        assert result.deadlocked or result.timed_out  # the other waits


class TestHappensBeforeThroughWait:
    def test_no_false_race_across_wait_handoff(self):
        # The producer's write and the consumer's read are ordered by
        # the monitor (wait emits real unlock/lock events), so the HB
        # detectors must stay silent on items/count.
        from repro.analysis.sweep import interest_union, run_sweep
        from repro.detect import DjitDetector, FastTrackDetector
        from repro.trace.columnar import ColumnarRecorder

        for seed in range(6):
            _, vm, queue = make_queue()
            fasttrack = FastTrackDetector()
            djit = DjitDetector()
            recorder = ColumnarRecorder(
                interests=interest_union((fasttrack, djit))
            )
            execution = Execution(vm, listeners=(recorder,))
            execution.spawn(
                lambda ctx: vm.interp.call_method(ctx, queue, "take", [])
            )
            execution.spawn(
                lambda ctx: vm.interp.call_method(ctx, queue, "put", [9])
            )
            result = execution.run(RandomScheduler(seed))
            assert result.completed
            run_sweep((fasttrack, djit), recorder.packed)
            assert len(fasttrack.races) == 0, [
                r.describe() for r in fasttrack.races
            ]
            assert len(djit.races) == 0
