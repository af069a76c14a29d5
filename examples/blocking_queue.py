"""Condition synchronization: a producer/consumer bounded queue.

MiniJ supports java.lang.Object-style ``wait``/``notify``/``notifyAll``.
This example contrasts a correctly synchronized bounded queue with a
buggy variant whose ``size``/``clear`` skip the monitor, showing:

1. handoffs complete under adversarial schedules and the HB detectors
   stay silent on the correct queue,
2. Narada synthesizes racy tests for the buggy variant and the backend
   confirms harmful races,
3. a consumer with no producer is reported as a deadlock, not a hang.

Run:  python examples/blocking_queue.py
"""

from repro.analysis import run_sweep
from repro.detect import FastTrackDetector
from repro.lang import load
from repro.narada import Narada
from repro.runtime import Execution, RandomScheduler, RoundRobinScheduler, VM
from repro.trace.columnar import ColumnarRecorder

QUEUES = """
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

/* Same queue, but the observers skip the monitor. */
class LeakyBoundedQueue {
  IntArray items;
  int count;
  int capacity;
  LeakyBoundedQueue(int capacity) {
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
  int size() { return this.count; }
  void clear() { this.count = 0; }
}

test SeedSafe {
  BoundedQueue q = new BoundedQueue(2);
  q.put(1);
  int n = q.size();
  int v = q.take();
}

test SeedLeaky {
  LeakyBoundedQueue q = new LeakyBoundedQueue(2);
  q.put(1);
  int n = q.size();
  int v = q.take();
  q.clear();
}
"""


def demo_correct_queue(table) -> None:
    print("1. Correct BoundedQueue under 10 adversarial schedules:")
    for seed in range(10):
        vm = VM(table)
        _, env = vm.run_test("SeedSafe")
        queue = env["q"]
        detector = FastTrackDetector()
        recorder = ColumnarRecorder(interests=detector.interests)
        execution = Execution(vm, listeners=(recorder,))
        taker = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, queue, "take", [])
        )
        execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "put", [seed]))
        result = execution.run(RandomScheduler(seed))
        assert result.completed and execution.thread(taker).result == seed
        run_sweep((detector,), recorder.packed)
        assert len(detector.races) == 0
    print("   all handoffs delivered, zero races reported.\n")


def demo_buggy_queue(table) -> None:
    print("2. LeakyBoundedQueue (unsynchronized size/clear):")
    narada = Narada(table)
    report = narada.synthesize_for_class("LeakyBoundedQueue")
    detection = narada.detect(report, random_runs=5)
    print(
        f"   {report.pair_count} racing pairs -> {report.test_count} tests; "
        f"{detection.detected} races detected, {detection.harmful} harmful.\n"
    )


def demo_deadlock(table) -> None:
    print("3. Consumer with no producer:")
    vm = VM(table)
    _, env = vm.run_test("SeedSafe")
    queue = env["q"]
    execution = Execution(vm)
    execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
    execution.spawn(lambda ctx: vm.interp.call_method(ctx, queue, "take", []))
    result = execution.run(RoundRobinScheduler(), max_steps=5_000)
    verdict = "deadlock detected" if result.deadlocked else (
        "timed out" if result.timed_out else "completed?!"
    )
    print(f"   empty queue, two takers -> {verdict} "
          f"(blocked threads: {sorted(result.blocked)}).")


def main() -> None:
    table = load(QUEUES)
    demo_correct_queue(table)
    demo_buggy_queue(table)
    demo_deadlock(table)


if __name__ == "__main__":
    main()
