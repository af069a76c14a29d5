"""Compare the three dynamic race detectors on one execution.

Eraser's lockset invariant is schedule-insensitive (flags potential
races even when the observed schedule happened to serialize them), while
FastTrack and Djit+ are precise for the observed happens-before
relation.  This example constructs an execution that separates them: two
threads whose critical operations get serialized by the schedule but
share no lock — Eraser still flags, and so do the HB detectors here
because no synchronization edge orders the threads.  A third, properly
locked run shows all detectors stay silent.

Run:  python examples/detector_comparison.py
"""

from repro.analysis import interest_union, run_sweep
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.lang import load
from repro.runtime import VM, Execution, FixedScheduler, RandomScheduler
from repro.trace.columnar import ColumnarRecorder

SOURCE = """
class Account {
  int balance;
  void deposit(int amount) {
    int b = this.balance;
    this.balance = b + amount;
  }
  synchronized void safeDeposit(int amount) {
    int b = this.balance;
    this.balance = b + amount;
  }
  int read() { return this.balance; }
}
test Seed { Account a = new Account(); }
"""


def run(method: str, schedule_desc: str, scheduler) -> None:
    table = load(SOURCE)
    vm = VM(table)
    _, env = vm.run_test("Seed")
    account = env["a"]
    detectors = [EraserDetector(), FastTrackDetector(), DjitDetector()]
    # Record the run once, then sweep all three detectors over it.
    recorder = ColumnarRecorder(interests=interest_union(detectors))
    execution = Execution(vm, listeners=(recorder,))
    for amount in (10, 32):
        execution.spawn(
            lambda ctx, amount=amount: vm.interp.call_method(
                ctx, account, method, [amount]
            )
        )
    execution.run(scheduler)
    run_sweep(detectors, recorder.packed)
    balance = vm.heap.get(account.ref).fields["balance"]
    print(f"{method} under {schedule_desc}: final balance = {balance}")
    for detector in detectors:
        races = ", ".join(r.describe() for r in detector.races) or "none"
        print(f"  {detector.name:<10}: {len(detector.races)} race(s) — {races}")
    print()


def main() -> None:
    print("1. Unsynchronized deposits, fine-grained interleaving:")
    run("deposit", "alternating schedule", FixedScheduler([1, 2] * 50))

    print("2. Unsynchronized deposits, serialized schedule (the race is")
    print("   still *present*; no synchronization orders the threads):")
    run("deposit", "serialized schedule", FixedScheduler([1] * 50 + [2] * 50))

    print("3. Synchronized deposits (lock release/acquire edges order")
    print("   the threads; every detector is silent):")
    run("safeDeposit", "random schedule", RandomScheduler(7))


if __name__ == "__main__":
    main()
