"""Tests for the deadlock-test synthesis pipeline (OOPSLA'14 sibling)."""

import pytest

from repro.deadlock import (
    DeadlockPipeline,
    GoodLockDetector,
    LockOrderAnalyzer,
    generate_deadlock_pairs,
)
from repro.analysis.sweep import run_sweep
from repro.lang import load
from repro.runtime import Execution, FixedScheduler, VM
from repro.trace.columnar import ColumnarRecorder

TRANSFER = """
class Account {
  int balance;
  Account other;
  Account(int start) { this.balance = start; }
  void setPartner(Account partner) { this.other = partner; }
  synchronized void transferOut(int amount) {
    this.balance = this.balance - amount;
    this.other.deposit(amount);
  }
  synchronized void deposit(int amount) {
    this.balance = this.balance + amount;
  }
  synchronized int read() { return this.balance; }
}
test Seed {
  Account a = new Account(100);
  Account b = new Account(100);
  a.setPartner(b);
  b.setPartner(a);
  a.transferOut(10);
  b.deposit(5);
  int n = a.read();
}
"""

ORDERED = """
class Bank {
  Account low;
  Account high;
  void setAccounts(Account lo, Account hi) {
    this.low = lo;
    this.high = hi;
  }
  /* Total order: always low before high -> no deadlock possible. */
  void transfer(int amount) {
    synchronized (this.low) {
      synchronized (this.high) {
        this.low.balance = this.low.balance - amount;
        this.high.balance = this.high.balance + amount;
      }
    }
  }
}
class Account { int balance; }
test Seed {
  Bank bank = new Bank();
  Account x = new Account();
  Account y = new Account();
  bank.setAccounts(x, y);
  bank.transfer(3);
}
"""


def lock_summaries(source):
    table = load(source)
    traces = []
    for test in table.program.tests:
        vm = VM(table)
        recorder = ColumnarRecorder(test.name)
        vm.run_test(test.name, listeners=(recorder,))
        traces.append(recorder.packed)
    return table, LockOrderAnalyzer().analyze_all(traces)


class TestLockOrderAnalysis:
    def test_nested_acquisition_extracted_with_paths(self):
        _, summaries = lock_summaries(TRANSFER)
        transfer = [s for s in summaries if s.method == "transferOut"]
        assert transfer
        edges = transfer[0].edges
        assert len(edges) == 1
        edge = edges[0]
        assert str(edge.held_path) == "Ithis"
        assert str(edge.acquired_path) == "Ithis.other"
        assert edge.class_pair() == ("Account", "Account")
        assert edge.acquired_chain == ("Account", "Account")

    def test_flat_locking_yields_no_edges(self):
        _, summaries = lock_summaries(TRANSFER)
        deposit = [s for s in summaries if s.method == "deposit"]
        assert deposit and not deposit[0].edges

    def test_pairs_found_for_opposite_orders(self):
        _, summaries = lock_summaries(TRANSFER)
        pairs = generate_deadlock_pairs(summaries)
        assert len(pairs) == 1
        assert pairs[0].first.method_id() == ("Account", "transferOut")


class TestSynthesisAndConfirmation:
    def test_classic_transfer_deadlock_confirmed(self):
        pipeline = DeadlockPipeline(TRANSFER)
        report = pipeline.synthesize()
        assert len(report.tests) == 1
        plan = report.tests[0].plan
        # Crossed sharing: each side's partner is the other's receiver.
        assert plan.left.racy_call.receiver is not plan.right.racy_call.receiver
        confirms = pipeline.confirm(report, random_runs=6)
        assert confirms[0].confirmed

    def test_lock_ordered_bank_synthesizes_nothing(self):
        pipeline = DeadlockPipeline(ORDERED)
        report = pipeline.synthesize()
        # transfer's nested edge exists but its reverse never does: the
        # class pair (Account, Account) pairs with itself... verify the
        # discipline: the single edge self-pairs only if both paths are
        # usable AND crossed sharing derives.  With the total order in
        # one method, the crossed test still serializes -> must not
        # confirm a deadlock.
        confirms = pipeline.confirm(report, random_runs=6)
        assert all(not c.confirmed for c in confirms)


class TestGoodLock:
    def _run(self, schedule):
        table = load(TRANSFER)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        a, b = env["a"], env["b"]
        detector = GoodLockDetector()
        recorder = ColumnarRecorder(interests=detector.interests)
        execution = Execution(vm, listeners=(recorder,))
        t1 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, a, "transferOut", [1])
        )
        t2 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, b, "transferOut", [1])
        )
        result = execution.run(FixedScheduler(
            [t1 if s == 0 else t2 for s in schedule]
        ))
        run_sweep((detector,), recorder.packed)
        return detector, result

    def test_serialized_run_reports_potential_cycle(self):
        # Fully serialized: no deadlock manifests, but GoodLock sees the
        # opposite-order edges and predicts it.
        detector, result = self._run([0] * 60 + [1] * 60)
        assert result.completed
        assert len(detector.potential) == 1
        assert not detector.potential[0].first.gates

    def test_gate_lock_suppresses_report(self):
        gated = """
        class Gate { }
        class Account {
          int balance;
          Account other;
          Gate gate;
          Account(int start) { this.balance = start; }
          void setPartner(Account partner) { this.other = partner; }
          void setGate(Gate g) { this.gate = g; }
          void transferOut(int amount) {
            synchronized (this.gate) {
              synchronized (this) {
                this.balance = this.balance - amount;
                this.other.deposit(amount);
              }
            }
          }
          synchronized void deposit(int amount) {
            this.balance = this.balance + amount;
          }
        }
        test Seed {
          Gate g = new Gate();
          Account a = new Account(100);
          Account b = new Account(100);
          a.setGate(g);
          b.setGate(g);
          a.setPartner(b);
          b.setPartner(a);
          a.transferOut(1);
        }
        """
        table = load(gated)
        vm = VM(table)
        _, env = vm.run_test("Seed")
        a, b = env["a"], env["b"]
        detector = GoodLockDetector()
        recorder = ColumnarRecorder(interests=detector.interests)
        execution = Execution(vm, listeners=(recorder,))
        t1 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, a, "transferOut", [1])
        )
        t2 = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, b, "transferOut", [1])
        )
        result = execution.run(FixedScheduler([t1] * 80 + [t2] * 80))
        run_sweep((detector,), recorder.packed)
        assert result.completed
        # Opposite this->other orders exist, but both under the common
        # gate: not a deadlock, and GoodLock must stay silent.
        assert len(detector.potential) == 0
