"""Execution lifecycle: quiescence is final, elision is unobservable.

Two guarantees of the hot-path overhaul:

* An :class:`Execution` that ran to quiescence is finished — spawning
  another thread on it would silently run with stale dispatch and
  emit-filter state, so it raises :class:`StaleExecutionError` instead.
* The event-construction elision (skipping event kinds no attached
  listener subscribes to) must never change what listeners observe:
  a detector swept over a recording made with its own interests
  (elision active) reports exactly the races it reports when a
  :class:`Recorder` is attached too (elision off, every event
  constructed).
"""

import pytest

from repro._util.errors import StaleExecutionError
from repro.analysis.sweep import run_sweep
from repro.detect import FastTrackDetector
from repro.lang import load
from repro.runtime import Execution, RandomScheduler, VM
from repro.trace import Recorder
from repro.trace.columnar import ColumnarRecorder

SOURCE = """
class Cell {
  int n;
  void bump() { this.n = this.n + 1; }
  synchronized void safeBump() { this.n = this.n + 1; }
}
test Seed { Cell c = new Cell(); }
"""

_table = load(SOURCE)


def _spawn_workers(vm, execution, receiver, methods=("bump",)):
    for method in methods:
        def body(ctx, method=method):
            yield from vm.interp.call_method(ctx, receiver, method, [])

        execution.spawn(body)


class TestSpawnAfterQuiescence:
    def test_spawn_after_run_raises(self):
        vm = VM(_table)
        _, env = vm.run_test("Seed")
        execution = Execution(vm)
        _spawn_workers(vm, execution, env["c"], methods=("bump", "bump"))
        result = execution.run(RandomScheduler(0))
        assert result.completed
        with pytest.raises(StaleExecutionError):
            execution.spawn(
                lambda ctx: vm.interp.call_method(ctx, env["c"], "bump", [])
            )

    def test_error_message_names_the_problem(self):
        vm = VM(_table)
        _, env = vm.run_test("Seed")
        execution = Execution(vm)
        _spawn_workers(vm, execution, env["c"])
        execution.run(RandomScheduler(0))
        with pytest.raises(StaleExecutionError, match="quiescen"):
            execution.spawn(
                lambda ctx: vm.interp.call_method(ctx, env["c"], "bump", [])
            )

    def test_incomplete_run_still_accepts_spawns(self):
        """Only quiescence finalizes; a fresh execution accepts spawns."""
        vm = VM(_table)
        _, env = vm.run_test("Seed")
        execution = Execution(vm)
        _spawn_workers(vm, execution, env["c"])
        execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, env["c"], "safeBump", [])
        )
        result = execution.run(RandomScheduler(1))
        assert result.completed


class TestElisionSoundness:
    def _races(self, with_recorder, seed):
        vm = VM(_table)
        _, env = vm.run_test("Seed")
        detector = FastTrackDetector()
        columnar = ColumnarRecorder(interests=detector.interests)
        listeners = (columnar, Recorder()) if with_recorder else (columnar,)
        execution = Execution(vm, listeners=listeners)
        _spawn_workers(
            vm, execution, env["c"], methods=("bump", "bump", "safeBump")
        )
        result = execution.run(RandomScheduler(seed))
        assert result.completed
        run_sweep((detector,), columnar.packed)
        return detector.races

    @pytest.mark.parametrize("seed", [0, 3, 11, 42, 1234])
    def test_detector_alone_matches_detector_plus_recorder(self, seed):
        elided = self._races(with_recorder=False, seed=seed)
        full = self._races(with_recorder=True, seed=seed)
        assert elided.static_keys() == full.static_keys()
        assert elided.dynamic_count == full.dynamic_count
