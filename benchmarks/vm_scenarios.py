"""Shared VM throughput scenarios for benchmarks and the perf harness.

One place defines the hot-loop workload, the listener configurations,
and the measurement loop, so ``bench_vm_throughput.py`` (pytest-benchmark
timings) and ``perf_regression.py`` (BENCH_vm.json regression gate)
measure exactly the same thing.
"""

from __future__ import annotations

from repro.analysis.sweep import interest_union, run_sweep
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.lang import load
from repro.runtime import Execution, RoundRobinScheduler, VM
from repro.trace import Recorder
from repro.trace.columnar import ColumnarRecorder

HOT_LOOP = """
class Worker {
  int acc;
  void spin(int n) {
    int i = 0;
    while (i < n) {
      this.acc = this.acc + i;
      i = i + 1;
    }
  }
  synchronized void spinLocked(int n) {
    int i = 0;
    while (i < n) {
      this.acc = this.acc + i;
      i = i + 1;
    }
  }
}
test Seed { Worker w = new Worker(); }
"""

LOOP_N = 300

_table = load(HOT_LOOP)


def run_scenario(listeners=(), threads=2, method="spin", passes=()):
    """Run the hot loop on ``threads`` threads; returns the ExecResult.

    With ``passes`` (analysis pass instances), the run is recorded with
    a ``ColumnarRecorder`` over their interests and the passes are swept
    over the recording afterwards, as the fuzzers do.
    """
    vm = VM(_table)
    _, env = vm.run_test("Seed")
    worker = env["w"]
    recorder = None
    if passes:
        recorder = ColumnarRecorder(interests=interest_union(passes))
        listeners = (*listeners, recorder)
    execution = Execution(vm, listeners=listeners)
    for _ in range(threads):
        execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, worker, method, [LOOP_N])
        )
    result = execution.run(RoundRobinScheduler())
    if recorder is not None:
        run_sweep(passes, recorder.packed)
    return result


#: name -> (listener factory, pass factory, method).  Factories build
#: fresh objects per run so detector state never carries over between
#: rounds; detector scenarios record, then sweep.
SCENARIOS = {
    "bare": (tuple, tuple, "spin"),
    "recorder": (lambda: (Recorder(),), tuple, "spin"),
    "fasttrack": (tuple, lambda: (FastTrackDetector(),), "spin"),
    "djit": (tuple, lambda: (DjitDetector(),), "spin"),
    "eraser": (tuple, lambda: (EraserDetector(),), "spin"),
    "all_detectors": (
        tuple,
        lambda: (FastTrackDetector(), EraserDetector(), DjitDetector()),
        "spin",
    ),
    "fasttrack_locked": (tuple, lambda: (FastTrackDetector(),), "spinLocked"),
}


def measure(name: str, rounds: int = 5) -> dict:
    """Best-of-``rounds`` events/sec for one named scenario."""
    import time

    listener_factory, pass_factory, method = SCENARIOS[name]
    best = 0.0
    steps = 0
    for _ in range(rounds):
        listeners, passes = listener_factory(), pass_factory()
        start = time.perf_counter()
        result = run_scenario(
            listeners=listeners, method=method, passes=passes
        )
        elapsed = time.perf_counter() - start
        assert result.completed
        steps = result.steps
        best = max(best, result.steps / elapsed)
    return {"events_per_sec": round(best, 1), "steps": steps, "rounds": rounds}
