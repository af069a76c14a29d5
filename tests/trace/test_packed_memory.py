"""Peak memory: a packed recording stays below an object recording.

The columnar trace engine exists partly to shrink recorded executions
(DESIGN.md §8): one row of flat integer arrays against a heap
``Event`` object plus its boxed fields.  This records the same
execution twice, each in a fresh interpreter whose peak RSS (``VmHWM``)
reflects only that representation, once holding an object ``Trace`` and once a
``PackedTrace``, and requires the packed run to peak at least 10%
lower (the cut measures 23-27% on this run).

The trace must dominate the interpreter's baseline RSS for the two to
separate, so the run is ~140k events.
"""

import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Per-thread loop count; each iteration emits one read and one write.
ITERS = 35_000

_CHILD = r"""
import sys
from repro.lang import load
from repro.runtime import VM, Execution, RoundRobinScheduler
from repro.trace import ColumnarRecorder, Recorder

table = load('''
class Counter {
  int acc;
  void spin(int n) {
    int i = 0;
    while (i < n) {
      this.acc = this.acc + i;
      i = i + 1;
    }
  }
}
test Seed { Counter c = new Counter(); }
''')
vm = VM(table, seed=0)
_, env = vm.run_test("Seed")
counter = env["c"]
mode, iters = sys.argv[1], int(sys.argv[2])
recorder = Recorder() if mode == "object" else ColumnarRecorder()
execution = Execution(vm, listeners=(recorder,))
for _ in range(2):
    execution.spawn(
        lambda ctx: vm.interp.call_method(ctx, counter, "spin", [iters])
    )
assert execution.run(RoundRobinScheduler(), max_steps=10 * iters).completed
held = recorder.trace if mode == "object" else recorder.packed
# VmHWM, unlike ru_maxrss, is not inherited from the spawning process.
with open("/proc/self/status") as status:
    hwm = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(len(held), hwm)
"""


def _peak_rss(mode: str) -> tuple[int, int]:
    """(events recorded, peak RSS in KiB) of one recording child."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(ITERS)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    ).stdout.split()
    return int(out[0]), int(out[1])


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/status").exists(), reason="needs Linux /proc"
)
def test_packed_recording_peaks_below_object_recording():
    object_events, object_kib = _peak_rss("object")
    packed_events, packed_kib = _peak_rss("packed")
    assert packed_events == object_events >= 4 * ITERS
    assert packed_kib < 0.9 * object_kib, (packed_kib, object_kib)
