"""Run-length compression of packed traces (repro/trace/compressed.py).

The compressor's contract: the segment plan partitions the row range
exactly, and every claimed repeat occurrence is signature-identical to
the first (never assumed — re-verified here against the raw columns).
"""

import pytest

from repro.lang import load
from repro.runtime import VM, Execution, RoundRobinScheduler
from repro.trace.columnar import ColumnarRecorder
from repro.trace.compressed import (
    SIGNATURE_COLUMNS,
    CompressedTrace,
    LiteralSeg,
    RepeatSeg,
    compress_trace,
)

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
}
test Seed { Worker w = new Worker(); }
"""


def record_spin(n: int, threads: int = 2):
    table = load(HOT_LOOP)
    vm = VM(table)
    _, env = vm.run_test("Seed")
    worker = env["w"]
    recorder = ColumnarRecorder("spin")
    execution = Execution(vm, listeners=(recorder,))
    for _ in range(threads):
        execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, worker, "spin", [n])
        )
    result = execution.run(RoundRobinScheduler(), max_steps=100 * n + 10_000)
    assert result.completed
    return recorder.packed


def signature(packed, i):
    return tuple(getattr(packed, name)[i] for name in SIGNATURE_COLUMNS)


def assert_well_formed(compressed: CompressedTrace):
    """Segments partition [0, len) and repeats verify row-by-row."""
    packed = compressed.packed
    position = 0
    for seg in compressed.segments:
        assert seg.start == position
        assert seg.stop > seg.start
        position = seg.stop
        if isinstance(seg, RepeatSeg):
            assert seg.count >= 2
            for row in range(seg.start + seg.period, seg.stop):
                assert signature(packed, row) == signature(
                    packed, row - seg.period
                )
    assert position == len(packed)


class TestCompressTrace:
    def test_hot_loop_compresses(self):
        packed = record_spin(300)
        compressed = compress_trace(packed)
        assert_well_formed(compressed)
        stats = compressed.stats()
        assert stats.ratio >= 3.0
        assert stats.repeat_blocks >= 1
        assert stats.total_rows == len(packed)
        repeats = [
            seg for seg in compressed.segments if isinstance(seg, RepeatSeg)
        ]
        assert max(seg.count for seg in repeats) >= 100

    def test_non_repetitive_trace_stays_literal(self):
        table = load(HOT_LOOP)
        vm = VM(table, seed=0)
        recorder = ColumnarRecorder("Seed")
        vm.run_test("Seed", listeners=(recorder,))
        compressed = compress_trace(recorder.packed)
        assert_well_formed(compressed)
        assert all(
            isinstance(seg, LiteralSeg) for seg in compressed.segments
        )
        assert compressed.stats().ratio == 1.0

    def test_min_saved_threshold_suppresses_small_repeats(self):
        packed = record_spin(300)
        huge = compress_trace(packed, min_saved=10**9)
        assert all(isinstance(seg, LiteralSeg) for seg in huge.segments)
        assert_well_formed(huge)

    def test_max_period_bounds_detection(self):
        packed = record_spin(300)
        compressed = compress_trace(packed, max_period=1)
        assert_well_formed(compressed)
        for seg in compressed.segments:
            if isinstance(seg, RepeatSeg):
                assert seg.period == 1

    def test_empty_trace(self):
        from repro.trace.columnar import PackedTrace

        compressed = compress_trace(PackedTrace("empty"))
        assert compressed.segments == []
        assert compressed.stats().total_rows == 0
        assert compressed.stats().ratio == 1.0

    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_single_thread_loop_every_size(self, n):
        packed = record_spin(n, threads=1)
        compressed = compress_trace(packed)
        assert_well_formed(compressed)
        if n >= 40:
            assert compressed.stats().ratio >= 3.0
