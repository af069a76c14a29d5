"""Packed feeds are bit-identical to object feeds, end to end.

The sweep engine (``run_sweep``) re-implements each detector's
per-event handlers as a batch loop over raw columns.  That
rewrite is only sound if, for every trace, the packed path produces the
*same* race records — not just the same static keys, but identical
AccessInfo payloads and dynamic counts — as delivering the original
event objects through ``on_event``.  These properties check exactly
that on randomly generated MiniJ programs (reusing the generator from
the detector-equivalence suite), then push the guarantee up the stack:
the analyzer produces an identical AnalysisResult from a packed seed
trace, and a whole fuzz run serializes to identical canonical bytes
when repeated.
"""

from hypothesis import given, settings

from repro.analysis.sweep import run_sweep
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.fuzz.probes import AdjacencyProbe
from repro.narada.serial import canonical_json, encode_analysis
from repro.trace.columnar import ColumnarRecorder, PackedTrace

from tests.detect.test_detector_equivalence import (
    random_programs,
    run_random_program,
)


def _record_packed(trace) -> PackedTrace:
    """Pack an already-recorded object trace (replay through append)."""
    packed = PackedTrace(trace.test_name)
    for event in trace.events:
        packed.append(event)
    return packed


def _race_payload(race_set):
    """Full per-record content, order-sensitive (not just static keys)."""
    return (
        [
            (
                r.detector, r.class_name, r.field_name, r.address,
                r.first, r.second,
            )
            for r in race_set
        ],
        race_set.dynamic_count,
    )


DETECTORS = (FastTrackDetector, EraserDetector, DjitDetector)


class TestPackedFeedsMatchObjectFeeds:
    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_detectors_identical_on_random_programs(self, case):
        source, workloads, seed = case
        trace, fasttrack, djit, eraser = run_random_program(
            source, workloads, seed
        )
        packed = _record_packed(trace)
        live = {"fasttrack": fasttrack, "djit+": djit, "eraser": eraser}
        for detector_cls in DETECTORS:
            replay = detector_cls()
            run_sweep((replay,), packed)
            assert _race_payload(replay.races) == _race_payload(
                live[replay.name].races
            ), f"{replay.name} packed feed diverged from object feed"

    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_probe_identical(self, case):
        source, workloads, seed = case
        trace, *_ = run_random_program(source, workloads, seed)
        object_probe = AdjacencyProbe()
        for event in trace.events:
            object_probe.on_event(event)
        packed_probe = AdjacencyProbe()
        run_sweep((packed_probe,), _record_packed(trace))
        assert packed_probe.confirmed == object_probe.confirmed


class TestAnalyzerOnPackedTraces:
    def test_analysis_identical_from_packed_seed_traces(self):
        from repro.analysis import analyze_traces
        from repro.runtime import VM
        from repro.subjects import get_subject
        from repro.trace import Recorder

        for key in ("C1", "C5", "C8"):
            table = get_subject(key).load()
            object_traces, packed_traces = [], []
            for test in table.program.tests:
                vm = VM(table, seed=0)
                recorder = Recorder(test.name)
                columnar = ColumnarRecorder(test.name)
                vm.run_test(test.name, listeners=(recorder, columnar))
                object_traces.append(recorder.trace)
                packed_traces.append(columnar.packed)
            via_objects = encode_analysis(analyze_traces(object_traces))
            via_packed = encode_analysis(analyze_traces(packed_traces))
            assert canonical_json(via_packed) == canonical_json(
                via_objects
            ), f"analysis diverged on packed seed traces for {key}"


class TestFuzzDeterminism:
    def test_fuzz_run_is_reproducible_to_the_byte(self):
        from repro.fuzz import RaceFuzzer
        from repro.narada import Narada
        from repro.subjects import get_subject

        subject = get_subject("C1")
        narada = Narada(subject.load())
        synthesis = narada.synthesize_for_class(subject.class_name)
        test = synthesis.tests[0]

        def run():
            fuzzer = RaceFuzzer(narada.table, random_runs=4)
            return fuzzer.fuzz(test)

        first, second = run(), run()
        assert canonical_json(first.to_dict()) == canonical_json(
            second.to_dict()
        )
        # Memo counters are part of the artifact and must reproduce too.
        assert (first.memo_hits, first.memo_misses) == (
            second.memo_hits,
            second.memo_misses,
        )
        assert first.memo_misses > 0
        assert first.trace_events > 0
        assert first.packed_bytes > 0
