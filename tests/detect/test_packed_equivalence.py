"""Production sweep passes are bit-identical to their references.

Each production pass (``run_sweep`` over a packed trace, per-row
handlers) has an event-at-a-time reference in
:mod:`tests.detect.reference`, fed the same stream as event objects
through ``on_event``.  These properties check that, for every trace,
both produce the *same* result — for the detectors not just the same
static keys but identical AccessInfo payloads and dynamic counts — on
randomly generated MiniJ programs and on the recorded fuzz runs of
every synthesized test of C1..C9, then push the guarantee up the stack:
the analyzer produces an identical AnalysisResult from a packed seed
trace, and a whole fuzz run serializes to identical canonical bytes
when repeated.
"""

import pytest
from hypothesis import given, settings

from repro.analysis.sweep import interest_union, resolve_pass, run_sweep
from repro.fuzz.racefuzzer import schedule_seed
from repro.narada import Narada
from repro.narada.serial import canonical_json, encode_analysis
from repro.runtime import VM, RandomScheduler
from repro.subjects import all_subjects
from repro.synth import TestRunner, materialize
from repro.trace.columnar import ColumnarRecorder, PackedTrace

from tests.detect import reference
from tests.detect.test_detector_equivalence import (
    random_programs,
    run_random_program,
)

#: Every pass with a reference implementation.
PASS_NAMES = tuple(sorted(reference.REFERENCES))

#: Random-phase run indices recorded per synthesized test.
FUZZ_RUNS = (0, 1)


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


def _payload(sweep_pass):
    """The complete result of one pass, production or reference."""
    name = sweep_pass.name
    if name in ("fasttrack", "eraser", "djit+"):
        return _race_payload(sweep_pass.races)
    if name == "adjacency":
        return sweep_pass.confirmed
    if name == "coverage":
        return sweep_pass.units
    if name == "goodlock":
        return (sweep_pass.edges, sweep_pass.potential)
    raise AssertionError(f"no payload extractor for pass {name!r}")


def _assert_matches_reference(name, packed, events, context=""):
    production = resolve_pass(name)()
    run_sweep((production,), packed)
    expected = reference.replay(reference.REFERENCES[name](), events)
    assert _payload(production) == _payload(expected), (
        f"{name} sweep diverged from its reference {context}"
    )


def _check_random_program(case, names):
    source, workloads, seed = case
    trace, *_ = run_random_program(source, workloads, seed)
    packed = _record_packed(trace)
    for name in names:
        _assert_matches_reference(name, packed, trace.events)


class TestPackedFeedsMatchObjectFeeds:
    """Production sweeps of packed traces against reference listeners
    fed the same stream as event objects."""

    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_detectors_identical_on_random_programs(self, case):
        _check_random_program(case, ("fasttrack", "eraser", "djit+"))

    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_probe_identical(self, case):
        _check_random_program(case, ("adjacency",))

    @given(random_programs())
    @settings(max_examples=50, deadline=None)
    def test_coverage_probe_and_goodlock_identical(self, case):
        _check_random_program(case, ("coverage", "goodlock"))

    @pytest.mark.parametrize("subject", all_subjects(), ids=lambda s: s.key)
    def test_every_pass_on_fuzz_runs(self, subject):
        """Every recorded random-phase run (indices 0-1) of every
        synthesized test, swept by each pass and replayed, as events
        rebuilt from the packed trace, into its reference."""
        table = subject.load()
        tests = Narada(table).synthesize_for_class(subject.class_name).tests
        interests = interest_union(
            resolve_pass(name) for name in PASS_NAMES
        )
        rows = 0
        for test in tests:
            template = materialize(test, VM(table, seed=0))
            for run_index in FUZZ_RUNS:
                recorder = ColumnarRecorder(test.name, interests=interests)
                TestRunner(table, listeners=(recorder,)).run(
                    template,
                    RandomScheduler(seed=schedule_seed(test.name, run_index)),
                )
                packed = recorder.packed
                rows += len(packed)
                events = list(packed)
                for name in PASS_NAMES:
                    _assert_matches_reference(
                        name, packed, events, f"on {test.name} run {run_index}"
                    )
        assert rows > 0


class TestAnalyzerOnPackedTraces:
    def test_analysis_identical_from_packed_seed_traces(self):
        from repro.analysis import analyze_traces
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

    def test_fuzzing_c1_hits_the_interleaving_memo(self):
        """Fuzzing C1 with ``random_runs=4`` repeats interleavings, so
        the digest memo answers some runs without a sweep."""
        from repro.fuzz import RaceFuzzer
        from repro.subjects import get_subject

        subject = get_subject("C1")
        narada = Narada(subject.load())
        tests = narada.synthesize_for_class(subject.class_name).tests
        fuzzer = RaceFuzzer(narada.table, random_runs=4)
        assert sum(fuzzer.fuzz(test).memo_hits for test in tests) > 0
