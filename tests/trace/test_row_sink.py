"""Rows written at the source equal rows packed from events.

When a :class:`ColumnarRecorder` is an execution's only listener, the
interpreter writes each data row straight into its packed trace and
builds no event.  These tests record the same runs both ways — the
recorder alone, and the recorder beside an object :class:`Recorder`,
which makes the interpreter build every event and the recorder pack
it — and require identical columns, side tables, sizes and digests,
and a lazy view equal to the recorded events: on every seed test of
C1..C9 and on every fuzz run (random and directed) of C1 and C6.
"""

import dataclasses
import hashlib
from array import array
from collections import Counter

import pytest

import repro.runtime.interp as interp_module
from repro.fuzz import racefuzzer
from repro.lang import load
from repro.narada import Narada, subject_specs
from repro.runtime import VM, Execution
from repro.subjects import all_subjects, get_subject
from repro.synth import SeedCollector, TestRunner
from repro.trace import ColumnarRecorder, Recorder
from repro.trace.columnar import COLUMNS, PackedTrace
from repro.trace.events import (
    SKIPPED_EVENT,
    AllocEvent,
    InvokeEvent,
    ReadEvent,
    ReturnEvent,
    WriteEvent,
)

#: The kinds a source-recorded run may leave unbuilt.
DATA_KINDS = (InvokeEvent, ReturnEvent, AllocEvent, ReadEvent, WriteEvent)

#: Column typecodes of the column-major layout rows replaced.
TYPECODES = {
    "op": "B", "label": "q", "tid": "i", "node": "i", "call": "i",
    "x": "q", "y": "q", "z": "q", "cls": "i", "fld": "i",
    "lck": "i", "adr": "i", "aux": "i", "flags": "B",
    "vkind": "b", "vint": "q", "vcls": "i",
    "okind": "b", "oint": "q", "ocls": "i",
}


def column_digest(packed: PackedTrace) -> str:
    """The digest over 20 ``array`` columns that rows replaced."""
    h = hashlib.sha256()
    for name in COLUMNS:
        h.update(array(TYPECODES[name], getattr(packed, name)).tobytes())
    h.update("\x1f".join(packed.strtab).encode())
    for locks in packed.locktab:
        h.update(b"L")
        h.update(",".join(map(str, sorted(locks))).encode())
    for cell in packed.cells:
        h.update(b"C")
        h.update(repr(cell).encode())
    return h.hexdigest()


def assert_same_rows(sunk: PackedTrace, packed: PackedTrace) -> None:
    assert len(sunk) == len(packed)
    for name in COLUMNS:
        assert getattr(sunk, name) == getattr(packed, name), name
    assert sunk.strtab == packed.strtab
    assert sunk.locktab == packed.locktab
    assert sunk.addrtab == packed.addrtab
    assert sunk.cells == packed.cells
    assert sunk.nbytes() == packed.nbytes()
    assert sunk.digest() == packed.digest()


def same_partition(old: list[str], new: list[str]) -> bool:
    """Whether equal entries of ``old`` are exactly the equal ones of ``new``."""
    return len(set(old)) == len(set(new)) == len(set(zip(old, new)))


@pytest.mark.parametrize("subject", all_subjects(), ids=lambda s: s.key)
def test_seed_suite_rows_equal_packed_events(subject):
    table = subject.load()
    sunk_traces = []
    for test in table.program.tests:
        sunk = ColumnarRecorder(test.name)
        VM(table, seed=0).run_test(test.name, listeners=(sunk,))
        packing = ColumnarRecorder(test.name)
        objects = Recorder(test.name)
        VM(table, seed=0).run_test(test.name, listeners=(packing, objects))
        assert_same_rows(sunk.packed, packing.packed)
        assert list(sunk.packed) == objects.trace.events
        sunk_traces.append(sunk.packed)
    assert same_partition(
        [column_digest(p) for p in sunk_traces], [p.digest() for p in sunk_traces]
    )


def fuzz_recordings(monkeypatch, key: str, objects: bool):
    """Fuzz every synthesized test of paper subject ``key`` at
    ``random_runs=2``; returns the detection report, the recorder of
    every executed run in order and, with ``objects``, an object
    :class:`Recorder` beside each."""
    recorders, logs = [], []

    class Capturing(ColumnarRecorder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorders.append(self)

    def runner(table, listeners):
        log = Recorder()
        logs.append(log)
        return TestRunner(table, listeners=(*listeners, log))

    (spec,) = subject_specs([get_subject(key)])
    with monkeypatch.context() as patch:
        patch.setattr(racefuzzer, "ColumnarRecorder", Capturing)
        if objects:
            patch.setattr(racefuzzer, "TestRunner", runner)
        narada = Narada(load(spec.source))
        synthesis = narada.synthesize_for_class(spec.target_class)
        detection = narada.detect(synthesis, random_runs=2)
    return detection, recorders, logs


def report_fields(detection) -> list[dict]:
    return [
        {
            **{f.name: getattr(report, f.name) for f in dataclasses.fields(report)},
            "test": report.test.name,
        }
        for report in detection.fuzz_reports
    ]


@pytest.mark.parametrize("key", ["C1", "C6"])
def test_fuzz_run_rows_equal_packed_events(monkeypatch, key):
    sunk_detection, sunk, _ = fuzz_recordings(monkeypatch, key, objects=False)
    detection, packing, logs = fuzz_recordings(monkeypatch, key, objects=True)
    assert len(sunk) == len(packing) == len(logs) > 0
    interests = racefuzzer._FUZZ_INTERESTS
    for rows, packed, log in zip(sunk, packing, logs):
        assert_same_rows(rows.packed, packed.packed)
        assert list(rows.packed) == [
            event for event in log.trace.events if isinstance(event, interests)
        ]
    # Same runs, same memo hits: the reports agree field by field.
    assert report_fields(sunk_detection) == report_fields(detection)
    assert same_partition(
        [column_digest(r.packed) for r in sunk],
        [r.packed.digest() for r in sunk],
    )


@pytest.fixture
def built(monkeypatch):
    """Counts of the data events the interpreter builds, outside seed
    collection (whose watcher reads invocation events)."""
    counts: Counter = Counter()
    collecting = [False]

    def counting(kind):
        def build(*fields):
            if not collecting[0]:
                counts[kind] += 1
            return kind(*fields)

        return build

    for kind in DATA_KINDS:
        monkeypatch.setattr(interp_module, kind.__name__, counting(kind))
    real_collect = SeedCollector.collect

    def collect(self, *args):
        collecting[0] = True
        try:
            return real_collect(self, *args)
        finally:
            collecting[0] = False

    monkeypatch.setattr(SeedCollector, "collect", collect)
    return counts


def test_a_recorder_alone_builds_no_data_event(built):
    table = all_subjects()[0].load()
    for test in table.program.tests:
        recorder = ColumnarRecorder(test.name)
        VM(table).run_test(test.name, listeners=(recorder,))
        assert len(recorder.packed.counts()) >= 4
    (spec,) = subject_specs([get_subject("C1")])
    narada = Narada(load(spec.source))
    detection = narada.detect(
        narada.synthesize_for_class(spec.target_class), random_runs=2
    )
    assert sum(report.directed_attempts for report in detection.fuzz_reports) > 0
    assert sum(report.trace_events for report in detection.fuzz_reports) > 0
    assert built == Counter()


def test_mixed_listeners_still_get_events(built):
    table = all_subjects()[0].load()
    test = table.program.tests[0]
    recorder, objects = ColumnarRecorder(test.name), Recorder(test.name)
    VM(table).run_test(test.name, listeners=(recorder, objects))
    assert set(built) == set(DATA_KINDS)
    assert list(recorder.packed) == objects.trace.events
    assert built[ReadEvent] + built[WriteEvent] == len(
        objects.trace.memory_events()
    )


def test_manual_steps_build_events_unless_elided():
    source = """
class Box { int v; void bump() { this.v = this.v + 1; } }
test Seed { Box b = new Box(); b.bump(); }
"""
    table = load(source)
    vm = VM(table)
    _, env = vm.run_test("Seed")

    def drive(elide: bool):
        recorder = ColumnarRecorder(interests=(ReadEvent, WriteEvent))
        execution = Execution(vm, listeners=(recorder,))
        tid = execution.spawn(
            lambda ctx: vm.interp.call_method(ctx, env["b"], "bump", [])
        )
        returned = []
        if elide:
            with execution.elide():
                while (event := execution.step(tid)) is not None:
                    returned.append(event)
        else:
            while (event := execution.step(tid)) is not None:
                returned.append(event)
        return returned, recorder.packed

    built, built_rows = drive(elide=False)
    elided, sunk_rows = drive(elide=True)
    assert [type(e) for e in built] == [
        InvokeEvent, ReadEvent, WriteEvent, ReturnEvent
    ]
    assert elided == [SKIPPED_EVENT] * 4
    assert [e.__class__ for e in sunk_rows] == [ReadEvent, WriteEvent]
    assert sunk_rows.counts() == built_rows.counts() == {"read": 1, "write": 1}
    assert sunk_rows.access(0)[1] == built_rows.access(0)[1] == (
        env["b"].ref, "v", None
    )
    assert sunk_rows.access(2) is None
    # The interpreter builds every event again once the block is left.
    assert vm.interp._emit_read is True


def test_a_row_written_after_reading_columns_shows_up():
    packed = PackedTrace()
    packed.read_row(0, 1, 2, 0, 3, "C", "f", 5, frozenset(), None, False)
    assert packed.op == (3,)
    packed.write_row(1, 1, 2, 0, 3, "C", "f", 6, frozenset(), None, False, 5)
    assert packed.op == (3, 4)
    assert packed.adr == (0, 0)
    assert packed.event(1).old_value == 5

