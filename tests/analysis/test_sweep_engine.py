"""A sweep of several passes is bit-identical to standalone passes.

The central property of :mod:`repro.analysis.sweep`: for **any**
subset of registered passes, one sweep of them together over a packed
trace produces exactly the report fragments the same passes produce
when each sweeps the trace alone.  The passes share only the walk over
the rows — nothing else may be observable in any pass's output.

Checked on hypothesis-generated MiniJ programs (reusing the
detector-equivalence generator) and on the C1..C9 paper subjects' seed
traces, plus the registry/CLI surface: unknown ``--detectors`` names
must fail with the list of registered passes, and ``interest_union``
must preserve first-seen order (recorder elision depends on membership
only, but determinism keeps traces reproducible).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import (
    UnknownPassError,
    interest_union,
    memo_key,
    registered_passes,
    resolve_pass,
    run_sweep,
)
from repro.cli import main
from repro.runtime import VM
from repro.subjects import all_subjects
from repro.trace.columnar import ColumnarRecorder, PackedTrace
from repro.trace.events import LockEvent, ReadEvent, UnlockEvent, WriteEvent

from tests.detect.test_detector_equivalence import (
    random_programs,
    run_random_program,
)

ALL_PASSES = (
    "fasttrack", "eraser", "djit+", "adjacency", "coverage", "goodlock",
    "lockorder",
)


def _record_packed(trace) -> PackedTrace:
    packed = PackedTrace(trace.test_name)
    for event in trace.events:
        packed.append(event)
    return packed


def _fragment(sweep_pass):
    """Canonical report fragment of one pass, for identity comparison."""
    name = sweep_pass.name
    if name in ("fasttrack", "eraser", "djit+"):
        races = sweep_pass.races
        return (
            [
                (
                    r.detector, r.class_name, r.field_name, r.address,
                    r.first, r.second,
                )
                for r in races
            ],
            races.dynamic_count,
        )
    if name == "adjacency":
        return tuple(sorted(sweep_pass.confirmed))
    if name == "coverage":
        return tuple(sorted(sweep_pass.units))
    if name == "goodlock":
        return (tuple(sweep_pass.edges), tuple(sweep_pass.potential))
    if name == "lockorder":
        return tuple(sweep_pass.finish())
    raise AssertionError(f"no fragment extractor for pass {name!r}")


def _sweep_fragments(names, packed, together: bool):
    passes = tuple(resolve_pass(name)() for name in names)
    if together:
        run_sweep(passes, packed)
    else:
        for sweep_pass in passes:
            run_sweep((sweep_pass,), packed)
    return {p.name: _fragment(p) for p in passes}


class TestFusedEqualsStandalone:
    @given(
        random_programs(),
        st.sets(st.sampled_from(ALL_PASSES), min_size=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_subset_on_random_programs(self, case, subset):
        source, workloads, seed = case
        trace, *_ = run_random_program(source, workloads, seed)
        packed = _record_packed(trace)
        names = sorted(subset)
        together = _sweep_fragments(names, packed, together=True)
        standalone = _sweep_fragments(names, packed, together=False)
        assert together == standalone

    @pytest.mark.parametrize(
        "subject", all_subjects(), ids=lambda s: s.key
    )
    def test_full_stack_on_seed_traces(self, subject):
        table = subject.load()
        for test in table.program.tests:
            vm = VM(table, seed=0)
            recorder = ColumnarRecorder(test.name)
            vm.run_test(test.name, listeners=(recorder,))
            packed = recorder.packed
            together = _sweep_fragments(ALL_PASSES, packed, together=True)
            standalone = _sweep_fragments(ALL_PASSES, packed, together=False)
            assert together == standalone


class TestRegistry:
    def test_registered_passes_are_sorted_and_complete(self):
        assert registered_passes() == sorted(ALL_PASSES)

    def test_resolve_known_pass(self):
        for name in ALL_PASSES:
            assert resolve_pass(name).name == name

    def test_unknown_pass_lists_registry(self):
        with pytest.raises(UnknownPassError) as excinfo:
            resolve_pass("helgrind")
        message = str(excinfo.value)
        assert "helgrind" in message
        for name in ALL_PASSES:
            assert name in message

    def test_interest_union_preserves_first_seen_order(self):
        class A:
            interests = (ReadEvent, WriteEvent)

        class B:
            interests = (WriteEvent, LockEvent, UnlockEvent)

        assert interest_union((A, B)) == (
            ReadEvent, WriteEvent, LockEvent, UnlockEvent,
        )
        assert interest_union((A(), B())) == interest_union((A, B))

    def test_memo_key_depends_on_pass_names_and_digest(self):
        packed = PackedTrace("t")
        assert memo_key(("a", "b"), packed) == memo_key(("a", "b"), packed)
        assert memo_key(("a", "b"), packed) != memo_key(("b", "a"), packed)
        assert memo_key(("ab",), packed) != memo_key(("a", "b"), packed)


COUNTER_SRC = """
class Counter {
  int count;
  void inc() { int t = this.count; this.count = t + 1; }
}
test Seed { Counter c = new Counter(); c.inc(); }
"""


class TestCliDetectorSelection:
    def test_unknown_detector_name_fails_with_registry(self, tmp_path):
        path = tmp_path / "counter.minij"
        path.write_text(COUNTER_SRC)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(path), "--detectors", "fasttrack,helgrind"])
        message = str(excinfo.value)
        assert "helgrind" in message
        for name in registered_passes():
            assert name in message

    def test_known_detectors_accepted(self, tmp_path, capsys):
        path = tmp_path / "counter.minij"
        path.write_text(COUNTER_SRC)
        assert main(
            ["run", str(path), "--runs", "2", "--detectors", "fasttrack,djit+"]
        ) == 0
        capsys.readouterr()
