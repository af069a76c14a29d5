"""Round-trip check on the emitted synthesized suites.

``bench_emit_suites.py`` writes the synthesized racy tests for the nine
subjects to ``benchmarks/out/suites/<key>.minij`` as self-contained MiniJ
programs.  Those files are the pipeline's user-facing artifact, so they
must stay loadable by the front end and runnable by the VM: every test
in every suite re-parses, type-resolves, and executes to quiescence
without faults (under the deterministic test scheduler, racy tests still
complete — racing is a property of *schedules*, not of completion).
"""

import pathlib

import pytest

from repro.analysis.sweep import run_sweep
from repro.detect import FastTrackDetector
from repro.lang import load
from repro.runtime import VM
from repro.trace.columnar import ColumnarRecorder

SUITES_DIR = (
    pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "out" / "suites"
)

SUITE_FILES = sorted(SUITES_DIR.glob("*.minij"))


def test_suites_were_emitted():
    assert len(SUITE_FILES) == 9, (
        f"expected the nine subject suites in {SUITES_DIR}; "
        "run `pytest benchmarks/bench_emit_suites.py` to regenerate"
    )


@pytest.mark.parametrize(
    "path", SUITE_FILES, ids=[p.stem for p in SUITE_FILES]
)
def test_suite_reparses_and_executes(path):
    table = load(path.read_text())
    tests = table.program.tests
    assert tests, f"{path.name} contains no tests"
    for test in tests:
        vm = VM(table, seed=0)
        detector = FastTrackDetector()
        recorder = ColumnarRecorder(test.name, interests=detector.interests)
        result, _ = vm.run_test(test.name, listeners=(recorder,))
        run_sweep((detector,), recorder.packed)
        assert result.completed, (
            f"{path.name}::{test.name} did not run to quiescence"
        )
        assert not result.faults, (
            f"{path.name}::{test.name} faulted: {result.faults}"
        )
