"""Emit each subject's synthesized tests as a standalone MiniJ suite.

The paper's deliverable *is* a multithreaded test suite.  This benchmark
produces that artifact: for every subject, the synthesized tests are
emitted as self-contained MiniJ source (seed slices + ``fork`` blocks),
written to ``benchmarks/out/suites/<key>.minij``, reloaded, and a sample
is executed to confirm the standalone form still races.
"""

import pathlib

from conftest import report_table

from _pipeline_cache import synthesis_for, all_keys
from repro.analysis.sweep import run_sweep
from repro.detect import FastTrackDetector
from repro.lang import load
from repro.runtime import Execution, RandomScheduler, VM
from repro.synth.emit import emit_standalone_program
from repro.trace.columnar import ColumnarRecorder

SUITES_DIR = pathlib.Path(__file__).parent / "out" / "suites"
PER_SUBJECT = 10
SAMPLE_RUNS = 4


def run_standalone_test(table, name):
    races = set()
    for seed in range(SAMPLE_RUNS):
        vm = VM(table)
        detector = FastTrackDetector()
        test = table.program.test_decl(name)
        recorder = ColumnarRecorder(name, interests=detector.interests)
        execution = Execution(vm, listeners=(recorder,))
        execution.spawn(
            lambda ctx, body=test.body.stmts: vm.interp.run_client_stmts(
                body, ctx, {}
            )
        )
        result = execution.run(RandomScheduler(seed))
        assert result.completed and not result.faults, (name, result.faults)
        run_sweep((detector,), recorder.packed)
        races |= detector.races.static_keys()
    return races


def test_emit_suites(benchmark):
    SUITES_DIR.mkdir(parents=True, exist_ok=True)

    def build():
        rows = []
        for key in all_keys():
            subject, narada, report = synthesis_for(key)
            tests = report.tests[:PER_SUBJECT]
            source = emit_standalone_program(narada.table, tests)
            (SUITES_DIR / f"{key}.minij").write_text(source)
            table = load(source)  # the emitted suite must load cleanly
            racy = 0
            for test in tests[:3]:
                if run_standalone_test(table, test.name):
                    racy += 1
            rows.append((key, len(tests), len(source.splitlines()), racy))
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    # Every subject's standalone sample exposes at least one race except
    # C4 (whose tests mostly serialize by design, Fig. 14).
    for key, _, _, racy in rows:
        if key != "C4":
            assert racy >= 1, key

    report_table(
        "emitted_suites",
        "\n".join(
            [
                "Standalone regression suites (benchmarks/out/suites/*.minij)",
                f"{'class':<7}{'tests':>7}{'LoC':>7}{'racy sample':>13}",
                "-" * 36,
                *[
                    f"{key:<7}{tests:>7}{loc:>7}{racy:>10}/3"
                    for key, tests, loc, racy in rows
                ],
            ]
        ),
    )
