"""Ablation: detector back-ends on identical executions.

Runs the same synthesized C1 tests under each detector separately and
compares coverage and cost:

* Djit+ and FastTrack agree on which fields race (FastTrack may report
  fewer pairs — the epoch optimization's at-least-one-race guarantee),
* Eraser's lockset view is schedule-insensitive, so it flags at least
  the fields the HB detectors flag on these tests,
* per-event cost ordering is benchmarked (FastTrack's epochs vs Djit+'s
  full vector clocks).
"""

import pytest
from conftest import report_table

from _pipeline_cache import synthesis_for
from repro.analysis.sweep import run_sweep
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.runtime import RandomScheduler
from repro.synth import TestRunner
from repro.trace.columnar import ColumnarRecorder

DETECTORS = {
    "eraser": EraserDetector,
    "djit+": DjitDetector,
    "fasttrack": FastTrackDetector,
}


def run_with(detector_cls, narada, tests, runs=3):
    # One fresh detector per run: heap refs restart in every VM, so
    # reusing detector state across runs would alias unrelated objects.
    keys = set()
    fields = set()
    for test in tests:
        for seed in range(runs):
            detector = detector_cls()
            recorder = ColumnarRecorder(
                test.name, interests=detector.interests
            )
            runner = TestRunner(narada.table, listeners=(recorder,))
            runner.run(test, RandomScheduler(seed * 101 + 7, switch_bias=0.4))
            run_sweep((detector,), recorder.packed)
            keys |= detector.races.static_keys()
            fields |= {k[:2] for k in detector.races.static_keys()}
    return keys, fields


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_detector_cost(benchmark, name):
    subject, narada, report = synthesis_for("C1")
    tests = report.tests[:6]
    keys, _ = benchmark.pedantic(
        lambda: run_with(DETECTORS[name], narada, tests),
        rounds=1,
        iterations=1,
    )
    assert isinstance(keys, set)


def test_detector_coverage(benchmark):
    subject, narada, report = synthesis_for("C1")
    # Use tests whose racy methods hit the inner state repeatedly:
    # Eraser's lockset only starts refining at the second thread's
    # access (the exclusive-state initialization suppression of Savage
    # et al.), so it structurally misses races where each thread touches
    # the variable exactly once.
    mutators = {"addFirst", "addLast", "offer", "clear", "removeAll"}
    tests = [
        t
        for t in report.tests
        if {
            t.plan.left.side.method_id()[1],
            t.plan.right.side.method_id()[1],
        }
        <= mutators
    ][:10]
    assert tests

    results = benchmark.pedantic(
        lambda: {
            name: run_with(cls, narada, tests)
            for name, cls in DETECTORS.items()
        },
        rounds=1,
        iterations=1,
    )
    ft_keys, ft_fields = results["fasttrack"]
    dj_keys, dj_fields = results["djit+"]
    er_keys, er_fields = results["eraser"]

    # FastTrack ⊆ Djit+ at pair granularity, equal at field granularity.
    assert ft_keys <= dj_keys
    assert ft_fields == dj_fields
    # With repeated accesses the lockset detector sees the central racy
    # field too (it may still miss single-access-per-thread fields).
    assert ("CoalescedWriteBehindQueue", "count") in er_fields

    report_table(
        "ablation_detectors",
        "\n".join(
            [
                "Ablation: detector back-ends on identical C1 executions",
                f"{'detector':<12}{'race pairs':>12}{'racy fields':>13}",
                "-" * 38,
                *[
                    f"{name:<12}{len(results[name][0]):>12}"
                    f"{len(results[name][1]):>13}"
                    for name in ("eraser", "djit+", "fasttrack")
                ],
            ]
        ),
    )
