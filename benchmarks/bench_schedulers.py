"""Scheduler strategies on synthesized tests: random vs PCT vs Chess.

The paper positions its synthesized tests as input to *any* systematic
or randomized concurrency-testing backend (§6 cites RaceFuzzer, Chess,
PCT, Maple).  This benchmark runs three of those backends over the same
synthesized C1 tests and compares schedules-to-first-race:

* uniform random scheduling,
* PCT (depth 2 — the race depth — with one priority change point),
* Chess-style bounded exhaustive search (preemption bound 2), which is
  complete and returns a replayable certificate.
"""

from conftest import report_table

from _pipeline_cache import synthesis_for
from repro.analysis.sweep import run_sweep
from repro.detect import FastTrackDetector
from repro.fuzz import BoundedExplorer
from repro.runtime import PCTScheduler, RandomScheduler
from repro.synth import TestRunner
from repro.trace.columnar import ColumnarRecorder

MAX_ATTEMPTS = 30


def attempts_to_first_race(narada, test, make_scheduler):
    for attempt in range(MAX_ATTEMPTS):
        detector = FastTrackDetector()
        recorder = ColumnarRecorder(test.name, interests=detector.interests)
        runner = TestRunner(narada.table, listeners=(recorder,))
        runner.run(test, make_scheduler(attempt))
        run_sweep((detector,), recorder.packed)
        if detector.races:
            return attempt + 1
    return None


def test_scheduler_comparison(benchmark):
    subject, narada, report = synthesis_for("C1")
    tests = [t for t in report.tests if t.plan.full_context][:8]
    assert tests

    def measure():
        rows = []
        for test in tests:
            random_hits = attempts_to_first_race(
                narada, test, lambda seed: RandomScheduler(seed)
            )
            pct_hits = attempts_to_first_race(
                narada,
                test,
                lambda seed: PCTScheduler(seed=seed, expected_steps=120),
            )
            chess = BoundedExplorer(
                narada.table, preemption_bound=2, max_schedules=400
            ).explore(test)
            rows.append((test.name, random_hits, pct_hits, chess))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    racy_rows = [r for r in rows if r[3].race_count > 0]
    assert racy_rows, "expected racy tests among the full-context ones"
    for name, random_hits, pct_hits, chess in racy_rows:
        # Completeness: whenever Chess proves a race exists within the
        # bound, the randomized strategies should find it in few tries.
        assert random_hits is not None or pct_hits is not None, name
        # Every Chess race carries a certificate.
        for key in chess.races.static_keys():
            assert chess.first_schedule_for(key) is not None

    lines = [
        "Schedulers on synthesized C1 tests: attempts to first race",
        f"{'test':<36}{'random':>8}{'PCT':>6}{'chess schedules':>17}"
        f"{'races':>7}",
        "-" * 76,
    ]
    for name, random_hits, pct_hits, chess in rows:
        lines.append(
            f"{name:<36}{str(random_hits or '-'):>8}{str(pct_hits or '-'):>6}"
            f"{chess.schedules_run:>17}{chess.race_count:>7}"
        )
    report_table("schedulers", "\n".join(lines))
