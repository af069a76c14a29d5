"""VM micro-benchmarks: the cost model behind the pipeline timings.

Not a paper table — engineering context for Table 4's synthesis times:
how fast the substrate parses, executes, and how much recording a run
and sweeping the detectors over it adds per event.  The workload
definitions live in :mod:`vm_scenarios`, shared with the
``perf_regression.py`` gate so both measure the same thing.
"""

from conftest import report_table
from vm_scenarios import HOT_LOOP, SCENARIOS, run_scenario

from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.lang import parse
from repro.trace import Recorder

_run = run_scenario


def test_parse_throughput(benchmark):
    source = "\n".join(HOT_LOOP for _ in range(5))
    program = benchmark(lambda: parse(source))
    assert len(program.classes) == 5


def test_bare_execution(benchmark):
    result = benchmark(_run)
    assert result.completed


def test_execution_with_recorder(benchmark):
    result = benchmark(lambda: _run(listeners=(Recorder(),)))
    assert result.completed


def test_execution_with_fasttrack(benchmark):
    result = benchmark(lambda: _run(passes=(FastTrackDetector(),)))
    assert result.completed


def test_execution_with_all_detectors(benchmark):
    result = benchmark(
        lambda: _run(
            passes=(FastTrackDetector(), EraserDetector(), DjitDetector())
        )
    )
    assert result.completed


def test_locked_loop_with_fasttrack(benchmark):
    result = benchmark(
        lambda: _run(passes=(FastTrackDetector(),), method="spinLocked")
    )
    assert result.completed


def test_throughput_table(benchmark):
    import time

    def measure(name, label):
        listener_factory, pass_factory, method = SCENARIOS[name]
        start = time.perf_counter()
        result = _run(
            listeners=listener_factory(), passes=pass_factory(), method=method
        )
        elapsed = time.perf_counter() - start
        return label, result.steps, result.steps / elapsed

    rows = benchmark.pedantic(
        lambda: [
            measure("bare", "bare VM"),
            measure("recorder", "+ recorder"),
            measure("fasttrack", "+ FastTrack"),
            measure("djit", "+ Djit+"),
            measure("all_detectors", "+ all detectors"),
        ],
        rounds=1,
        iterations=1,
    )
    report_table(
        "vm_throughput",
        "\n".join(
            [
                "VM throughput (two threads, hot field-update loop)",
                f"{'configuration':<18}{'events':>8}{'events/s':>12}",
                "-" * 40,
                *[
                    f"{label:<18}{steps:>8}{rate:>12,.0f}"
                    for label, steps, rate in rows
                ],
            ]
        ),
    )


def test_perf_regression_gate(benchmark):
    """Run the BENCH_vm.json gate as part of the bench suite."""
    import perf_regression

    payload = benchmark.pedantic(
        lambda: perf_regression.collect(rounds=3), rounds=1, iterations=1
    )
    path = perf_regression.write_report(payload)
    report_table(
        "vm_perf_gate",
        "\n".join(
            [
                f"perf gate ({path.name}): {'PASS' if payload['pass'] else 'FAIL'}",
                *[
                    f"  {name:<16}{payload['current'][name]['events_per_sec']:>12,.0f}"
                    f" ev/s  {payload['speedup'].get(name, '-')}x"
                    for name in sorted(SCENARIOS)
                ],
            ]
        ),
    )
    assert payload["pass"], payload["failures"]
