"""Perf-regression gate: measure VM throughput, write BENCH_vm.json.

Runs the shared :mod:`vm_scenarios` workloads (the same ones
``bench_vm_throughput.py`` times) and compares events/sec against the
pre-optimization baselines recorded below.  Results land in
``benchmarks/out/BENCH_vm.json``; the process exits non-zero if the
hot-path overhaul's acceptance ratios regress.

``--check`` skips measurement and instead validates the recorded
``benchmarks/out/BENCH_*.json`` reports: each expected file must exist
and carry the current ``schema_version``, otherwise the gate fails with
a message naming the report and the command that regenerates it (rather
than a traceback from whatever consumer reads the stale payload first).

Usage::

    PYTHONPATH=src python benchmarks/perf_regression.py [--rounds N]
    PYTHONPATH=src python benchmarks/perf_regression.py --check
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from vm_scenarios import LOOP_N, SCENARIOS, measure  # noqa: E402

#: BENCH_vm.json payload schema.  v1 was the unversioned original; v2
#: added this field.  Bump on any shape change.
SCHEMA_VERSION = 2

#: Pre-overhaul throughput (events/sec, best-of-3) on the same scenarios,
#: measured at the seed revision before the VM hot-path PR.
BASELINE_EVENTS_PER_SEC = {
    "bare": 78_990.0,
    "recorder": 70_387.0,
    "fasttrack": 40_911.0,
    "djit": 39_796.0,
    "all_detectors": 21_255.0,
}

#: Minimum speedup over baseline the overhaul must hold on to.
REQUIRED_SPEEDUP = {
    "bare": 2.0,
    "fasttrack": 1.5,
}


def collect(rounds: int) -> dict:
    """Measure every scenario and assemble the BENCH_vm.json payload."""
    current = {name: measure(name, rounds=rounds) for name in SCENARIOS}
    speedup = {
        name: round(current[name]["events_per_sec"] / baseline, 2)
        for name, baseline in BASELINE_EVENTS_PER_SEC.items()
    }
    failures = [
        f"{name}: {speedup[name]}x < required {required}x"
        for name, required in REQUIRED_SPEEDUP.items()
        if speedup[name] < required
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "program": "Worker.spin hot loop",
            "loop_n": LOOP_N,
            "threads": 2,
            "scheduler": "RoundRobinScheduler",
        },
        "python": platform.python_version(),
        "baseline_events_per_sec": BASELINE_EVENTS_PER_SEC,
        "current": current,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "failures": failures,
        "pass": not failures,
    }


#: Every report the benchmark suite is expected to have produced, the
#: schema version consumers of this revision understand, and the command
#: that regenerates it.  An absent ``schema_version`` key reads as 0
#: (the unversioned v1-era payloads), so every pre-versioning report is
#: reported as stale rather than crashing a consumer.
EXPECTED_REPORTS = {
    "BENCH_vm.json": (
        SCHEMA_VERSION,
        "PYTHONPATH=src python benchmarks/perf_regression.py",
    ),
    "BENCH_pipeline.json": (
        2,
        "PYTHONPATH=src python benchmarks/bench_pipeline_e2e.py",
    ),
    "BENCH_daemon.json": (
        1,
        "PYTHONPATH=src python benchmarks/bench_daemon_serve.py",
    ),
    "BENCH_fault.json": (
        1,
        "PYTHONPATH=src python benchmarks/bench_fault_overhead.py",
    ),
    "BENCH_chaos.json": (
        1,
        "PYTHONPATH=src python benchmarks/bench_chaos_daemon.py",
    ),
    "BENCH_corpus.json": (
        1,
        "PYTHONPATH=src python benchmarks/bench_corpus_recall.py",
    ),
    "BENCH_static.json": (
        1,
        "PYTHONPATH=src python benchmarks/bench_static_filter.py",
    ),
}


def check_reports(out_dir: pathlib.Path | None = None) -> list[str]:
    """Validate the recorded BENCH_*.json reports; return problems.

    Each entry names the offending report and how to regenerate it —
    this is the ``--check`` output, designed to fail loudly and legibly
    when a report is missing, unparseable, or written by an older
    benchmark revision.
    """
    out_dir = out_dir or pathlib.Path(__file__).parent / "out"
    problems: list[str] = []
    for name, (required, regen) in sorted(EXPECTED_REPORTS.items()):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{path}: missing — regenerate with `{regen}`")
            continue
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            problems.append(
                f"{path}: unreadable ({error}) — regenerate with `{regen}`"
            )
            continue
        found = payload.get("schema_version", 0)
        if found < required:
            problems.append(
                f"{path}: schema_version {found} < expected {required}"
                f" — regenerate with `{regen}`"
            )
    return problems


def write_report(payload: dict, out_dir: pathlib.Path | None = None) -> pathlib.Path:
    out_dir = out_dir or pathlib.Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "BENCH_vm.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    def _positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("--rounds must be >= 1")
        return value

    parser.add_argument(
        "--rounds", type=_positive_int, default=5,
        help="measurement rounds per scenario (best-of-N)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="validate recorded BENCH_*.json reports instead of measuring",
    )
    args = parser.parse_args(argv)
    if args.check:
        problems = check_reports()
        if problems:
            for problem in problems:
                print(f"STALE BENCH REPORT: {problem}")
            return 1
        print(f"bench reports: all {len(EXPECTED_REPORTS)} current")
        return 0
    payload = collect(rounds=args.rounds)
    path = write_report(payload)
    for name, stats in sorted(payload["current"].items()):
        ratio = payload["speedup"].get(name)
        suffix = f"  ({ratio}x baseline)" if ratio is not None else ""
        print(f"{name:18s} {stats['events_per_sec']:>12,.0f} ev/s{suffix}")
    print(f"report: {path}")
    if payload["failures"]:
        print("PERF REGRESSION:", "; ".join(payload["failures"]))
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
