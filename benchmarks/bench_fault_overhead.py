"""Fault-tolerance overhead benchmark + gate: writes BENCH_fault.json.

Runs the full pipeline (synthesis + detection) over paper subjects
three ways and compares wall-clock and output digests:

* **baseline** — fault layer at rest: no watchdog deadline, no
  injection (the default configuration every other benchmark runs);
* **armed** — per-unit watchdog deadline + retry policy configured, but
  nothing injected: this is the clean-path cost of the fault machinery
  (deadline polling in the pool dispatch loop, SIGALRM arming inline);
* **injected** — deterministic ``crash:0.5`` fault injection with
  generous retries: every unit eventually converges, proving retried
  runs are bit-identical to clean ones (C1..C9 by default — the
  full-breadth identity check).

Gates:

* the serialized reports must be **byte-identical** across all three
  runs — always enforced;
* the injected run must fully converge (no permanent failures) and must
  actually have exercised the retry path — always enforced;
* the armed run must cost < 5% over baseline — enforced only when the
  baseline is long enough (>= 10s) for the ratio to be signal rather
  than scheduler noise; the measured overhead is always recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py \
        [--quick] [--subjects C1,C2,...] [--jobs N] [--runs N] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.narada import (  # noqa: E402
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
)
from repro.subjects import get_subject  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_fault.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 1

#: Random schedules per synthesized test (modest: relative times matter).
DEFAULT_RUNS = 2

#: Subjects the --quick mode (CI smoke) covers.
QUICK_SUBJECTS = ["C1", "C8"]

#: Clean-path overhead budget for the armed fault layer.
REQUIRED_MAX_OVERHEAD_PCT = 5.0

#: Baseline must run at least this long before the overhead ratio is
#: trustworthy enough to enforce.
OVERHEAD_GATE_MIN_SECONDS = 10.0

#: The injected scenario: crashes only (hangs would add a wall-clock
#: penalty of one watchdog deadline per injection — correctness of that
#: path is covered by the test suite, not timed here).  A unit is a
#: whole subject, so a run makes one draw per subject and attempt; at
#: 0.5 the first attempts of C1 (four) and C4 (two) crash, so both the
#: quick and the full run exercise the retry path.
FAULT_SPEC = "crash:0.5"
INJECTED_MAX_RETRIES = 10

#: Watchdog deadline for the armed + injected runs.  Generous: it must
#: never fire on a legitimately slow unit.
UNIT_TIMEOUT_S = 120.0


def _run(specs, jobs, config):
    start = time.perf_counter()
    with PipelineOrchestrator(jobs=jobs, cache=None, config=config) as orch:
        outcomes = orch.run(specs, detect=True)
        ledger = orch.fault_ledger
    elapsed = time.perf_counter() - start
    return elapsed, {o.spec.name: o.digest() for o in outcomes}, ledger


def run_bench(
    subject_keys: list[str] | None = None,
    jobs: int = 4,
    runs: int = DEFAULT_RUNS,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    """Measure baseline vs armed vs injected; write and return payload."""
    if subject_keys is None:
        specs = subject_specs()
    else:
        specs = subject_specs([get_subject(k) for k in subject_keys])

    baseline_cfg = PipelineConfig(random_runs=runs)
    armed_cfg = PipelineConfig(random_runs=runs, unit_timeout=UNIT_TIMEOUT_S)
    injected_cfg = PipelineConfig(
        random_runs=runs,
        unit_timeout=UNIT_TIMEOUT_S,
        max_retries=INJECTED_MAX_RETRIES,
        retry_backoff=0.0,
        fault_inject=FAULT_SPEC,
    )

    baseline_s, baseline_digests, _ = _run(specs, jobs, baseline_cfg)
    armed_s, armed_digests, armed_ledger = _run(specs, jobs, armed_cfg)
    injected_s, injected_digests, injected_ledger = _run(
        specs, jobs, injected_cfg
    )

    identical = baseline_digests == armed_digests == injected_digests
    overhead_pct = (armed_s / baseline_s - 1.0) * 100.0
    overhead_gate = baseline_s >= OVERHEAD_GATE_MIN_SECONDS

    failures = []
    if not identical:
        failures.append(
            "determinism: digests differ across baseline/armed/injected runs"
        )
    if not injected_ledger.ok():
        failures.append(
            f"injected run did not converge: "
            f"{len(injected_ledger.failures)} permanent failure(s)"
        )
    if injected_ledger.retries == 0:
        failures.append(
            "injected run never retried — the fault path was not exercised"
        )
    if armed_ledger.timeouts or armed_ledger.retries:
        failures.append(
            "armed clean run tripped the watchdog/retry path — the "
            "deadline is too tight for this machine"
        )
    if overhead_gate and overhead_pct > REQUIRED_MAX_OVERHEAD_PCT:
        failures.append(
            f"clean-path overhead {overhead_pct:.1f}% > allowed "
            f"{REQUIRED_MAX_OVERHEAD_PCT}%"
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "subjects": [spec.name for spec in specs],
            "random_runs": runs,
            "jobs": jobs,
            "fault_spec": FAULT_SPEC,
            "unit_timeout_s": UNIT_TIMEOUT_S,
            "injected_max_retries": INJECTED_MAX_RETRIES,
        },
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "times_s": {
            "baseline": round(baseline_s, 3),
            "armed": round(armed_s, 3),
            "injected": round(injected_s, 3),
        },
        "overhead": {
            "armed_vs_baseline_pct": round(overhead_pct, 2),
            "required_max_pct": REQUIRED_MAX_OVERHEAD_PCT,
            "gate_enforced": overhead_gate,
        },
        "injected_ledger": injected_ledger.to_dict(),
        "determinism": {
            "byte_identical": identical,
            "digests": baseline_digests,
        },
        "failures": failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    times = payload["times_s"]
    overhead = payload["overhead"]
    counters = payload["injected_ledger"]["counters"]
    lines = [
        "fault-layer overhead ({} subject(s), runs={}, jobs={})".format(
            len(payload["scenario"]["subjects"]),
            payload["scenario"]["random_runs"],
            payload["scenario"]["jobs"],
        ),
        f"  baseline  {times['baseline']:8.2f}s",
        "  armed     {:8.2f}s  ({:+.1f}% vs baseline, gate {})".format(
            times["armed"],
            overhead["armed_vs_baseline_pct"],
            "on" if overhead["gate_enforced"] else "off",
        ),
        "  injected  {:8.2f}s  ({} retries, {} respawns, {} failures)".format(
            times["injected"],
            counters["retries"],
            counters["pool_respawns"],
            len(payload["injected_ledger"]["failures"]),
        ),
        "  byte-identical reports: {}".format(
            payload["determinism"]["byte_identical"]
        ),
    ]
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_fault_overhead_smoke(tmp_path):
    """Two-subject smoke: identity + convergence gates must hold."""
    payload = run_bench(
        subject_keys=QUICK_SUBJECTS,
        jobs=2,
        runs=2,
        out_path=tmp_path / "BENCH_fault_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("fault_overhead_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    assert payload["determinism"]["byte_identical"]
    assert payload["injected_ledger"]["counters"]["retries"] > 0
    assert not payload["injected_ledger"]["failures"]
    assert not payload["failures"], payload["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--subjects",
        help="comma-separated subject keys (default: all nine)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke mode: subjects {','.join(QUICK_SUBJECTS)}",
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    if args.quick:
        keys = QUICK_SUBJECTS
    elif args.subjects:
        keys = args.subjects.split(",")
    else:
        keys = None
    payload = run_bench(
        subject_keys=keys, jobs=args.jobs, runs=args.runs, out_path=args.out
    )
    print(_summarize(payload))
    print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
