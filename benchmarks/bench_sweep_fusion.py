"""Fused-sweep benchmark + perf gate: writes BENCH_sweep.json.

Measures the claim the unified analysis engine makes: running the fuzz
loop's detector stack (FastTrack + Eraser + Djit+ + adjacency probe) as
**one** fused sweep of a stored packed trace is substantially faster
than the four singleton sweeps it replaced, because opcode decode, the
per-thread clock cache, and the per-address slot lookup are shared
across passes instead of repeated per pass.

Workload: the C1..C9 paper subjects' seed suites, recorded once as
packed traces (with the stack's ``interest_union``, exactly like the
production fuzz path) and then swept repeatedly from storage.  Per
trace, best-of-``rounds`` wall time of

* **sequential** — four fresh pass instances, four singleton
  ``run_sweep`` calls, and
* **fused** — four fresh pass instances, one 4-pass ``run_sweep``.

Gates: the race/probe reports of the two paths must be identical on
every trace (correctness — always enforced), and the summed fused
throughput must be >= 1.5x the sequential one (the tentpole's
acceptance ratio).  A timed fused sweep also records the per-pass time
share (the same breakdown ``repro run --trace-stats`` prints).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_fusion.py \
        [--rounds N] [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.analysis.sweep import interest_union, run_sweep  # noqa: E402
from repro.detect import (  # noqa: E402
    DjitDetector,
    EraserDetector,
    FastTrackDetector,
)
from repro.fuzz.probes import AdjacencyProbe  # noqa: E402
from repro.runtime import VM  # noqa: E402
from repro.subjects import all_subjects  # noqa: E402
from repro.trace.columnar import ColumnarRecorder, PackedTrace  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_sweep.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 1

#: The tentpole's acceptance ratio: one fused sweep of the 4-pass stack
#: must beat the four singleton sweeps it replaced by this much.
REQUIRED_FUSION_SPEEDUP = 1.5

PASSES = (FastTrackDetector, EraserDetector, DjitDetector, AdjacencyProbe)


def record_seed_traces() -> list[tuple[str, PackedTrace]]:
    """Record every C1..C9 seed test as a packed trace.

    The recorder gets the stack's interest union, so the stored columns
    are exactly what the production fuzz loop sweeps.
    """
    interests = interest_union(PASSES)
    traces: list[tuple[str, PackedTrace]] = []
    for subject in all_subjects():
        table = subject.load()
        for test in table.program.tests:
            vm = VM(table, seed=0)
            recorder = ColumnarRecorder(test.name, interests=interests)
            vm.run_test(test.name, listeners=(recorder,))
            traces.append((subject.key, recorder.packed))
    return traces


def _stack_payload(passes) -> tuple:
    """Canonical report of one swept stack, for identity comparison."""
    fasttrack, eraser, djit, probe = passes
    detector_part = tuple(
        (
            [
                (r.detector, r.class_name, r.field_name, r.address, r.first, r.second)
                for r in d.races
            ],
            d.races.dynamic_count,
        )
        for d in (fasttrack, eraser, djit)
    )
    return detector_part + (tuple(sorted(probe.confirmed)),)


def bench_fusion(traces, rounds: int) -> tuple[dict, list[str]]:
    """Best-of-``rounds`` fused vs sequential sweep times, summed."""
    failures: list[str] = []
    total_events = 0
    seq_total = fused_total = 0.0
    per_trace: list[dict] = []
    per_pass_acc = [0.0] * len(PASSES)
    for key, packed in traces:
        n = len(packed)
        total_events += n
        seq_best = fused_best = float("inf")
        seq_payload = fused_payload = None
        for _ in range(rounds):
            passes = [cls() for cls in PASSES]
            start = time.perf_counter()
            for sweep_pass in passes:
                run_sweep((sweep_pass,), packed)
            seq_best = min(seq_best, time.perf_counter() - start)
            seq_payload = _stack_payload(passes)

            passes = [cls() for cls in PASSES]
            start = time.perf_counter()
            run_sweep(tuple(passes), packed)
            fused_best = min(fused_best, time.perf_counter() - start)
            fused_payload = _stack_payload(passes)
        if seq_payload != fused_payload:
            failures.append(f"{key}: fused and sequential reports differ")
        # Per-pass share from the timed kernel variant (not gated; the
        # timing instrumentation itself costs, so this is a breakdown
        # of the instrumented sweep, not of fused_best).
        timings: list[float] = []
        run_sweep(
            tuple(cls() for cls in PASSES), packed, timings=timings
        )
        for i, seconds in enumerate(timings):
            per_pass_acc[i] += seconds
        seq_total += seq_best
        fused_total += fused_best
        per_trace.append(
            {
                "subject": key,
                "events": n,
                "sequential_us": round(seq_best * 1e6, 1),
                "fused_us": round(fused_best * 1e6, 1),
                "speedup": round(seq_best / fused_best, 2),
            }
        )
    speedup = seq_total / fused_total
    if speedup < REQUIRED_FUSION_SPEEDUP:
        failures.append(
            f"fusion: {speedup:.2f}x < required {REQUIRED_FUSION_SPEEDUP}x"
        )
    share_total = sum(per_pass_acc) or 1.0
    rows = {
        "events": total_events,
        "sequential_events_per_s": round(total_events / seq_total),
        "fused_events_per_s": round(total_events / fused_total),
        "speedup": round(speedup, 2),
        "per_trace": per_trace,
        "per_pass_share": {
            cls.name: round(per_pass_acc[i] / share_total, 3)
            for i, cls in enumerate(PASSES)
        },
    }
    return rows, failures


def run_bench(rounds: int, out_path: pathlib.Path | None = None) -> dict:
    traces = record_seed_traces()
    fusion, failures = bench_fusion(traces, rounds)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "subjects": sorted({key for key, _ in traces}),
            "traces": len(traces),
            "events": fusion["events"],
            "passes": [cls.name for cls in PASSES],
            "rounds": rounds,
        },
        "python": platform.python_version(),
        "fusion": fusion,
        "required_fusion_speedup": REQUIRED_FUSION_SPEEDUP,
        "failures": failures,
        "pass": not failures,
    }
    out_path = out_path or OUT_PATH
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    fusion = payload["fusion"]
    lines = [
        "sweep fusion ({} traces, {} events, {} passes)".format(
            payload["scenario"]["traces"],
            fusion["events"],
            len(payload["scenario"]["passes"]),
        ),
        "  sequential  {:>12,} ev/s".format(fusion["sequential_events_per_s"]),
        "  fused       {:>12,} ev/s  ({}x, required {}x)".format(
            fusion["fused_events_per_s"],
            fusion["speedup"],
            payload["required_fusion_speedup"],
        ),
        "  pass share  "
        + ", ".join(
            f"{name}={share:.0%}"
            for name, share in fusion["per_pass_share"].items()
        ),
    ]
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_sweep_fusion_smoke(tmp_path):
    """Quick variant: identity gate must hold; speedup recorded."""
    payload = run_bench(rounds=3, out_path=tmp_path / "BENCH_sweep_smoke.json")
    try:
        from conftest import report_table

        report_table("sweep_fusion_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    identity_failures = [
        f for f in payload["failures"] if "reports differ" in f
    ]
    assert not identity_failures, identity_failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=50)
    parser.add_argument(
        "--quick", action="store_true", help="fewer rounds (CI smoke)"
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    rounds = 10 if args.quick else args.rounds
    payload = run_bench(rounds=rounds, out_path=args.out)
    print(_summarize(payload))
    print(f"report: {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
