"""Packed-vs-object trace benchmark + perf gate: writes BENCH_trace.json.

Measures the three claims the columnar trace engine makes:

* **detector throughput** — consuming a *stored* trace through each of
  the engine's two feed protocols: the packed batch loop (a singleton
  ``run_sweep``) versus the object feed, i.e. iterating the lazy
  object view and delivering each reconstructed event through
  ``on_event``.  Since the tentpole change, traces exist only in packed
  form (the recorder packs rows directly; the memo and the persistent
  cache store packed columns), so materialization is part of what the
  object protocol costs — there is no stored ``Trace`` list to feed
  for free.  A dispatch-only number (events pre-materialized outside
  the timed region) is recorded per detector for transparency; it
  isolates the batch loop's win over per-event ``on_event`` dispatch
  and is not gated.  Gate: >= 2x events/sec on the packed feed for
  every detector, and the race reports must be identical between the
  two paths (always enforced — it is a correctness property, not a
  performance one).
* **resident memory** — peak RSS of a subprocess that records and holds
  a large trace as heap Event objects versus packed columns.  Gate:
  the packed recording peaks strictly lower.
* **memo effectiveness** — fuzzing a real subject must produce a
  nonzero interleaving-digest memo hit rate (the fuzz loop's reason to
  exist; see ``repro/fuzz/racefuzzer.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_trace_memory.py \
        [--iters N] [--repeat N] [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import resource
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.analysis.sweep import run_sweep  # noqa: E402
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector  # noqa: E402
from repro.lang import load  # noqa: E402
from repro.runtime import Execution, RandomScheduler, VM  # noqa: E402
from repro.trace.columnar import ColumnarRecorder, PackedTrace  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_trace.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 1

REQUIRED_DETECTOR_SPEEDUP = 2.0

#: Two threads hammering shared fields under mixed lock discipline —
#: a dense access/lock stream shaped like the fuzz loop's hot traces.
HAMMER_SOURCE = """
class Hammer {
  int a;
  int b;
  int c;
  void work(int n) {
    int i = 0;
    while (i < n) {
      this.a = this.a + 1;
      int t = this.b;
      this.b = t + i;
      i = i + 1;
    }
  }
  synchronized void safeWork(int n) {
    int i = 0;
    while (i < n) {
      this.c = this.c + 1;
      i = i + 1;
    }
  }
}
test Seed { Hammer h = new Hammer(); }
"""


def record_hammer(iters: int) -> PackedTrace:
    """Record a two-thread hammer run into packed columns."""
    table = load(HAMMER_SOURCE)
    vm = VM(table, seed=0)
    _, env = vm.run_test("Seed")
    receiver = env["h"]
    recorder = ColumnarRecorder("hammer")
    execution = Execution(vm, listeners=(recorder,))
    for _ in range(2):
        def body(ctx):
            yield from vm.interp.call_method(ctx, receiver, "work", [iters])
            yield from vm.interp.call_method(
                ctx, receiver, "safeWork", [iters]
            )

        execution.spawn(body)
    result = execution.run(
        RandomScheduler(seed=11), max_steps=400 * iters + 10_000
    )
    assert result.completed, "hammer run did not finish; raise max_steps"
    return recorder.packed


def _race_payload(race_set):
    return (
        [
            (r.detector, r.class_name, r.field_name, r.address, r.first, r.second)
            for r in race_set
        ],
        race_set.dynamic_count,
    )


def bench_detectors(packed: PackedTrace, repeat: int) -> tuple[dict, list]:
    """Best-of-``repeat`` events/sec per detector, both feed protocols.

    The gated comparison is stored-trace consumption: ``run_sweep``
    over the columns versus the object feed ``for event in packed:
    on_event(event)`` (lazy materialization + dispatch).  The
    dispatch-only row (events pre-built once, outside the timed
    region) is informational.
    """
    events = packed.to_trace().events
    n = len(events)
    rows: dict[str, dict] = {}
    failures: list[str] = []
    for detector_cls in (FastTrackDetector, EraserDetector, DjitDetector):
        object_best = dispatch_best = packed_best = float("inf")
        object_races = packed_races = None
        for _ in range(repeat):
            detector = detector_cls()
            on_event = detector.on_event
            start = time.perf_counter()
            for event in packed:
                on_event(event)
            object_best = min(object_best, time.perf_counter() - start)
            object_races = detector.races

            detector = detector_cls()
            on_event = detector.on_event
            start = time.perf_counter()
            for event in events:
                on_event(event)
            dispatch_best = min(dispatch_best, time.perf_counter() - start)

            detector = detector_cls()
            start = time.perf_counter()
            run_sweep((detector,), packed)
            packed_best = min(packed_best, time.perf_counter() - start)
            packed_races = detector.races
        name = detector_cls().name
        if _race_payload(object_races) != _race_payload(packed_races):
            failures.append(f"{name}: packed and object race reports differ")
        speedup = object_best / packed_best
        rows[name] = {
            "events": n,
            "object_events_per_s": round(n / object_best),
            "dispatch_only_events_per_s": round(n / dispatch_best),
            "packed_events_per_s": round(n / packed_best),
            "speedup": round(speedup, 2),
            "speedup_vs_dispatch_only": round(dispatch_best / packed_best, 2),
            "races": len(packed_races),
        }
        if speedup < REQUIRED_DETECTOR_SPEEDUP:
            failures.append(
                f"{name}: packed speedup {speedup:.2f}x < required "
                f"{REQUIRED_DETECTOR_SPEEDUP}x"
            )
    return rows, failures


# ----------------------------------------------------------------------
# Peak-RSS comparison.  Each mode runs in a fresh subprocess so
# ru_maxrss reflects only that representation's recording.

_CHILD_TEMPLATE = r"""
import resource, sys
sys.path.insert(0, {src!r})
import bench_trace_memory as bench
from repro.lang import load
from repro.runtime import VM, Execution, RandomScheduler
from repro.trace import Recorder
from repro.trace.columnar import ColumnarRecorder

table = load(bench.HAMMER_SOURCE)
vm = VM(table, seed=0)
_, env = vm.run_test("Seed")
receiver = env["h"]
mode = {mode!r}
iters = {iters}
recorder = Recorder("hammer") if mode == "object" else ColumnarRecorder("hammer")
execution = Execution(vm, listeners=(recorder,))
for _ in range(2):
    def body(ctx):
        yield from vm.interp.call_method(ctx, receiver, "work", [iters])
        yield from vm.interp.call_method(ctx, receiver, "safeWork", [iters])
    execution.spawn(body)
result = execution.run(RandomScheduler(seed=11), max_steps=400 * iters + 10000)
assert result.completed
held = recorder.trace if mode == "object" else recorder.packed
print(len(held), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child_rss(mode: str, iters: int) -> tuple[int, int]:
    here = pathlib.Path(__file__).parent
    code = _CHILD_TEMPLATE.format(src=str(here), mode=mode, iters=iters)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(here.parent / "src"), "PATH": "/usr/bin:/bin"},
    ).stdout.split()
    return int(out[0]), int(out[1])


def bench_rss(iters: int) -> tuple[dict, list]:
    # The trace must dominate the interpreter's ~25 MiB baseline for
    # the representations to separate cleanly (hugepage-granularity
    # noise otherwise swamps a couple-MiB delta), so the RSS children
    # run a larger hammer than the throughput stage.
    iters = max(4 * iters, 12_000)
    object_events, object_rss = _child_rss("object", iters)
    packed_events, packed_rss = _child_rss("packed", iters)
    failures = []
    if object_events != packed_events:
        failures.append(
            f"rss children recorded different traces: "
            f"{object_events} vs {packed_events} events"
        )
    if packed_rss >= object_rss:
        failures.append(
            f"rss: packed recording peaked at {packed_rss} KiB, not below "
            f"the object recording's {object_rss} KiB"
        )
    row = {
        "events": object_events,
        "object_peak_rss_kib": object_rss,
        "packed_peak_rss_kib": packed_rss,
        "reduction": round(1 - packed_rss / object_rss, 3),
    }
    return row, failures


def bench_memo(random_runs: int) -> tuple[dict, list]:
    from repro.fuzz import RaceFuzzer
    from repro.narada import Narada
    from repro.subjects import get_subject

    subject = get_subject("C1")
    narada = Narada(subject.load())
    synthesis = narada.synthesize_for_class(subject.class_name)
    fuzzer = RaceFuzzer(narada.table, random_runs=random_runs)
    hits = misses = events = nbytes = 0
    for test in synthesis.tests:
        report = fuzzer.fuzz(test)
        hits += report.memo_hits
        misses += report.memo_misses
        events += report.trace_events
        nbytes += report.packed_bytes
    runs = hits + misses
    row = {
        "subject": "C1",
        "tests": len(synthesis.tests),
        "runs": runs,
        "memo_hits": hits,
        "memo_misses": misses,
        "hit_rate": round(hits / runs, 3) if runs else 0.0,
        "trace_events": events,
        "packed_bytes": nbytes,
    }
    failures = []
    if hits == 0:
        failures.append("memo: zero interleaving-digest hits fuzzing C1")
    return row, failures


def run_bench(
    iters: int = 3000,
    repeat: int = 3,
    random_runs: int = 6,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    packed = record_hammer(iters)
    detector_rows, failures = bench_detectors(packed, repeat)
    rss_row, rss_failures = bench_rss(iters)
    memo_row, memo_failures = bench_memo(random_runs)
    failures += rss_failures + memo_failures
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "hammer_iters": iters,
            "repeat": repeat,
            "trace_events": len(packed),
            "packed_bytes": packed.nbytes(),
            "fuzz_random_runs": random_runs,
        },
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "detectors": detector_rows,
        "required": {"detector_speedup": REQUIRED_DETECTOR_SPEEDUP},
        "rss": rss_row,
        "memo": memo_row,
        "failures": failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    lines = [
        "trace engine ({} events, {} packed bytes)".format(
            payload["scenario"]["trace_events"],
            payload["scenario"]["packed_bytes"],
        )
    ]
    for name, row in payload["detectors"].items():
        lines.append(
            "  {:10s} {:>12,} ev/s packed  vs {:>12,} ev/s object "
            "({}x; {}x vs dispatch-only)".format(
                name,
                row["packed_events_per_s"],
                row["object_events_per_s"],
                row["speedup"],
                row["speedup_vs_dispatch_only"],
            )
        )
    rss = payload["rss"]
    lines.append(
        "  peak RSS     {} KiB packed vs {} KiB object "
        "({:.0%} reduction)".format(
            rss["packed_peak_rss_kib"],
            rss["object_peak_rss_kib"],
            rss["reduction"],
        )
    )
    memo = payload["memo"]
    lines.append(
        "  fuzz memo    {}/{} runs hit ({:.0%})".format(
            memo["memo_hits"], memo["runs"], memo["hit_rate"]
        )
    )
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_trace_memory_smoke(tmp_path):
    """Quick variant: identity + memo gates must hold; speedups recorded."""
    payload = run_bench(
        iters=800,
        repeat=2,
        random_runs=4,
        out_path=tmp_path / "BENCH_trace_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("trace_memory_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    identity_failures = [
        f for f in payload["failures"] if "race reports differ" in f
    ]
    assert not identity_failures, identity_failures
    assert payload["memo"]["memo_hits"] > 0
    assert not payload["failures"], payload["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters", type=int, default=3000)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload (CI smoke)"
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    iters = 800 if args.quick else args.iters
    repeat = 2 if args.quick else args.repeat
    runs = 4 if args.quick else args.runs
    payload = run_bench(
        iters=iters, repeat=repeat, random_runs=runs, out_path=args.out
    )
    print(_summarize(payload))
    print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
