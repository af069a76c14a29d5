"""End-to-end benchmark of the Narada pipeline and the ``repro serve`` daemon.

Usage::

    python3 benchmarks/e2e/run.py --seed S [--workload NAME]
        [--seconds N] [--trace 0|1] [--out DIR]

Without ``--workload`` all four workloads run (see workloads.py), their
passes in round-robin order, so that a slow stretch of a shared machine
spreads across workloads instead of landing on one.  A batch workload
runs passes until ``--seconds`` of them are measured, and at least
three; serve-mixed serves its fixed plan of segments.

Every end-to-end metric is printed as ``workload metric value unit``
(``--trace 1``: every per-layer metric instead), ``DIR/results.json``
records the run with every pass's raw numbers, and the last line of
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when an output check failed.

Every end-to-end time is scaled by a speed probe that times a fixed
reference loop beside the pass (workloads.SpeedProbe), so that a stretch
in which the shared machine's CPUs run slow does not read as a slower
program; results.json keeps the unscaled times too.

``--trace 1`` alternates untraced passes with passes whose layer entry
points are wrapped in spans (spans.py) and writes the spans to
``DIR/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile
import time

import spans
from workloads import HERE, ROOT, WORKLOADS, Sizes, make_workload

DEFAULT_SECONDS = 15

#: End-to-end metrics and their units.  Every workload reports each one;
#: see end_to_end() for what they mean on each kind of workload.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-pass lists too long to keep in results.json; their summaries are.
RAW_LISTS = (
    "spans",
    "latencies_s",
    "server_s",
    "hit_latencies_s",
    "miss_latencies_s",
)

#: Span names reported as ``<name>.calls`` (per pass).
SPAN_CALLS = (
    "lang.load",
    "cache.table_digest",
    "cache.get",
    "cache.put",
    "synth.materialize",
    "fuzz.fuzz",
    "analysis.run_sweep",
    "trace.compress_trace",
)

#: Span names reported as ``<name>.self_s`` (seconds per pass).
SPAN_SELF = (
    "lang.load",
    "cache.table_digest",
    "cache.get",
    "cache.put",
    "serial.encode",
    "serial.decode",
    "serial.report_digest",
    "narada.run",
    "narada.run_seed_suite",
    "analysis.analyze_traces",
    "static.analyze_program",
    "pairs.generate_pairs",
    "context.derive_plans",
    "synth.synthesize",
    "synth.materialize",
    "runtime.prepare",
    "runtime.finish",
    "fuzz.fuzz",
    "analysis.run_sweep",
    "corpus.score_outcome",
    "daemon.handle_request",
)

#: Per-layer metrics and their units.  A layer that does no work on a
#: workload reads 0 there.
PER_LAYER = {
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{f"{name}.self_s": "s" for name in SPAN_SELF},
    "cache.hit_ratio": "ratio",
    "pairs.candidates": "count",
    "pairs.pruned_ratio": "ratio",
    "synth.tests": "count",
    "fuzz.runs": "count",
    "fuzz.trace_events": "count",
    "fuzz.memo_hit_ratio": "ratio",
    "fuzz.reproduced_ratio": "ratio",
    "pool.units": "count",
    "pool.batches": "count",
    "pool.retries": "count",
    "daemon.server_p50_ms": "ms",
    "daemon.overhead_p50_ms": "ms",
    "daemon.cache_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure(workloads: dict, seconds: float, trace: bool):
    """Round-robin passes until no workload wants another.

    With ``trace`` each workload alternates untraced and traced passes.
    """
    kinds = (False, True) if trace else (False,)
    passes: dict[str, list[dict]] = {name: [] for name in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    pending = list(workloads)
    while pending:
        for name in list(pending):
            done = passes[name]
            if not workloads[name].wants_pass(len(done), spent[name], seconds):
                pending.remove(name)
                continue
            traced = kinds[len(done) % len(kinds)]
            start = time.perf_counter()
            result = workloads[name].run_pass(traced)
            spent[name] += time.perf_counter() - start
            result["traced"] = traced
            done.append(result)
    return passes


def scaled_pass_s(passes: list[dict]) -> float:
    """The median pass time, each pass's wall time scaled by the speed
    probe that ran beside it (workloads.SpeedProbe)."""
    return statistics.median(p["wall_s"] * p["scale"] for p in passes)


def end_to_end(setup: tuple[float, float], passes: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one workload.

    ``setup`` is the workload's one-time set-up time and its scale.
    ``throughput_per_s`` is items (subjects or requests) per second of a
    median pass (:func:`scaled_pass_s`).  ``latency_p50_ms`` is the
    median time a caller waits for the result it asked for: on
    serve-mixed one request, the median over segments of each segment's
    median; on a batch workload the whole one-shot run, a median pass.
    """
    pass_s = scaled_pass_s(passes)
    medians = [p["latency_p50_s"] * p["scale"] for p in passes if "latency_p50_s" in p]
    setup_s, scale = setup
    return {
        "throughput_per_s": passes[0]["items"] / pass_s,
        "latency_p50_ms": 1000 * (statistics.median(medians) if medians else pass_s),
        "setup_s": setup_s * scale
        + statistics.median(p["setup_s"] * p["scale"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def diagnostics(passes: list[dict]) -> dict:
    """Numbers kept in results.json beside the metrics."""
    out = {
        "passes": len(passes),
        "median_pass_s": statistics.median(p["wall_s"] for p in passes),
        "median_scale": statistics.median(p["scale"] for p in passes),
    }
    if all("cpu_s" in p for p in passes):
        out["median_scaled_cpu_s"] = statistics.median(
            p["cpu_s"] * p["scale"] for p in passes
        )
    hits = [x * p["scale"] for p in passes for x in p.get("hit_latencies_s", ())]
    misses = [x * p["scale"] for p in passes for x in p.get("miss_latencies_s", ())]
    if hits and misses:
        out.update(
            hit_samples=len(hits),
            hit_latency_p50_ms=1000 * percentile(hits, 50),
            hit_latency_p99_ms=1000 * percentile(hits, 99),
            miss_samples=len(misses),
            miss_latency_p50_ms=1000 * percentile(misses, 50),
            miss_latency_p98_ms=1000 * percentile(misses, 98),
        )
    return out


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass."""
    n = len(traced)
    summary = spans.summarize([s for p in traced for s in p["spans"]])
    metrics: dict[str, float] = {}
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = summary[name]["calls"] / n
    for name in SPAN_SELF:
        metrics[f"{name}.self_s"] = summary[name]["self_s"] / n
    get = summary["cache.get"]
    metrics["cache.hit_ratio"] = ratio(get["counts"]["hits"], get["calls"])
    pairs = summary["pairs.generate_pairs"]["counts"]
    metrics["pairs.candidates"] = pairs["candidates"] / n
    metrics["pairs.pruned_ratio"] = ratio(pairs["pruned"], pairs["candidates"])
    metrics["synth.tests"] = summary["synth.synthesize"]["counts"]["tests"] / n
    fuzz = summary["fuzz.fuzz"]["counts"]
    metrics["fuzz.runs"] = fuzz["runs"] / n
    metrics["fuzz.trace_events"] = fuzz["trace_events"] / n
    metrics["fuzz.memo_hit_ratio"] = ratio(fuzz["memo_hits"], fuzz["memo_runs"])
    metrics["fuzz.reproduced_ratio"] = ratio(fuzz["reproduced"], fuzz["detected"])
    for key, name in (
        ("completed", "pool.units"),
        ("batches", "pool.batches"),
        ("retries", "pool.retries"),
    ):
        metrics[name] = sum(p["ledger"][key] for p in traced) / n
    served = [
        (latency, server)
        for p in traced
        for latency, server in zip(p.get("latencies_s", ()), p.get("server_s", ()))
        if server is not None
    ]
    metrics["daemon.server_p50_ms"] = (
        1000 * statistics.median(s for _, s in served) if served else 0.0
    )
    metrics["daemon.overhead_p50_ms"] = (
        1000 * statistics.median(lat - s for lat, s in served) if served else 0.0
    )
    cache = [p["daemon_cache"] for p in traced if "daemon_cache" in p]
    hits = sum(c["hits"] for c in cache)
    metrics["daemon.cache_hit_ratio"] = ratio(
        hits, hits + sum(c["misses"] for c in cache)
    )
    metrics["trace.overhead_frac"] = scaled_pass_s(traced) / scaled_pass_s(untraced) - 1
    attributed = sum(
        own
        for p in traced
        for span, own in zip(p["spans"], spans.self_times(p["spans"]))
        if span["pid"] == p["root_pid"]
    )
    metrics["trace.unattributed_frac"] = 1 - attributed / sum(
        p["wall_s"] for p in traced
    )
    return metrics


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(f" {ref}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(
    names: list[str],
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: pathlib.Path,
    sizes: Sizes = Sizes(),
) -> dict:
    """Run the workloads and return the results document."""
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(dir=work_root))
    workloads, setup = {}, {}
    try:
        for name in names:
            workloads[name] = make_workload(name, seed, sizes, work / name, trace)
        for name, workload in workloads.items():
            setup[name] = workload.setup()
        passes = measure(workloads, seconds, trace)
        problems = {name: w.check(passes[name]) for name, w in workloads.items()}
    finally:
        for workload in workloads.values():
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    results = {
        "seed": seed,
        "revision": git_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seconds": seconds,
        "trace": trace,
        "workloads": {},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in workloads:
        untraced = [p for p in passes[name] if not p["traced"]]
        traced = [p for p in passes[name] if p["traced"]]
        entry = {
            "setup_once_s": setup[name][0],
            "setup_once_scale": setup[name][1],
            "metrics": end_to_end(setup[name], untraced),
            "diagnostics": diagnostics(untraced),
            "attempted": sum(p["items"] for p in passes[name]),
            "failed": sum(p["failed"] for p in passes[name]) + len(problems[name]),
            "problems": problems[name]
            + [q for p in passes[name] for q in p["problems"]],
        }
        if traced:
            entry["per_layer"] = per_layer(traced, untraced)
            with open(out_dir / f"spans-{name}.jsonl", "w") as handle:
                for index, p in enumerate(traced):
                    for span in p["spans"]:
                        span.update(workload=name, **{"pass": index})
                        handle.write(json.dumps(span) + "\n")
        entry["passes"] = [
            {k: v for k, v in p.items() if k not in RAW_LISTS} for p in passes[name]
        ]
        results["workloads"][name] = entry
    (out_dir / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    return results


def summary_line(results: dict, trace: bool) -> dict:
    """The last output line: correctness, counts and the chosen metrics."""
    entries = results["workloads"]
    single = len(entries) == 1
    metrics = {}
    for name, entry in entries.items():
        values = entry["per_layer"] if trace else entry["metrics"]
        units = PER_LAYER if trace else END_TO_END
        for metric, value in values.items():
            key = metric if single else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
    failed = sum(e["failed"] for e in entries.values())
    return {
        "correct": failed == 0,
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "out")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = run(names, args.seed, args.seconds, bool(args.trace), args.out)
    for name, entry in results["workloads"].items():
        values = entry.get("per_layer") if args.trace else entry["metrics"]
        units = PER_LAYER if args.trace else END_TO_END
        for metric, value in values.items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        for problem in entry["problems"]:
            print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
    line = summary_line(results, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
