"""End-to-end pipeline benchmark + perf gate: writes BENCH_pipeline.json.

Runs the full Narada pipeline (synthesis + detection) over a generated
corpus (default: the 200-subject procedural corpus, the workload where
parallel dispatch actually matters) three ways and compares wall-clock:

* **serial** — ``jobs=1``, no cache: the pre-orchestrator baseline path;
* **parallel cold** — ``jobs=N`` over a fresh artifact cache: batched
  process-pool fan-out of one unit per subject (synthesis, then its
  fuzz loop), each dispatch ``ceil(queued units / 2N)`` units;
* **warm cache** — rerun against the now-populated cache: every stage
  replays from content-addressed artifacts.

Three gates:

* the canonical serialized reports must be **byte-identical** across all
  three runs (the orchestrator's determinism contract; batching changes
  scheduling, never results) — always enforced;
* the warm-cache rerun must be >= 5x faster than the cold run — always
  enforced (cache replay does no pipeline work, so this holds on any
  machine);
* the parallel run must be >= 2.5x faster than serial — enforced
  whenever the machine has >= 4 CPUs (a process pool cannot beat serial
  on fewer cores; the measured ratio is still recorded).

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline_e2e.py \
        [--count N] [--seed N] [--jobs N] [--runs N] [--out PATH]

or via pytest (smoke variant over a small corpus slice): see
``test_pipeline_e2e_smoke`` below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.corpus.generator import CorpusConfig, generate_corpus  # noqa: E402
from repro.corpus.runner import corpus_specs  # noqa: E402
from repro.narada import (  # noqa: E402
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
)

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_pipeline.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 3

#: Corpus workload defaults (mirrors ``repro corpus run``).
DEFAULT_COUNT = 200
DEFAULT_SEED = 0

#: Random schedules per synthesized test (modest: relative times matter).
DEFAULT_RUNS = 2

#: Acceptance ratios.
REQUIRED_PARALLEL_SPEEDUP = 2.5
REQUIRED_WARM_SPEEDUP = 5.0

#: Cores needed before the parallel gate is physically meaningful.
PARALLEL_GATE_MIN_CPUS = 4


def _run(specs, jobs, cache, config):
    """One timed leg: stream the corpus, keep only digests + ledger."""
    digests = {}
    start = time.perf_counter()
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=config) as orch:
        for outcome in orch.run_stream(specs):
            digests[outcome.spec.name] = outcome.digest()
        ledger = orch.fault_ledger
    elapsed = time.perf_counter() - start
    return elapsed, digests, ledger


def _combined(digests: dict) -> str:
    """One hash over every per-subject digest, in spec (key) order."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}={digests[name]}\n".encode())
    return h.hexdigest()


def run_bench(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    jobs: int = 4,
    runs: int = DEFAULT_RUNS,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    """Measure serial/parallel/warm; write and return payload."""
    subjects = generate_corpus(CorpusConfig(seed=seed, count=count))
    specs = corpus_specs(subjects)
    config = PipelineConfig(random_runs=runs)
    cpu_count = os.cpu_count() or 1

    serial_s, serial_digests, _ = _run(specs, jobs=1, cache=None, config=config)
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        cold_s, cold_digests, cold_ledger = _run(
            specs, jobs=jobs, cache=ArtifactCache(cache_dir), config=config
        )
        warm_s, warm_digests, _ = _run(
            specs, jobs=jobs, cache=ArtifactCache(cache_dir), config=config
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = serial_digests == cold_digests == warm_digests
    parallel_speedup = serial_s / cold_s
    warm_speedup = cold_s / warm_s
    parallel_gate = cpu_count >= PARALLEL_GATE_MIN_CPUS

    failures = []
    if not identical:
        failures.append(
            "determinism: serialized reports differ across "
            "serial/parallel/warm runs"
        )
    if warm_speedup < REQUIRED_WARM_SPEEDUP:
        failures.append(
            f"warm cache: {warm_speedup:.1f}x < required "
            f"{REQUIRED_WARM_SPEEDUP}x"
        )
    if parallel_gate and parallel_speedup < REQUIRED_PARALLEL_SPEEDUP:
        failures.append(
            f"parallel: {parallel_speedup:.2f}x < required "
            f"{REQUIRED_PARALLEL_SPEEDUP}x (jobs={jobs}, cpus={cpu_count})"
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "workload": "generated-corpus",
            "corpus_seed": seed,
            "corpus_count": count,
            "random_runs": runs,
            "directed": True,
            "jobs": jobs,
        },
        "machine": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "times_s": {
            "serial": round(serial_s, 3),
            "parallel_cold": round(cold_s, 3),
            "warm_cache": round(warm_s, 3),
        },
        "dispatch": {
            "units": cold_ledger.completed,
            "batches": cold_ledger.batches,
            "warm_reuses": cold_ledger.warm_reuses,
        },
        "speedups": {
            "parallel_vs_serial": round(parallel_speedup, 2),
            "warm_vs_cold": round(warm_speedup, 2),
        },
        "required": {
            "parallel_vs_serial": REQUIRED_PARALLEL_SPEEDUP,
            "parallel_gate_enforced": parallel_gate,
            "warm_vs_cold": REQUIRED_WARM_SPEEDUP,
        },
        "determinism": {
            "byte_identical": identical,
            "subjects": len(serial_digests),
            "combined_digest": _combined(serial_digests),
        },
        "failures": failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    times = payload["times_s"]
    speedups = payload["speedups"]
    dispatch = payload["dispatch"]
    lines = [
        "pipeline e2e (corpus x{}, runs={}, jobs={})".format(
            payload["scenario"]["corpus_count"],
            payload["scenario"]["random_runs"],
            payload["scenario"]["jobs"],
        ),
        f"  serial          {times['serial']:8.2f}s",
        "  parallel cold   {:8.2f}s  ({}x vs serial, gate {})".format(
            times["parallel_cold"],
            speedups["parallel_vs_serial"],
            "on" if payload["required"]["parallel_gate_enforced"] else "off",
        ),
        "  warm cache      {:8.2f}s  ({}x vs cold)".format(
            times["warm_cache"], speedups["warm_vs_cold"]
        ),
        "  dispatch: {} unit(s) in {} batch(es), {} warm reuse(s)".format(
            dispatch["units"], dispatch["batches"], dispatch["warm_reuses"]
        ),
        "  byte-identical reports: {}".format(
            payload["determinism"]["byte_identical"]
        ),
    ]
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_pipeline_e2e_smoke(tmp_path):
    """Small-corpus smoke: determinism + warm-cache gates must hold."""
    payload = run_bench(
        count=12,
        jobs=2,
        runs=2,
        out_path=tmp_path / "BENCH_pipeline_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("pipeline_e2e_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    assert payload["determinism"]["byte_identical"]
    assert payload["speedups"]["warm_vs_cold"] >= REQUIRED_WARM_SPEEDUP
    assert payload["dispatch"]["batches"] <= payload["dispatch"]["units"]
    assert not payload["failures"], payload["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    payload = run_bench(
        count=args.count,
        seed=args.seed,
        jobs=args.jobs,
        runs=args.runs,
        out_path=args.out,
    )
    print(_summarize(payload))
    print(f"wrote {args.out}")
    return 1 if payload["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
