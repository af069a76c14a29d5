"""Generated-corpus recall/precision benchmark: writes BENCH_corpus.json.

Generates a seeded synthetic corpus (``repro.corpus``), pipelines every
subject through detect -> synthesize -> fuzz via the parallel
orchestrator, and scores the output against each subject's known-answer
oracle.  Two timed pipeline passes share one artifact cache:

* **cold** — fresh cache: every stage computes;
* **warm** — identical rerun: every stage replays from
  content-addressed artifacts.

Three gates:

* **recall == 1.0** — every oracle-known true race must be detected and
  no subject may fail or come back partial.  The corpus is constructed
  so each true race is expressible under *any* schedule (see
  ``repro.corpus.templates``), which is what makes a hard gate sound;
* the warm rerun must be >= 5x faster than cold;
* the per-subject outcome digests must be byte-identical cold vs warm.

Precision, pair precision, and deadlock confirmation are **measured and
reported**, not gated — the detectors are supposed to earn those
numbers, and bounded random fuzzing makes no completeness claim for
deadlocks.

Usage::

    PYTHONPATH=src python benchmarks/bench_corpus_recall.py \
        [--count N] [--seed S] [--jobs N] [--runs N] [--out PATH]

or via pytest (20-subject smoke): see ``test_corpus_recall_smoke``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.corpus import (  # noqa: E402
    CorpusConfig,
    generate_corpus,
    run_corpus,
)
from repro.corpus.generator import MAX_TEMPLATES, MIN_TEMPLATES  # noqa: E402
from repro.narada import (  # noqa: E402
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
)
from repro.narada.orchestrator import WAVE_SIZE  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_corpus.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 1

DEFAULT_COUNT = 200
DEFAULT_SEED = 0

#: Random schedules per synthesized test.  Recall does not depend on
#: this (every oracle race is schedule-independent by construction);
#: it only affects how often the deadlock templates actually deadlock.
DEFAULT_RUNS = 2

#: Acceptance ratio for the warm-cache rerun.
REQUIRED_WARM_SPEEDUP = 5.0


def _run(config, jobs, cache_dir, runs):
    start = time.perf_counter()
    with PipelineOrchestrator(
        jobs=jobs,
        cache=ArtifactCache(cache_dir),
        config=PipelineConfig(random_runs=runs),
    ) as orch:
        result = run_corpus(config, orch)
    return time.perf_counter() - start, result


def run_bench(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    jobs: int = 2,
    runs: int = DEFAULT_RUNS,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    """Generate, pipeline twice, score; write and return the payload."""
    config = CorpusConfig(seed=seed, count=count).validate()
    cpu_count = os.cpu_count() or 1

    start = time.perf_counter()
    subjects = generate_corpus(config)
    generate_s = time.perf_counter() - start

    cache_dir = tempfile.mkdtemp(prefix="repro-bench-corpus-")
    try:
        cold_s, cold = _run(config, jobs, cache_dir, runs)
        warm_s, warm = _run(config, jobs, cache_dir, runs)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = cold.digests == warm.digests
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    problems = cold.problems()

    failures = []
    failures.extend(f"recall: {p}" for p in problems)
    if warm_speedup < REQUIRED_WARM_SPEEDUP:
        failures.append(
            f"warm cache: {warm_speedup:.1f}x < required "
            f"{REQUIRED_WARM_SPEEDUP}x"
        )
    if not identical:
        failures.append(
            "determinism: outcome digests differ between cold and warm runs"
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "count": count,
            "seed": seed,
            "random_runs": runs,
            "jobs": jobs,
            "batch_size": WAVE_SIZE,
            "templates": list(config.templates),
            "min_templates": MIN_TEMPLATES,
            "max_templates": MAX_TEMPLATES,
        },
        "machine": {
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "times_s": {
            "generate": round(generate_s, 3),
            "pipeline_cold": round(cold_s, 3),
            "warm_cache": round(warm_s, 3),
        },
        "speedups": {
            "warm_vs_cold": round(warm_speedup, 2),
        },
        "required": {
            "recall": 1.0,
            "warm_vs_cold": REQUIRED_WARM_SPEEDUP,
        },
        "metrics": {
            "subjects": cold.subjects,
            "source_lines": sum(
                len(s.source.splitlines()) for s in subjects
            ),
            "oracle_races": cold.oracle_races,
            "detected_races": cold.detected_races,
            "true_detected": cold.true_detected,
            "missed_races": cold.missed_races,
            "recall": round(cold.recall, 4),
            "precision": round(cold.precision, 4),
            "candidate_pairs": cold.candidate_pairs,
            "true_candidate_pairs": cold.true_candidate_pairs,
            "pair_precision": round(cold.pair_precision, 4),
            "deadlock_expected": cold.deadlock_expected,
            "deadlock_observed": cold.deadlock_observed,
            "failed_subjects": cold.failed_subjects,
        },
        "determinism": {
            "byte_identical": identical,
        },
        "failures": failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    scenario = payload["scenario"]
    times = payload["times_s"]
    metrics = payload["metrics"]
    lines = [
        "corpus recall ({} subject(s), seed={}, runs={}, jobs={})".format(
            scenario["count"],
            scenario["seed"],
            scenario["random_runs"],
            scenario["jobs"],
        ),
        f"  generate      {times['generate']:8.2f}s  "
        f"({metrics['source_lines']} source lines)",
        f"  pipeline cold {times['pipeline_cold']:8.2f}s",
        "  warm cache    {:8.2f}s  ({}x vs cold)".format(
            times["warm_cache"], payload["speedups"]["warm_vs_cold"]
        ),
        "  recall    {} ({}/{} oracle races, {} lost)".format(
            metrics["recall"],
            metrics["true_detected"],
            metrics["oracle_races"],
            metrics["missed_races"],
        ),
        "  precision {} ({}/{} detected)".format(
            metrics["precision"],
            metrics["true_detected"],
            metrics["detected_races"],
        ),
        "  pair precision {} ({}/{} candidates)".format(
            metrics["pair_precision"],
            metrics["true_candidate_pairs"],
            metrics["candidate_pairs"],
        ),
        "  deadlocks observed {}/{} expected".format(
            metrics["deadlock_observed"], metrics["deadlock_expected"]
        ),
        "  byte-identical digests: {}".format(
            payload["determinism"]["byte_identical"]
        ),
    ]
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_corpus_recall_smoke(tmp_path):
    """20-subject smoke: recall, warm-cache, and determinism gates."""
    payload = run_bench(
        count=20,
        jobs=1,
        runs=3,
        out_path=tmp_path / "BENCH_corpus_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("corpus_recall_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    assert payload["metrics"]["recall"] == 1.0
    assert payload["determinism"]["byte_identical"]
    assert payload["speedups"]["warm_vs_cold"] >= REQUIRED_WARM_SPEEDUP
    assert not payload["failures"], payload["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=2)
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
