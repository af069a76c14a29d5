"""Static lockset pre-filter benchmark: writes BENCH_static.json.

Runs the generated corpus through the staged candidate pipeline twice —
once with the static pre-filter on (the default) and once with
``--no-static-filter`` semantics — and once more warm to show the
synthesis entries, which carry the filter's verdicts, replay from the
artifact cache.  On top of the
corpus sweep, every paper subject (C1..C9) is synthesized and fuzzed
through the serial :class:`repro.narada.Narada` path in both modes and
the detection payloads are digest-compared.

Gates (the whole point of the filter is that it is *free* soundness-wise):

* **soundness** — recall must be 1.0 in both modes and the set of
  statically pruned pairs must not intersect any subject's oracle race
  set (zero lost true races);
* **pruned fraction >= 0.30** — the filter must discharge a meaningful
  share of candidate pairs, else ranking budgets buy nothing;
* **measured time reduction** — the filter-on cold pipeline must be
  faster than filter-off on the same corpus (pruned tests are skipped,
  not fuzzed);
* **paper-subject identity** — C1..C9 detection payloads must be
  byte-identical filter-on vs filter-off (no paper subject loses a
  race, a reproduction, or even a schedule to the filter).

Usage::

    PYTHONPATH=src python benchmarks/bench_static_filter.py \
        [--count N] [--seed S] [--jobs N] [--runs N] [--quick] [--out PATH]
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

from repro.corpus import CorpusConfig, run_corpus  # noqa: E402
from repro.narada import (  # noqa: E402
    ArtifactCache,
    Narada,
    PipelineConfig,
    PipelineOrchestrator,
)
from repro.narada.serial import encode_detection, report_digest  # noqa: E402
from repro.subjects import get_subject  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_static.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check`` instead of KeyErrors downstream.
SCHEMA_VERSION = 1

DEFAULT_COUNT = 200
DEFAULT_SEED = 0
DEFAULT_RUNS = 2

#: Minimum fraction of candidate pairs the filter must discharge on the
#: generated corpus for the ranking/budget machinery to pay its way.
REQUIRED_PRUNED_FRACTION = 0.30

PAPER_SUBJECTS = [f"C{i}" for i in range(1, 10)]


def _run_corpus(config, jobs, cache_dir, runs, static_filter):
    start = time.perf_counter()
    with PipelineOrchestrator(
        jobs=jobs,
        cache=ArtifactCache(cache_dir),
        config=PipelineConfig(random_runs=runs, static_filter=static_filter),
    ) as orch:
        result = run_corpus(config, orch)
    return time.perf_counter() - start, result


def _paper_digest(key: str, static_filter: bool, runs: int) -> dict:
    subject = get_subject(key)
    narada = Narada(subject.load(), static_filter=static_filter)
    report = narada.synthesize_for_class(subject.class_name)
    detection = narada.detect(report, random_runs=runs)
    data = encode_detection(detection)
    # The rank annotation is the one field the filter is *allowed* to
    # add; everything else — schedules, races, outcomes, run counts —
    # must be byte-identical between modes.
    for fuzz in data["fuzz_reports"]:
        fuzz["rank_score"] = 0
    return {
        "pairs": report.pair_count,
        "pruned_pairs": report.pruned_pair_count,
        "detected": detection.detected,
        "reproduced": detection.reproduced,
        "digest": report_digest(data),
    }


def run_bench(
    count: int = DEFAULT_COUNT,
    seed: int = DEFAULT_SEED,
    jobs: int = 2,
    runs: int = DEFAULT_RUNS,
    paper_runs: int = 3,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    """Corpus on/off/warm + paper-subject identity; write the payload."""
    config = CorpusConfig(seed=seed, count=count).validate()

    cache_on = tempfile.mkdtemp(prefix="repro-bench-static-on-")
    cache_off = tempfile.mkdtemp(prefix="repro-bench-static-off-")
    try:
        on_s, on = _run_corpus(config, jobs, cache_on, runs, True)
        warm_s, warm = _run_corpus(config, jobs, cache_on, runs, True)
        off_s, off = _run_corpus(config, jobs, cache_off, runs, False)
    finally:
        shutil.rmtree(cache_on, ignore_errors=True)
        shutil.rmtree(cache_off, ignore_errors=True)

    paper = {}
    mismatched = []
    for key in PAPER_SUBJECTS:
        with_filter = _paper_digest(key, True, paper_runs)
        without = _paper_digest(key, False, paper_runs)
        paper[key] = {
            "filter_on": with_filter,
            "filter_off": without,
            "identical": with_filter["digest"] == without["digest"],
        }
        if not paper[key]["identical"]:
            mismatched.append(key)

    failures = []
    failures.extend(f"recall (filter on): {p}" for p in on.problems())
    failures.extend(f"recall (filter off): {p}" for p in off.problems())
    if on.pruned_oracle_races:
        failures.append(
            f"soundness: {on.pruned_oracle_races} oracle race(s) "
            "statically pruned"
        )
    if on.pruned_fraction < REQUIRED_PRUNED_FRACTION:
        failures.append(
            f"pruned fraction: {on.pruned_fraction:.3f} < required "
            f"{REQUIRED_PRUNED_FRACTION}"
        )
    if on_s >= off_s:
        failures.append(
            f"time: filter-on cold {on_s:.2f}s not faster than "
            f"filter-off {off_s:.2f}s"
        )
    if mismatched:
        failures.append(
            "paper identity: detection payloads differ filter-on vs "
            f"filter-off for {', '.join(mismatched)}"
        )
    if on.digests != warm.digests:
        failures.append(
            "determinism: warm-cache digests differ from cold (filter on)"
        )

    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "count": count,
            "seed": seed,
            "random_runs": runs,
            "paper_runs": paper_runs,
            "jobs": jobs,
            "templates": list(config.templates),
        },
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "times_s": {
            "filter_on_cold": round(on_s, 3),
            "filter_on_warm": round(warm_s, 3),
            "filter_off_cold": round(off_s, 3),
        },
        "speedups": {
            "on_vs_off": round(off_s / on_s, 2) if on_s > 0 else None,
            "warm_vs_cold": round(on_s / warm_s, 2) if warm_s > 0 else None,
        },
        "required": {
            "recall": 1.0,
            "pruned_oracle_races": 0,
            "pruned_fraction": REQUIRED_PRUNED_FRACTION,
        },
        "metrics": {
            "subjects": on.subjects,
            "oracle_races": on.oracle_races,
            "recall_on": round(on.recall, 4),
            "recall_off": round(off.recall, 4),
            "candidate_pairs": on.candidate_pairs,
            "pruned_pairs": on.pruned_pairs,
            "pruned_fraction": round(on.pruned_fraction, 4),
            "pruned_oracle_races": on.pruned_oracle_races,
            "detected_on": on.detected_races,
            "detected_off": off.detected_races,
        },
        "paper_subjects": paper,
        "failures": failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    scenario = payload["scenario"]
    times = payload["times_s"]
    metrics = payload["metrics"]
    identical = sum(
        1 for entry in payload["paper_subjects"].values() if entry["identical"]
    )
    lines = [
        "static pre-filter ({} subject(s), seed={}, runs={}, jobs={})".format(
            scenario["count"],
            scenario["seed"],
            scenario["random_runs"],
            scenario["jobs"],
        ),
        "  filter on  (cold) {:8.2f}s".format(times["filter_on_cold"]),
        "  filter on  (warm) {:8.2f}s  ({}x vs cold)".format(
            times["filter_on_warm"], payload["speedups"]["warm_vs_cold"]
        ),
        "  filter off (cold) {:8.2f}s  (filter saves {}x)".format(
            times["filter_off_cold"], payload["speedups"]["on_vs_off"]
        ),
        "  pruned {}/{} candidate pairs ({:.1%}), {} oracle race(s) lost".format(
            metrics["pruned_pairs"],
            metrics["candidate_pairs"],
            metrics["pruned_fraction"],
            metrics["pruned_oracle_races"],
        ),
        "  recall on/off: {} / {}".format(
            metrics["recall_on"], metrics["recall_off"]
        ),
        "  paper subjects byte-identical on vs off: {}/{}".format(
            identical, len(payload["paper_subjects"])
        ),
    ]
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_static_filter_smoke(tmp_path):
    """40-subject smoke: soundness, pruned-fraction, and identity gates."""
    payload = run_bench(
        count=40,
        jobs=1,
        runs=3,
        out_path=tmp_path / "BENCH_static_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("static_filter_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    assert payload["metrics"]["recall_on"] == 1.0
    assert payload["metrics"]["pruned_oracle_races"] == 0
    assert (
        payload["metrics"]["pruned_fraction"] >= REQUIRED_PRUNED_FRACTION
    )
    assert all(
        entry["identical"] for entry in payload["paper_subjects"].values()
    )
    assert not payload["failures"], payload["failures"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument(
        "--quick", action="store_true",
        help="40-subject sweep instead of the full corpus",
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    payload = run_bench(
        count=40 if args.quick else args.count,
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
