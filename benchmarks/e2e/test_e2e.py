"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import pytest

import compare
import run
import spans
import workloads
from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.runner import corpus_specs
from repro.narada import PipelineConfig, PipelineOrchestrator

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())

#: Every workload at a size that runs in seconds.
TINY = workloads.Sizes(
    cold_subjects=2,
    warm_subjects=2,
    paper_subjects=("C8",),
    serve_prime=2,
    serve_segments=2,
    serve_segment=6,
    serve_misses=2,
    min_passes=2,
)


def test_benchmark_json_matches_run_py():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_reports_every_metric(tmp_path, trace):
    results = run.run(
        list(workloads.WORKLOADS), 1, 0, trace, tmp_path, sizes=TINY
    )
    line = run.summary_line(results, trace)
    assert line["correct"], [e["problems"] for e in results["workloads"].values()]
    assert line["failed"] == 0 and line["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    for name in workloads.WORKLOADS:
        entry = results["workloads"][name]
        assert entry["metrics"].keys() == run.END_TO_END.keys()
        assert all(value > 0 for value in entry["metrics"].values())
        assert all(p["scale"] > 0 for p in entry["passes"])
        for metric, unit in expected.items():
            assert line["metrics"][f"{name}/{metric}"]["unit"] == unit
    assert (tmp_path / "results.json").exists()
    if trace:
        layers = {n: e["per_layer"] for n, e in results["workloads"].items()}
        # Replays do no fuzzing; the paper subjects are not parsed by
        # the scorer; only the daemon has a server side.
        assert layers["corpus-warm"]["fuzz.fuzz.calls"] == 0
        assert layers["corpus-cold"]["fuzz.fuzz.calls"] > 0
        assert layers["corpus-cold"]["corpus.score_outcome.self_s"] > 0
        assert layers["paper-fuzz"]["corpus.score_outcome.self_s"] == 0
        assert layers["serve-mixed"]["daemon.server_p50_ms"] > 0
        assert layers["serve-mixed"]["synth.materialize.calls"] > 0
        for name in ("corpus-cold", "corpus-warm", "paper-fuzz"):
            assert (tmp_path / f"spans-{name}.jsonl").exists()
            assert layers[name]["trace.unattributed_frac"] < 0.5


def test_speed_probe_scales_by_its_mean_chunk():
    probe = workloads.SpeedProbe(workloads.pass_cpu(1))
    probe.start()
    time.sleep(0.1)
    scale = probe.stop()
    assert not probe.is_alive()
    assert len(probe.chunks) >= 2
    expected = workloads.REFERENCE_CHUNK_S / statistics.mean(probe.chunks)
    assert scale == pytest.approx(expected)


def _span(pid, ident, parent, start, end, **counts):
    return {
        "name": f"s{ident}",
        "pid": pid,
        "id": ident,
        "parent": parent,
        "start": start,
        "end": end,
        "counts": counts,
    }


def test_self_time_subtracts_the_union_of_children():
    fake = [
        _span(1, 1, None, 0.0, 10.0),
        _span(1, 2, 1, 1.0, 4.0, runs=2),
        _span(1, 3, 1, 3.0, 6.0, runs=5),  # overlaps its sibling
        _span(1, 4, 2, 2.0, 3.0),
        _span(1, 5, 1, 9.0, 12.0),  # runs past its parent's end
        _span(2, 2, 1, 0.0, 1.0),  # another process: same ids, no relation
    ]
    assert spans.self_times(fake) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    summary = spans.summarize(fake)
    assert summary["s2"]["calls"] == 2
    assert summary["s2"]["self_s"] == pytest.approx(3.0)
    assert summary["s2"]["counts"]["runs"] == 2


def test_race_digest_check_rejects_a_tampered_outcome(tmp_path):
    (subject,) = generate_corpus(CorpusConfig(count=1))
    config = PipelineConfig(random_runs=workloads.RANDOM_RUNS)
    with PipelineOrchestrator(jobs=1, config=config) as orch:
        (outcome,) = orch.run(corpus_specs([subject]))
    honest = workloads.race_digest({subject.key: workloads.races_of(outcome)})
    fuzz = next(f for f in outcome.detection.fuzz_reports if f.reproduced)
    fuzz.reproduced = set(list(fuzz.reproduced)[1:])
    tampered = workloads.race_digest({subject.key: workloads.races_of(outcome)})
    assert tampered != honest

    def problems(seed, sizes, *digests):
        workload = workloads.BatchWorkload("corpus-cold", seed, sizes, tmp_path, False)
        return workload.check([{"race_digest": d} for d in digests])

    assert problems(1, TINY, honest, tampered)
    assert not problems(1, TINY, honest, honest)
    # At the default sizes a pass must also give the pin, whatever the seed.
    pin = workloads.PINNED["corpus-cold"]
    assert not problems(7, workloads.Sizes(), pin)
    assert problems(7, workloads.Sizes(), tampered)


def test_daemon_counts_equal_the_direct_pipeline(tmp_path):
    count =TINY.serve_prime + TINY.serve_segments * TINY.serve_misses
    subjects = generate_corpus(CorpusConfig(count=count))
    config = PipelineConfig(random_runs=workloads.RANDOM_RUNS)
    with PipelineOrchestrator(jobs=1, config=config) as orch:
        outcomes = orch.run(corpus_specs(subjects))
    direct = {
        o.spec.name: [
            o.synthesis.test_count,
            o.synthesis.pair_count,
            o.detection.detected,
            o.detection.reproduced,
        ]
        for o in outcomes
    }
    workload = workloads.make_workload("serve-mixed", 3, TINY, tmp_path, False)
    try:
        workload.setup()
        passes = [workload.run_pass(False) for _ in workload.plan]
        assert not any(p["problems"] for p in passes)
        (daemon,) = workload._daemons.values()
        assert daemon.counts_digest() == workloads.race_digest(direct)
    finally:
        workload.close()


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100 + i for i in range(10)], [130 + i for i in range(10)], "higher", "improved"),
        ([100 + i for i in range(10)], [101 + i for i in range(10)], "higher", "no worse"),
        ([100 + i for i in range(10)], [80 + i for i in range(10)], "higher", "regressed"),
        ([100 + i for i in range(10)], [80 + i for i in range(10)], "lower", "improved"),
        ([50, 150] * 5, [60, 160] * 5, "lower", "unresolved"),
        ([50, 150] * 5, [200] * 10, "higher", "no worse"),
        ([100.0, 101.0, 99.0], [102.0, 101.0, 103.0], "lower", "no worse"),
        ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "lower", "regressed"),
        # One run of A says nothing about A's spread.
        ([100.0], [102.0], "lower", "unresolved"),
        ([100.0], [90.0], "lower", "no worse"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1)[0] == expected


def test_compare_exits_nonzero_on_a_regression(tmp_path: pathlib.Path):
    def write(side: str, value: float) -> None:
        for run_index in range(3):
            metrics = {m["name"]: value + run_index for m in BENCHMARK["end_to_end"]}
            doc = {"trace": False, "workloads": {"corpus-cold": {"metrics": metrics}}}
            (tmp_path / side / str(run_index)).mkdir(parents=True)
            (tmp_path / side / str(run_index) / "results.json").write_text(
                json.dumps(doc)
            )

    write("a", 100.0)
    write("b", 100.0)
    write("c", 200.0)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
