"""Per-subject digests do not depend on what the cache holds.

C1, C8 and a 10-subject stock-corpus slice run cold, then warm, and
again after each cache stage's entries are deleted.  At ``jobs`` 1 and
2, every run must reach the digests of a cache-free inline run and
leave the cold run's entries behind.  Every run reads each subject's
site map, as the corpus scorer does, so a replay that parsed for it
would show in the parse count.
"""

import pytest

import repro.narada.orchestrator as orch_mod
from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.runner import corpus_specs
from repro.fuzz import RaceFuzzer
from repro.lang.parser import Parser
from repro.narada import ArtifactCache, PipelineConfig, PipelineOrchestrator
from repro.narada import cache as cache_module
from repro.narada import serial
from repro.narada.orchestrator import subject_specs
from repro.subjects import get_subject

CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)

STAGES = ("detection", "synthesis")


def _specs():
    return subject_specs([get_subject("C1"), get_subject("C8")]) + corpus_specs(
        generate_corpus(CorpusConfig(count=10))
    )


@pytest.fixture
def parses(monkeypatch):
    """A counter of ``Parser.parse_program`` calls in this process."""
    calls = {"n": 0}
    real = Parser.parse_program

    def counting(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Parser, "parse_program", counting)
    return calls


def _run(cache, jobs=1):
    """Per-subject digests of one run, with every site map read."""
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_specs())
        assert orch.fault_ledger.ok()
    for outcome in outcomes:
        assert outcome.program.sites
    return {outcome.spec.name: outcome.digest() for outcome in outcomes}


def _entries(root) -> dict[str, list[str]]:
    return {
        stage: sorted(path.name for path in (root / stage).glob("*.json"))
        for stage in STAGES
    }


@pytest.fixture(scope="module")
def clean():
    """The digests of a cache-free inline run."""
    return _run(None)


@pytest.mark.parametrize("jobs", [1, 2])
def test_digests_are_identical_whatever_the_cache_holds(
    tmp_path, parses, clean, jobs
):
    root = tmp_path / "cache"
    assert _run(ArtifactCache(root), jobs) == clean
    entries = _entries(root)
    assert [len(entries[stage]) for stage in STAGES] == [12, 12]

    # (label, stage whose entries are deleted first, entries written).
    # A lost synthesis runs the subject's whole unit, which writes its
    # detection entry again too.
    runs = [
        ("warm", None, 0),
        ("synthesis deleted", "synthesis", 24),
        ("detection deleted", "detection", 12),
    ]
    for label, stage, writes in runs:
        if stage is not None:
            for path in (root / stage).glob("*.json"):
                path.unlink()
        parses["n"] = 0
        cache = ArtifactCache(root)
        assert _run(cache, jobs) == clean, label
        # The run leaves exactly the cold run's entries behind.
        assert _entries(root) == entries, label
        assert cache.stats.writes == writes, label
        # One cold run left every entry a replay reads; a subject with
        # a unit to run is parsed in this process, at any jobs.
        assert parses["n"] == (0 if stage is None else 12), label


def _detections(root) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes() for path in (root / "detection").glob("*.json")
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cold_run_reads_one_entry_a_subject(tmp_path, clean, jobs):
    """A subject whose synthesis misses reads no detection entry."""
    cache = ArtifactCache(tmp_path / "cache")
    assert _run(cache, jobs) == clean
    n = len(clean)
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.writes) == (0, n, 2 * n)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_lost_synthesis_reads_no_detection_entry(
    tmp_path, monkeypatch, clean, jobs
):
    """With every synthesis entry gone, a run reads no detection entry:
    each subject synthesizes and fuzzes again and writes back its
    detection entry byte for byte."""
    root = tmp_path / "cache"
    assert _run(ArtifactCache(root), jobs) == clean
    detections = _detections(root)
    for path in (root / "synthesis").glob("*.json"):
        path.unlink()
    fuzzed = {"n": 0}
    real_fuzz = RaceFuzzer.fuzz

    def counting(self, *args, **kwargs):
        fuzzed["n"] += 1
        return real_fuzz(self, *args, **kwargs)

    monkeypatch.setattr(RaceFuzzer, "fuzz", counting)
    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_specs())
        assert orch.fault_ledger.ok()
    assert {o.spec.name: o.digest() for o in outcomes} == clean
    assert not any(o.synthesis_cached or o.detection_cached for o in outcomes)
    n = len(clean)
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.writes) == (0, n, 2 * n)
    # Inline, the tests fuzz in this process; on the pool, in workers.
    assert (fuzzed["n"] > 0) == (jobs == 1)
    assert _detections(root) == detections


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_synthesis_hit_that_fuzzes_decodes_once(
    tmp_path, monkeypatch, clean, jobs
):
    """A synthesis hit whose detection is gone parses its entry's body
    once and decodes its head once, to decode the whole report before
    its unit fuzzes."""
    root = tmp_path / "cache"
    specs = subject_specs([get_subject("C8")])
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        orch.run(specs)
    (detection,) = (root / "detection").glob("*.json")
    detection.unlink()
    calls = {"parse_body": 0, "decode_synthesis": 0}

    def counting(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    for name in calls:
        wrapped = counting(name, getattr(serial, name))
        for module in (serial, cache_module, orch_mod):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    with PipelineOrchestrator(
        jobs=jobs, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        (outcome,) = orch.run(specs)
        assert orch.fault_ledger.ok()
    assert outcome.synthesis_cached and not outcome.detection_cached
    assert outcome.digest() == clean["C8"]
    assert calls == {"parse_body": 1, "decode_synthesis": 1}
