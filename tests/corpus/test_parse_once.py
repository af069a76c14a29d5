"""Each subject's source is parsed once per orchestrator run, and a
source this process has seen is not parsed again for its digest.

The orchestrator parses every distinct source at most once, derives the
table digest from that table, hands the table to its inline units, and
leaves it on ``SubjectOutcome.table`` for the corpus scorer.  The table
digest is memoized by source hash, and a run parses a memoized source
only when an inline unit or a reader of ``.table`` first needs its
table.  These tests count parser entries, so a new re-parse anywhere on
the path fails them.
"""

import json
import sys
import threading
from collections import OrderedDict

import pytest

import repro.narada.orchestrator as orch_mod
from repro._util.errors import ParseError
from repro.corpus import CorpusConfig, generate_corpus, run_corpus
from repro.corpus.runner import site_method_map
from repro.lang import load
from repro.lang.parser import Parser
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
)
from repro.narada.orchestrator import ProgramSource, SubjectSpec
from repro.subjects import get_subject

CONFIG = PipelineConfig(random_runs=2)


@pytest.fixture
def parses(monkeypatch):
    """A counter of ``Parser.parse_program`` calls from now on."""
    calls = {"n": 0}
    real = Parser.parse_program

    def counting(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Parser, "parse_program", counting)
    return calls


def test_corpus_run_parses_each_subject_once_cold_and_warm(
    tmp_path, parses
):
    config = CorpusConfig(count=10)
    subjects = generate_corpus(config)
    cache = ArtifactCache(tmp_path / "cache")

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = run_corpus(config, orch, subjects=subjects)
    assert parses["n"] == 10

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = run_corpus(config, orch, subjects=subjects)
    assert parses["n"] == 10

    assert cold.recall == warm.recall == 1.0
    assert warm.digests == cold.digests


def test_specs_sharing_a_source_share_one_parse(parses):
    # One spec per class of one program, as Narada.synthesize_all
    # builds them for a fanned-out run.
    source = get_subject("C2").source
    specs = [
        SubjectSpec(name=name, source=source, target_class=name)
        for name in ("ArrayCollection", "SynchronizedCollection")
    ]
    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
        outcomes = orch.run(specs)
    assert parses["n"] == 1
    assert outcomes[0].table is outcomes[1].table
    assert all(o.detection is not None for o in outcomes)


@pytest.fixture
def memo(monkeypatch):
    """An empty source memo, so every source starts unseen."""
    fresh = OrderedDict()
    monkeypatch.setattr(orch_mod, "_SOURCE_MEMO", fresh)
    return fresh


def _c2_specs():
    source = get_subject("C2").source
    return [
        SubjectSpec(name=name, source=source, target_class=name)
        for name in ("ArrayCollection", "SynchronizedCollection")
    ]


def test_repeat_run_on_a_warm_cache_parses_nothing_until_table_is_read(
    tmp_path, memo, parses
):
    specs = subject_specs([get_subject("C8")])
    cache = ArtifactCache(tmp_path / "cache")
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = orch.run(specs)[0]

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = orch.run(specs)[0]
    assert parses["n"] == 0
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == cold.digest()

    table = warm.table
    assert parses["n"] == 1
    assert warm.table is table  # parsed once, then kept
    assert parses["n"] == 1
    assert site_method_map(table) == site_method_map(load(specs[0].source))


def test_specs_sharing_a_source_share_one_lazy_table_on_an_all_hit_run(
    tmp_path, memo, parses
):
    cache = ArtifactCache(tmp_path / "cache")
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        orch.run(_c2_specs())

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_c2_specs())
    assert parses["n"] == 0
    assert outcomes[0].table is outcomes[1].table
    assert parses["n"] == 1


def test_a_source_that_fails_to_parse_fails_every_time(memo, parses):
    bad = "class A { int f = ; }"
    spec = SubjectSpec(name="A", source=bad, target_class="A")
    for attempt in (1, 2):
        with pytest.raises(ParseError):
            ProgramSource.of(bad)
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            with pytest.raises(ParseError):
                orch.run([spec])
        assert parses["n"] == 2 * attempt
    assert len(memo) == 0


def test_memo_stays_within_its_bound_and_holds_only_digests(
    monkeypatch, memo, parses
):
    monkeypatch.setattr(orch_mod, "SOURCE_MEMO_SIZE", 4)
    sources = [s.source for s in generate_corpus(CorpusConfig(count=10))]
    digests = []
    for source in sources:
        digests.append(ProgramSource.of(source).digest)
        assert len(memo) <= 4
    assert parses["n"] == 10
    assert len(memo) == 4
    for key, (digest, class_names) in memo.items():
        assert isinstance(key, bytes) and len(key) == 32
        assert isinstance(digest, str) and len(digest) == 64
        assert all(isinstance(name, str) for name in class_names)
    assert [digest for digest, _ in memo.values()] == digests[-4:]

    # The newest sources hit; the oldest was dropped and parses again.
    assert ProgramSource.of(sources[-1]).digest == digests[-1]
    assert parses["n"] == 10
    assert ProgramSource.of(sources[0]).digest == digests[0]
    assert parses["n"] == 11


def _journal_lines(cache_root):
    return [
        json.loads(line)
        for path in sorted((cache_root / "runs").glob("*.jsonl"))
        for line in path.read_text().splitlines()
    ]


def test_an_all_hit_run_writes_no_journal(tmp_path, memo):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        orch.run(specs)
    for path in (root / "runs").glob("*.jsonl"):
        path.unlink()

    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        outcome = orch.run(specs)[0]
    assert outcome.synthesis_cached and outcome.detection_cached
    assert list((root / "runs").glob("*.jsonl")) == []


def test_a_run_whose_fuzz_units_compute_journals_its_synthesis_hit_too(
    tmp_path, memo
):
    specs = subject_specs([get_subject("C8")])
    cold_root = tmp_path / "cold"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(cold_root), config=CONFIG
    ) as orch:
        orch.run(specs)
    cold_lines = _journal_lines(cold_root)

    root = tmp_path / "cache"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        orch.run(specs, detect=False)
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        outcome = orch.run(specs)[0]
    assert outcome.synthesis_cached and not outcome.detection_cached

    # The synthesis hit is journaled first, then each computed fuzz unit
    # and the detection, exactly as a run that computed everything.
    lines = _journal_lines(root)
    stages = [line["stage"] for line in lines]
    assert stages[0] == "synthesis" and stages[-1] == "detection"
    assert set(stages[1:-1]) == {"fuzz"}
    assert lines == cold_lines


def test_memo_under_concurrent_lookups_keeps_its_bound_and_digests(
    monkeypatch, memo
):
    # Daemon connection threads look sources up concurrently; a lost
    # update would overgrow the memo, raise from a key evicted under
    # another thread, or pair a source with another's digest.
    monkeypatch.setattr(orch_mod, "SOURCE_MEMO_SIZE", 3)
    sources = [s.source for s in generate_corpus(CorpusConfig(count=6))]
    expected = {s: orch_mod.table_digest(load(s)) for s in sources}
    errors, sizes = [], []

    def lookups(offset):
        try:
            for i in range(24):
                source = sources[(offset + i) % len(sources)]
                assert ProgramSource.of(source).digest == expected[source]
                sizes.append(len(memo))
        except Exception as error:  # noqa: BLE001 — reported below
            errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lookups, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(sizes) == 8 * 24
    assert max(sizes) <= 3
