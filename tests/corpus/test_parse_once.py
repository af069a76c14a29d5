"""Each subject's source is parsed once per orchestrator run, a source
this process has seen is not parsed again for its digest, and a source
an earlier process replayed is not parsed at all.

The orchestrator parses every distinct source at most once, derives the
table digest from that table, hands the table to its inline units, and
leaves the source's site map on ``SubjectOutcome.program`` for the
corpus scorer.  The table digest is memoized by source hash, and a run
parses a memoized source only when an inline unit or a reader of
``.sites`` first needs its table.  A holder that parses for want of
the source's ``source`` entry (digest, class names, site map) writes
the entry at once, which spares every later process the parse; a memo
hit reads that entry for its site map.  These tests count parser
entries, so a new re-parse anywhere on the path fails them; clearing
the memo stands for a fresh process.
"""

import json
import sys
import threading
from collections import OrderedDict

import pytest

import repro.narada.orchestrator as orch_mod
from repro._util.errors import ParseError
from repro.corpus import CorpusConfig, generate_corpus, run_corpus
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


@pytest.fixture
def memo(monkeypatch):
    """An empty source memo, so every source starts unseen."""
    fresh = OrderedDict()
    monkeypatch.setattr(orch_mod, "_SOURCE_MEMO", fresh)
    return fresh


def _source_entries(root) -> int:
    return len(list((root / "source").glob("*.json")))


def test_corpus_run_parses_each_subject_once_cold_and_warm(
    tmp_path, memo, parses
):
    """Cold: 10 parses, each writing its source entry.  The warm
    processes after it parse nothing and write nothing."""
    config = CorpusConfig(count=10)
    subjects = generate_corpus(config)
    root = tmp_path / "cache"
    results, parsed, entries = [], [], []
    for _ in range(3):
        memo.clear()
        parses["n"] = 0
        cache = ArtifactCache(root)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            results.append(run_corpus(config, orch, subjects=subjects))
        parsed.append(parses["n"])
        entries.append(_source_entries(root))
    assert parsed == [10, 0, 0]
    assert entries == [10, 10, 10]
    assert cache.stats.writes == 0
    cold, warm, replay = results
    assert cold.recall == warm.recall == replay.recall == 1.0
    assert warm.digests == cold.digests == replay.digests
    assert replay.to_dict() == cold.to_dict()


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
    assert outcomes[0].program is outcomes[1].program
    assert all(o.detection is not None for o in outcomes)


def _c2_specs():
    source = get_subject("C2").source
    return [
        SubjectSpec(name=name, source=source, target_class=name)
        for name in ("ArrayCollection", "SynchronizedCollection")
    ]


def test_repeat_run_on_a_warm_cache_parses_nothing_until_sites_are_read(
    tmp_path, memo, parses
):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = orch.run(specs)[0]
    # The cold run parsed once and wrote the source entry ...
    assert parses["n"] == 1
    assert _source_entries(root) == 1

    # ... so a replay in a fresh process parses nothing and writes nothing.
    memo.clear()
    parses["n"] = 0
    writes = cache.stats.writes
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        assert orch.run(specs)[0].program.sites
    assert parses["n"] == 0
    assert cache.stats.writes == writes

    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = orch.run(specs)[0]
    assert parses["n"] == 0
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == cold.digest()

    # A memo hit reads its sites from the source entry, once.
    hits = cache.stats.hits
    sites = warm.program.sites
    assert warm.program.sites is sites
    assert parses["n"] == 0
    assert cache.stats.hits == hits + 1
    assert sites == load(specs[0].source).site_methods()


def test_a_memo_hit_without_an_entry_parses_for_its_sites_and_saves_them(
    tmp_path, memo, parses
):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    cache = ArtifactCache(root)
    # A memo hit whose synthesis misses parses once, for its inline
    # unit's table; reading its sites finds no source entry, takes the
    # site map from that table and writes the entry.
    ProgramSource.of(specs[0].source)
    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = orch.run(specs)[0]
    assert not cold.synthesis_cached and parses["n"] == 1
    assert not (root / "source").exists()
    writes = cache.stats.writes
    sites = cold.program.sites
    assert parses["n"] == 1
    assert cache.stats.writes == writes + 1
    assert _source_entries(root) == 1

    # One whose synthesis hits parses for its sites and writes the
    # entry when the entry is gone ...
    (entry,) = (root / "source").glob("*.json")
    entry.unlink()
    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = orch.run(specs)[0]
    assert warm.synthesis_cached and parses["n"] == 0
    writes = cache.stats.writes
    assert warm.program.sites == sites
    assert parses["n"] == 1
    assert cache.stats.writes == writes + 1
    assert _source_entries(root) == 1

    # ... and the next repeat run reads it instead of parsing.
    writes = cache.stats.writes
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        again = orch.run(specs)[0]
    assert again.program.sites == sites
    assert parses["n"] == 1
    assert cache.stats.writes == writes


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
    # The site map comes from the cold run's source entry; the table,
    # which nothing cached, is parsed once for both specs.
    assert outcomes[0].program.sites is outcomes[1].program.sites
    assert parses["n"] == 0
    assert outcomes[0].program.table is outcomes[1].program.table
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


def test_an_all_hit_run_writes_nothing(tmp_path, memo):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        orch.run(specs)
    before = sorted(root.rglob("*"))

    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        outcome = orch.run(specs)[0]
    assert outcome.synthesis_cached and outcome.detection_cached
    assert cache.stats.writes == 0
    assert sorted(root.rglob("*")) == before


@pytest.mark.parametrize(
    "cached", [False, True, "empty"], ids=["memo", "memo+entries", "memo+writes"]
)
def test_memo_under_concurrent_lookups_keeps_its_bound_and_digests(
    monkeypatch, tmp_path, memo, cached
):
    # Daemon connection threads look sources up concurrently; a lost
    # update would overgrow the memo, raise from a key evicted under
    # another thread, pair a source with another's digest or site map,
    # or drop a cache hit from the counts.  On an empty root each
    # thread that parses writes the source's entry.
    monkeypatch.setattr(orch_mod, "SOURCE_MEMO_SIZE", 3)
    sources = [s.source for s in generate_corpus(CorpusConfig(count=6))]
    expected = {s: orch_mod.table_digest(load(s)) for s in sources}
    sites = {s: load(s).site_methods() for s in sources}
    cache = None
    if cached == "empty":
        cache = ArtifactCache(tmp_path / "cache")
    elif cached:
        for source in sources:
            ProgramSource.of(source, ArtifactCache(tmp_path / "cache"))
        memo.clear()
        cache = ArtifactCache(tmp_path / "cache")
    errors, sizes = [], []

    def lookups(offset):
        try:
            for i in range(24):
                source = sources[(offset + i) % len(sources)]
                program = ProgramSource.of(source, cache)
                assert program.digest == expected[source]
                assert program.sites == sites[source]
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
    if cached == "empty":
        # Every entry holds its own source's digest and site map.
        reader = ArtifactCache(tmp_path / "cache")
        for source in sources:
            assert orch_mod._read_source(reader, orch_mod._text_key(source)) == (
                expected[source],
                tuple(load(source).class_names()),
                sites[source],
            )
        assert reader.stats.hits == len(sources)
        assert len(list((tmp_path / "cache" / "source").iterdir())) == 6
    elif cached:
        # Each lookup reads its entry once: a memo miss for its digest,
        # a memo hit for its sites.
        assert cache.stats.hits == len(sizes)
        assert (cache.stats.misses, cache.stats.writes) == (0, 0)


def _bad_entry(kind: str, path) -> None:
    if kind == "corrupt":
        path.write_text(path.read_text()[:40])
    elif kind == "stale":
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "version": data["version"] - 1}))
    elif kind == "wrong-type":
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "sites": {"m": ["7"]}}))
    else:  # wrong-digest-type
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "table": 7}))


@pytest.mark.parametrize(
    "kind", ["corrupt", "stale", "wrong-type", "wrong-digest-type"]
)
def test_a_bad_source_entry_is_quarantined_and_the_source_parsed(
    tmp_path, memo, parses, kind
):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    # The cold run writes the source entry.
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        cold = orch.run(specs)[0].digest()
    (path,) = (root / "source").glob("*.json")
    _bad_entry(kind, path)

    memo.clear()
    parses["n"] = 0
    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        outcome = orch.run(specs)[0]
    assert parses["n"] == 1
    assert cache.stats.quarantined == 1
    assert orch.fault_ledger.quarantined == 1
    assert len(list((root / "quarantine" / "source").glob("*.json"))) == 1
    assert outcome.synthesis_cached and outcome.detection_cached
    assert outcome.digest() == cold
    # The parse wrote a good entry back, and the next process reads it.
    memo.clear()
    parses["n"] = 0
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        assert orch.run(specs)[0].digest() == cold
    assert parses["n"] == 0


def test_a_source_that_fails_to_parse_gets_no_entry(tmp_path, memo, parses):
    bad = "class A { int f = ; }"
    cache = ArtifactCache(tmp_path / "cache")
    for _ in range(2):
        with pytest.raises(ParseError):
            ProgramSource.of(bad, cache)
    assert parses["n"] == 2
    assert cache.stats.writes == 0
    assert not (tmp_path / "cache" / "source").exists()
