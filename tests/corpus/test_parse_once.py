"""Each subject's source is parsed at most once per orchestrator run,
and a run that finds every subject's entries parses nothing.

Cache keys hash the source text, so a lookup needs no parse.  The
orchestrator parses a distinct source only when one of its subjects has
a unit to run, and then in the parent before any unit runs; the table
feeds its inline units and the site map of the detection entries it
writes.  A detection hit carries the site map in its head, which the
corpus scorer reads from ``SubjectOutcome.program``.  The daemon
validates a request's source by parsing it, unless it remembers the
source's class names or the cache holds the named class's synthesis.
These tests count parser entries, so a new re-parse anywhere on the
path fails them.
"""

import json
import sys
import threading

import pytest

import repro.narada.daemon as daemon_mod
from repro._util.errors import ParseError
from repro.corpus import CorpusConfig, generate_corpus, run_corpus
from repro.lang import load
from repro.lang.parser import Parser
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
    ReproDaemon,
    subject_specs,
)
from repro.narada import serial
from repro.narada.cache import source_digest
from repro.narada.orchestrator import SubjectSpec
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


def _stages(root) -> dict[str, int]:
    return {path.name: len(list(path.glob("*.json"))) for path in root.iterdir()}


def test_corpus_run_parses_each_subject_once_cold_and_warm(tmp_path, parses):
    """Cold: 10 parses and 20 entries.  The replays after it, each in a
    fresh cache as a fresh process has, parse nothing and write
    nothing."""
    config = CorpusConfig(count=10)
    subjects = generate_corpus(config)
    root = tmp_path / "cache"
    results, parsed, writes = [], [], []
    for _ in range(3):
        parses["n"] = 0
        cache = ArtifactCache(root)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            results.append(run_corpus(config, orch, subjects=subjects))
        parsed.append(parses["n"])
        writes.append(cache.stats.writes)
    assert parsed == [10, 0, 0]
    assert writes == [20, 0, 0]
    assert _stages(root) == {"detection": 10, "synthesis": 10}
    cold, warm, replay = results
    assert cold.recall == warm.recall == replay.recall == 1.0
    assert warm.digests == cold.digests == replay.digests
    assert replay.to_dict() == cold.to_dict()


def _c2_specs():
    source = get_subject("C2").source
    return [
        SubjectSpec(name=name, source=source, target_class=name)
        for name in ("ArrayCollection", "SynchronizedCollection")
    ]


def test_specs_sharing_a_source_share_one_parse(parses):
    # One spec per class of one program, as Narada.synthesize_all
    # builds them for a fanned-out run.
    with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
        outcomes = orch.run(_c2_specs())
    assert parses["n"] == 1
    assert outcomes[0].program is outcomes[1].program
    assert all(o.detection is not None for o in outcomes)


def test_a_warm_replay_reads_two_entries_and_its_sites_from_the_head(
    tmp_path, parses
):
    specs = subject_specs([get_subject("C8")])
    cache = ArtifactCache(tmp_path / "cache")
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = orch.run(specs)[0]
    assert parses["n"] == 1

    parses["n"] = 0
    cache = ArtifactCache(tmp_path / "cache")
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = orch.run(specs)[0]
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == cold.digest()
    assert warm.program.sites == cold.program.sites
    assert parses["n"] == 0
    assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (2, 0, 0)
    assert warm.program.sites == load(specs[0].source).site_methods()


def test_a_detection_miss_parses_once_and_takes_its_sites_from_the_table(
    tmp_path, parses
):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        cold = orch.run(specs)[0]
    (path,) = (root / "detection").glob("*.json")
    path.unlink()

    parses["n"] = 0
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        again = orch.run(specs)[0]
    assert again.synthesis_cached and not again.detection_cached
    assert again.digest() == cold.digest()
    assert again.program._table is not None
    assert again.program.sites == cold.program.sites
    assert parses["n"] == 1


def test_specs_sharing_a_source_share_one_site_map_on_an_all_hit_run(
    tmp_path, parses
):
    cache = ArtifactCache(tmp_path / "cache")
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        orch.run(_c2_specs())

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_c2_specs())
    # The site map comes from the first detection head; the table,
    # which nothing cached, is parsed once for both specs when read.
    assert outcomes[0].program.sites is outcomes[1].program.sites
    assert parses["n"] == 0
    assert outcomes[0].program.table is outcomes[1].program.table
    assert parses["n"] == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_source_that_fails_to_parse_raises_before_any_unit(
    tmp_path, monkeypatch, parses, jobs
):
    bad = "class A { int f = ; }"
    spec = SubjectSpec(name="A", source=bad, target_class="A")

    def refuse(self, units, *args):
        raise AssertionError("a unit ran for a source that does not parse")

    monkeypatch.setattr(PipelineOrchestrator, "_run_units", refuse)
    cache = ArtifactCache(tmp_path / "cache")
    for attempt in (1, 2):
        with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
            with pytest.raises(ParseError):
                orch.run([spec])
        assert parses["n"] == attempt
    assert cache.stats.writes == 0
    assert not (tmp_path / "cache").exists()


def test_an_all_hit_run_writes_nothing(tmp_path):
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


@pytest.mark.parametrize("sites", [{"m": ["7"]}, ["m"], None])
def test_a_bad_site_map_quarantines_the_detection_entry(
    tmp_path, parses, sites
):
    specs = subject_specs([get_subject("C8")])
    root = tmp_path / "cache"
    with PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(root), config=CONFIG
    ) as orch:
        cold = orch.run(specs)[0]
    (path,) = (root / "detection").glob("*.json")
    head, body = path.read_text().split("\n")
    head = {**json.loads(head), "sites": sites}
    path.write_text(json.dumps(head) + "\n" + body)

    parses["n"] = 0
    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        outcome = orch.run(specs)[0]
    assert outcome.synthesis_cached and not outcome.detection_cached
    assert outcome.digest() == cold.digest()
    assert outcome.program.sites == cold.program.sites
    assert cache.stats.quarantined == orch.fault_ledger.quarantined == 1
    assert len(list((root / "quarantine" / "detection").glob("*.json"))) == 1
    assert parses["n"] == 1
    # The recomputed entry carries a good site map again.
    (path,) = (root / "detection").glob("*.json")
    head = json.loads(path.read_text().split("\n")[0])
    assert serial.decode_sites(head) == cold.program.sites


# ----------------------------------------------------------------------
# The daemon's class-name memo.


def _daemon(tmp_path, cache=None) -> ReproDaemon:
    return ReproDaemon(socket_path=str(tmp_path / "d.sock"), jobs=1, cache=cache)


def _validate(daemon, source, target=None):
    request = {"op": "detect", "source": source}
    if target is not None:
        request["target_class"] = target
    return daemon._specs_from(request, CONFIG)[0]


def test_memo_stays_within_its_bound_and_holds_only_class_names(
    tmp_path, monkeypatch, parses
):
    monkeypatch.setattr(daemon_mod, "SOURCE_MEMO_SIZE", 4)
    subjects = generate_corpus(CorpusConfig(count=10))
    names = [tuple(load(subject.source).class_names()) for subject in subjects]
    parses["n"] = 0
    daemon = _daemon(tmp_path)
    memo = daemon._class_names
    for subject in subjects:
        _validate(daemon, subject.source, subject.class_name)
        assert len(memo._names) <= 4
    assert parses["n"] == 10
    assert list(memo._names.values()) == names[-4:]
    assert all(len(key) == 64 for key in memo._names)

    # The newest sources hit; the oldest was dropped and parses again.
    _validate(daemon, subjects[-1].source, subjects[-1].class_name)
    assert parses["n"] == 10
    _validate(daemon, subjects[0].source, subjects[0].class_name)
    assert parses["n"] == 11


def test_a_named_class_with_a_cached_synthesis_validates_with_no_parse(
    tmp_path, parses
):
    subject = get_subject("C8")
    cache = ArtifactCache(tmp_path / "cache")
    spec = _validate(_daemon(tmp_path, cache), subject.source, subject.class_name)
    assert parses["n"] == 1
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        orch.run([spec], detect=False)
    assert parses["n"] == 1

    parses["n"] = 0
    fresh = _daemon(tmp_path, cache)
    spec = _validate(fresh, subject.source, subject.class_name)
    assert spec.program._table is None
    assert parses["n"] == 0
    # Under another config the entry is not there, and the source parses.
    fresh._specs_from(
        {
            "op": "detect",
            "source": subject.source,
            "target_class": subject.class_name,
        },
        PipelineConfig(vm_seed=1),
    )
    assert parses["n"] == 1
    # Without a class name the daemon needs the class names.
    spec = _validate(_daemon(tmp_path, cache), subject.source)
    assert spec.target_class == subject.class_name
    assert parses["n"] == 2


def test_a_source_that_fails_to_parse_is_never_remembered(tmp_path, parses):
    daemon = _daemon(tmp_path, ArtifactCache(tmp_path / "cache"))
    for attempt in (1, 2):
        with pytest.raises(ParseError):
            _validate(daemon, "class A { int f = ; }", "A")
        assert parses["n"] == attempt
    assert not daemon._class_names._names


def test_memo_under_concurrent_lookups_keeps_its_bound_and_names(
    monkeypatch, tmp_path
):
    # Connection threads validate requests concurrently; a lost update
    # would overgrow the memo, raise from a key evicted under another
    # thread, or pair a source with another's class names.
    monkeypatch.setattr(daemon_mod, "SOURCE_MEMO_SIZE", 3)
    subjects = generate_corpus(CorpusConfig(count=6))
    names = {s.key: tuple(load(s.source).class_names()) for s in subjects}
    daemon = _daemon(tmp_path)
    errors, sizes = [], []

    def lookups(offset):
        try:
            for i in range(24):
                subject = subjects[(offset + i) % len(subjects)]
                _validate(daemon, subject.source, subject.class_name)
                known = daemon._class_names.get(source_digest(subject.source))
                assert known in (None, names[subject.key])
                sizes.append(len(daemon._class_names._names))
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
