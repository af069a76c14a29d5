"""Cache entry format: stored digests and detection entries that name tests.

A ``synthesis`` entry holds the shared-object tables of its tests.  A
``detection`` entry holds none: every fuzz report names its test, and
decoding binds the name to the synthesis report's own test objects.
Both entries store their report digests, so a warm replay digests
nothing, and a run writes no other entry.  Entries of an older serial
version are clean misses.
"""

import hashlib
import json
import os
import pathlib
import time

import pytest

from repro.narada import ArtifactCache, PipelineConfig, PipelineOrchestrator
from repro.narada import cache as cache_module
from repro.narada import orchestrator as orchestrator_module
from repro.narada import serial
from repro.lang import load
from repro.lang.parser import Parser
from repro.narada.orchestrator import subject_specs
from repro.subjects import get_subject

CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)


def _specs():
    return subject_specs([get_subject("C8")])


def _run(cache=None, jobs=1):
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_specs())
    return outcomes[0], orch


def _payload(path):
    """The payload an entry file holds: a two-part entry's body, the
    report, with the head's digest and volatile keys."""
    head, body = path.read_text().split("\n")
    data = json.loads(head)
    payload = json.loads(body)
    for key in ("digest", *serial.VOLATILE_KEYS):
        if key in data:
            payload[key] = data[key]
    return payload


def put_parts(cache, stage, key, head, body=b"{}"):
    """``cache.put`` of a two-part entry: ``head`` over ``body``, with
    the body's sha256 under ``digest``."""
    digest = hashlib.sha256(body).hexdigest()
    return cache.put(stage, key, {**head, "digest": digest}, body)


def _put_entry(path, payload, head_from=None):
    """Write ``payload`` to the two-part entry file ``path`` as a run
    writes it: the report's canonical bytes as the body, under the head
    cut from ``head_from`` (``payload`` itself by default) carrying the
    body's sha256.  A detection head keeps the site map of the entry
    ``path`` holds."""
    if payload["kind"] == "synthesis":
        head = serial.synthesis_head(head_from or payload)
    else:
        sites = serial.decode_sites(json.loads(path.read_text().split("\n")[0]))
        head = serial.detection_head(head_from or payload, sites)
    cache = ArtifactCache(path.parent.parent)
    assert put_parts(
        cache, path.parent.name, path.stem, head, serial.report_bytes(payload)
    )


def _entries(root, stage):
    return [(path, _payload(path)) for path in sorted((root / stage).glob("*.json"))]


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


@pytest.fixture(scope="module")
def clean_digest():
    """Digest of a cache-free inline run."""
    return _run()[0].digest()


def test_detection_entries_name_their_tests(tmp_path):
    outcome, _ = _run(ArtifactCache(tmp_path))
    (_, synthesis), = _entries(tmp_path, "synthesis")
    assert "tables" in synthesis
    (_, detection), = _entries(tmp_path, "detection")
    assert "tables" not in detection
    assert [fuzz["test"] for fuzz in detection["fuzz_reports"]] == [
        report.test.name for report in outcome.detection.fuzz_reports
    ]


def test_report_entries_store_their_report_digest(tmp_path):
    outcome, _ = _run(ArtifactCache(tmp_path))
    (_, synthesis), = _entries(tmp_path, "synthesis")
    (_, detection), = _entries(tmp_path, "detection")
    assert outcome.digest() == f"{synthesis['digest']}/{detection['digest']}"
    for entry in (synthesis, detection):
        assert entry["digest"] == serial.report_digest(entry)


def test_cold_run_reads_each_entry_once_and_stores_no_seed_traces(
    tmp_path, monkeypatch
):
    reads = []
    real_get = ArtifactCache.get

    def counting_get(self, stage, key):
        reads.append((stage, key))
        return real_get(self, stage, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    _run(ArtifactCache(tmp_path))
    assert reads
    assert len(reads) == len(set(reads))
    assert not (tmp_path / "seedtrace").exists()


def test_warm_replay_reads_two_entries_and_writes_none(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    _run(cache)
    reads = []
    real_get = ArtifactCache.get

    def counting_get(self, stage, key):
        reads.append(stage)
        return real_get(self, stage, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    writes = _count_puts(monkeypatch)
    warm, _ = _run(cache)
    assert warm.synthesis_cached and warm.detection_cached
    assert sorted(reads) == ["detection", "synthesis"]
    assert writes == []


def _count_puts(monkeypatch):
    writes = []
    real_put = ArtifactCache.put

    def counting_put(self, stage, key, *data):
        writes.append((stage, key))
        return real_put(self, stage, key, *data)

    monkeypatch.setattr(ArtifactCache, "put", counting_put)
    return writes


def test_cold_run_writes_each_entry_once(tmp_path, monkeypatch):
    writes = _count_puts(monkeypatch)
    _run(ArtifactCache(tmp_path))
    assert sorted(stage for stage, _ in writes) == ["detection", "synthesis"]
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "detection",
        "synthesis",
    ]


def test_decoded_detection_shares_the_synthesis_tests(tmp_path):
    cache = ArtifactCache(tmp_path)
    _run(cache)
    warm, _ = _run(cache)
    assert warm.detection_cached
    tests = {id(test) for test in warm.synthesis.tests}
    assert all(id(r.test) in tests for r in warm.detection.fuzz_reports)


def test_unknown_test_name_is_quarantined_and_recomputed(tmp_path, clean_digest):
    cache = ArtifactCache(tmp_path)
    _run(cache)
    (path, detection), = _entries(tmp_path, "detection")
    detection["fuzz_reports"][0]["test"] = "NoSuchTest"
    _put_entry(path, detection)
    outcome, orch = _run(cache)
    assert not outcome.detection_cached
    assert outcome.digest() == clean_digest
    assert orch.fault_ledger.quarantined == 1
    (reason,) = (tmp_path / "quarantine" / "detection").glob("*.reason.txt")
    assert "decode failure" in reason.read_text()
    assert "NoSuchTest" in reason.read_text()


def test_fuzz_bundle_bound_to_another_test_is_refused():
    outcome, _ = _run()
    first, second = outcome.synthesis.tests[:2]
    report = next(r for r in outcome.detection.fuzz_reports if r.test is first)
    bundle = serial.encode_fuzz_bundle(report)
    assert serial.decode_fuzz_bundle(bundle, first).test is first
    with pytest.raises(ValueError, match="names test"):
        serial.decode_fuzz_bundle(bundle, second)


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_replay_computes_no_digest(tmp_path, monkeypatch, clean_digest, jobs):
    cache = ArtifactCache(tmp_path)
    cold, _ = _run(cache, jobs=jobs)
    assert cold.digest() == clean_digest

    def refuse(data):
        raise AssertionError("report_digest called on a warm replay")

    monkeypatch.setattr(serial, "report_digest", refuse)
    monkeypatch.setattr(orchestrator_module, "report_digest", refuse)
    warm, _ = _run(cache, jobs=jobs)
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == clean_digest


def _assert_old_entries_are_clean_misses(tmp_path, clean_digest):
    filled = ArtifactCache(tmp_path).entry_count()
    assert filled > 0

    cache = ArtifactCache(tmp_path)
    outcome, orch = _run(cache)
    assert outcome.digest() == clean_digest
    assert not outcome.synthesis_cached and not outcome.detection_cached
    assert cache.stats.hits == 0
    assert cache.stats.quarantined == 0
    assert orch.fault_ledger.quarantined == 0
    assert cache.quarantine_count() == 0
    assert cache.entry_count() == 2 * filled


def test_version_6_entries_are_clean_misses(tmp_path, monkeypatch, clean_digest):
    # Fill the cache as a version-6 writer would: keys and entries both
    # carry the old serial version.
    with monkeypatch.context() as old:
        old.setattr(serial, "SERIAL_VERSION", 6)
        old.setattr(cache_module, "SERIAL_VERSION", 6)
        _run(ArtifactCache(tmp_path))
    _assert_old_entries_are_clean_misses(tmp_path, clean_digest)


def _single_document(stage):
    """``PipelineOrchestrator._put_report`` as an older writer ran it for
    ``stage``: the payload and its digest as one document."""
    real = PipelineOrchestrator._put_report

    def put_report(self, stage_, key, data, sites=None):
        if stage_ != stage:
            return real(self, stage_, key, data, sites)
        digest = serial.report_digest(data)
        path = pathlib.Path(self.cache._path(stage_, key))
        path.parent.mkdir(exist_ok=True)
        path.write_text(serial.canonical_json({**data, "digest": digest}))
        return digest

    return put_report


def test_version_7_single_document_entries_are_clean_misses(
    tmp_path, monkeypatch, clean_digest
):
    # A version-7 writer kept each synthesis entry as one document.
    with monkeypatch.context() as old:
        old.setattr(serial, "SERIAL_VERSION", 7)
        old.setattr(cache_module, "SERIAL_VERSION", 7)
        old.setattr(
            PipelineOrchestrator, "_put_report", _single_document("synthesis")
        )
        _run(ArtifactCache(tmp_path))
    (path,) = (tmp_path / "synthesis").glob("*.json")
    assert "\n" not in path.read_text()
    _assert_old_entries_are_clean_misses(tmp_path, clean_digest)


def test_version_8_single_document_detection_entries_are_clean_misses(
    tmp_path, monkeypatch, clean_digest
):
    # A version-8 writer kept each detection entry as one document.
    with monkeypatch.context() as old:
        old.setattr(serial, "SERIAL_VERSION", 8)
        old.setattr(cache_module, "SERIAL_VERSION", 8)
        old.setattr(
            PipelineOrchestrator, "_put_report", _single_document("detection")
        )
        _run(ArtifactCache(tmp_path))
    (path,) = (tmp_path / "detection").glob("*.json")
    assert "\n" not in path.read_text()
    _assert_old_entries_are_clean_misses(tmp_path, clean_digest)


def _as_version_9(path):
    """Rewrite the two-part entry file ``path`` in the version-9 framing:
    the head records its body's length and sha256 under ``body``."""
    head, body = path.read_bytes().split(b"\n")
    data = json.loads(head)
    data["body"] = {
        "length": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    path.write_bytes(serial.canonical_json(data).encode() + b"\n" + body)


def test_version_9_two_part_entries_are_clean_misses(
    tmp_path, monkeypatch, clean_digest
):
    # A version-9 writer framed each two-part entry's body with its
    # length and sha256.
    with monkeypatch.context() as old:
        old.setattr(serial, "SERIAL_VERSION", 9)
        old.setattr(cache_module, "SERIAL_VERSION", 9)
        _run(ArtifactCache(tmp_path))
    for stage in ("synthesis", "detection"):
        (path,) = (tmp_path / stage).glob("*.json")
        _as_version_9(path)
    _assert_old_entries_are_clean_misses(tmp_path, clean_digest)


def _table_key(digest, stage, config):
    """A stage key as writers that keyed entries by table digest (the
    sha256 of the pretty-printed program) derived it."""
    payload = {
        "table": digest,
        "stage": stage,
        "config": config,
        "salt": cache_module.CODE_SALT,
        "serial_version": serial.SERIAL_VERSION,
    }
    return hashlib.sha256(serial.canonical_json(payload).encode()).hexdigest()


def _table_keyed_root(root):
    """Fill ``root`` with C8's entries as writers that keyed them by
    table digest left them: reports under table-digest keys, detection
    heads without a site map, and a one-document ``source`` entry, keyed
    by the source text's sha256, holding the table digest, class names
    and site map.  Returns the paths of the three entries."""
    _run(ArtifactCache(root))
    (spec,) = _specs()
    table = load(spec.source)
    digest = cache_module.table_digest(table)
    paths = []
    for stage, config in (
        ("synthesis", CONFIG.synthesis_config(spec.target_class)),
        ("detection", CONFIG.detection_config(spec.target_class)),
    ):
        (path,) = (root / stage).glob("*.json")
        head, body = path.read_text().split("\n")
        head = json.loads(head)
        head.pop("sites", None)
        path.unlink()
        path = root / stage / f"{_table_key(digest, stage, config)}.json"
        path.write_text(serial.canonical_json(head) + "\n" + body)
        paths.append(path)
    methods = {}
    for node_id, name in sorted(table.site_methods().items()):
        methods.setdefault(name, []).append(node_id)
    text_key = hashlib.sha256(spec.source.encode()).hexdigest()
    path = root / "source" / f"{_table_key(text_key, 'source', {})}.json"
    path.parent.mkdir()
    path.write_text(
        serial.canonical_json(
            {
                "kind": "source",
                "version": serial.SERIAL_VERSION,
                "table": digest,
                "class_names": list(table.class_names()),
                "sites": methods,
            }
        )
    )
    return [path, *paths]


def test_a_table_digest_keyed_root_replays_as_clean_misses(
    tmp_path, parses, clean_digest
):
    stale = _table_keyed_root(tmp_path)
    parses["n"] = 0
    cache = ArtifactCache(tmp_path)
    outcome, orch = _run(cache)
    assert outcome.digest() == clean_digest
    assert not outcome.synthesis_cached and not outcome.detection_cached
    assert (cache.stats.hits, cache.stats.quarantined) == (0, 0)
    assert orch.fault_ledger.quarantined == 0
    assert parses["n"] == 1
    # The run writes its two entries beside the stale ones, and no
    # ``source`` entry.
    assert cache.stats.writes == 2
    assert all(path.exists() for path in stale)
    assert list((tmp_path / "source").iterdir()) == [stale[0]]
    assert cache.entry_count() == len(stale) + 2


def test_a_budget_evicts_a_table_digest_keyed_root_oldest_first(tmp_path):
    _run(ArtifactCache(tmp_path / "fresh"))
    fresh_bytes = ArtifactCache(tmp_path / "fresh").total_bytes()
    root = tmp_path / "stale"
    stale = _table_keyed_root(root)
    # Age the stale entries, the ``source`` one oldest.
    now = time.time()
    for age, path in enumerate(stale):
        os.utime(path, (now - 3600 + age, now - 3600 + age))
    sizes = [path.stat().st_size for path in stale]
    # Room for this run's two entries and every stale one but the
    # oldest; a few bytes spare for the head's wall-clock time.
    budget = fresh_bytes + sum(sizes) - sizes[0] + 50
    cache = ArtifactCache(root, max_bytes=budget)
    outcome, _ = _run(cache)
    assert not outcome.synthesis_cached
    assert [path.exists() for path in stale] == [False, True, True]
    assert list((root / "source").iterdir()) == []
    assert cache.stats.evictions == 1
    # A budget with room for this run's entries alone evicts the other
    # stale ones, never the fresh.
    assert cache.evict(fresh_bytes + 50) == 2
    assert not any(path.exists() for path in stale)
    warm, _ = _run(ArtifactCache(root))
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == outcome.digest()
