"""Cache entry format: stored digests and detection entries that name tests.

A ``synthesis`` entry holds the shared-object tables of its tests.  A
``detection`` entry holds none: every fuzz report names its test, and
decoding binds the name to the synthesis report's own test objects.
Both entries store their report digests, so a warm replay digests
nothing.  They are the only entries a pipeline run writes.
"""

import json

import pytest

from repro.narada import ArtifactCache, PipelineConfig, PipelineOrchestrator
from repro.narada import cache as cache_module
from repro.narada import orchestrator as orchestrator_module
from repro.narada import serial
from repro.narada.orchestrator import subject_specs
from repro.subjects import get_subject

CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)


def _specs():
    return subject_specs([get_subject("C8")])


def _run(cache=None, jobs=1):
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
        outcomes = orch.run(_specs())
    return outcomes[0], orch


def _entries(root, stage):
    return [
        (path, json.loads(path.read_text()))
        for path in sorted((root / stage).glob("*.json"))
    ]


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

    def counting_put(self, stage, key, data):
        writes.append((stage, key))
        return real_put(self, stage, key, data)

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
    path.write_text(json.dumps(detection))
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


def test_version_6_entries_are_clean_misses(tmp_path, monkeypatch, clean_digest):
    # Fill the cache as a version-6 writer would: keys and entries both
    # carry the old serial version.
    with monkeypatch.context() as old:
        old.setattr(serial, "SERIAL_VERSION", 6)
        old.setattr(cache_module, "SERIAL_VERSION", 6)
        _run(ArtifactCache(tmp_path))
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

