"""The two-part layout of synthesis and detection cache entries.

A synthesis or detection entry is a head line and a body line.  The
body is the report's canonical bytes, the text ``report_digest``
hashes, and the head stores their sha256 under ``digest``.
``ArtifactCache.get`` parses the head alone and checks the body against
that digest, so an entry torn or garbled anywhere is a quarantined miss
at ``get``, never a hit whose deferred decode fails later, and so is a
file of one document.  A detection head holds each fuzz report's race
keys in place of its records, and the source's site map.  A pool
worker that fuzzes a cached synthesis is sent the whole payload: the
body, plus the head's digest and volatile keys.
"""

import hashlib
import json

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.runner import corpus_specs
from repro.lang import load
from repro.narada import ArtifactCache, PipelineConfig, PipelineOrchestrator
from repro.narada import serial
from repro.narada.cache import EntryDecodeError
from repro.narada.orchestrator import subject_specs
from repro.subjects import get_subject
from tests.narada.test_cache_format import _payload

CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)


def _c8():
    return subject_specs([get_subject("C8")])


def _run(cache, jobs=1, config=CONFIG):
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=config) as orch:
        (outcome,) = orch.run(_c8())
    return outcome, orch


def _only(root, stage):
    (path,) = (root / stage).glob("*.json")
    return path


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """A cache filled by a clean C8 run: ``(root, outcome)``."""
    root = tmp_path_factory.mktemp("filled")
    outcome, _ = _run(ArtifactCache(root))
    return root, outcome


def _copy(filled, tmp_path):
    root, _ = filled
    for path in root.rglob("*.json"):
        target = tmp_path / path.relative_to(root)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    return tmp_path


def _parts(path):
    """``(head, body bytes)`` of a two-part entry file, once the head's
    digest is shown to be the sha256 of the body it is followed by."""
    head_line, body = path.read_bytes().split(b"\n")
    head = json.loads(head_line)
    assert head["digest"] == hashlib.sha256(body).hexdigest()
    return head, body


def test_synthesis_body_is_the_report_and_head_its_cut(filled):
    root, outcome = filled
    head, body = _parts(_only(root, "synthesis"))
    data = serial.encode_synthesis(outcome.synthesis)
    assert body == serial.report_bytes(data)
    assert head == {**serial.synthesis_head(data), "digest": head["digest"]}
    # The head holds no plan, slot or access record.
    assert "plans" not in head and set(head["tables"]) == {
        "summaries",
        "pairs",
        "tests",
    }
    assert all(
        set(side) == {"summary"}
        for pair in head["tables"]["pairs"]
        for side in (pair["first"], pair["second"])
    )
    # Only the head holds the wall-clock time.
    assert "seconds" in head and "seconds" not in json.loads(body)


def test_detection_head_holds_race_keys_in_place_of_records(filled):
    root, outcome = filled
    head, body = _parts(_only(root, "detection"))
    data = serial.encode_detection(outcome.detection)
    assert body == serial.report_bytes(data)
    in_body = json.loads(body)["fuzz_reports"]
    fuzz_reports = outcome.detection.fuzz_reports
    assert len(fuzz_reports) == len(head["fuzz_reports"]) == len(in_body)
    assert any(fuzz.detected.static_keys() for fuzz in fuzz_reports)
    for fuzz, head_fuzz, body_fuzz in zip(
        fuzz_reports, head["fuzz_reports"], in_body
    ):
        keys = head_fuzz["detected"]["keys"]
        assert keys == sorted(keys)
        assert "races" not in head_fuzz["detected"]
        assert {serial._decode_static_key(k) for k in keys} == (
            fuzz.detected.static_keys()
        )
        assert head_fuzz["detected"]["dynamic_count"] == (
            fuzz.detected.dynamic_count
        )
        assert body_fuzz["detected"]["races"] == [
            serial._encode_race(r) for r in fuzz.detected
        ]
    # The site map rides in the head, outside the report's bytes.
    assert serial.decode_sites(head) == load(_c8()[0].source).site_methods()
    assert "sites" not in json.loads(body)


#: The corpus slice of ``CORPUS_PIN`` (tests/integration/test_pipeline_pins.py).
SLICE = CorpusConfig(seed=0, count=20)


def test_every_head_digest_hashes_its_body_and_digests_its_report(tmp_path):
    """Over C1..C9 and the pinned corpus slice, each entry's head digest
    is the sha256 of its body and the ``report_digest`` of the report
    its whole payload decodes to."""
    config = PipelineConfig(random_runs=1)
    specs = subject_specs() + corpus_specs(generate_corpus(SLICE))
    cache = ArtifactCache(tmp_path)
    with PipelineOrchestrator(jobs=1, cache=cache, config=config) as orch:
        outcomes = orch.run(specs)
    assert len(outcomes) == len(specs)
    by_digest = {}
    for stage in ("synthesis", "detection"):
        paths = sorted((tmp_path / stage).glob("*.json"))
        assert len(paths) == len(specs)
        for path in paths:
            head, _ = _parts(path)
            by_digest[head["digest"]] = _payload(path)
    for outcome in outcomes:
        synthesis_digest, detection_digest = outcome.digest().split("/")
        synthesis = serial.decode_synthesis(by_digest[synthesis_digest])
        detection = serial.decode_detection(
            by_digest[detection_digest], synthesis.tests
        )
        assert serial.report_digest(serial.encode_synthesis(synthesis)) == (
            synthesis_digest
        )
        assert serial.report_digest(serial.encode_detection(detection)) == (
            detection_digest
        )


def _torn(text: str, where: str) -> str:
    """``text`` damaged at ``where``."""
    split = text.index("\n")
    if where == "inside the head":
        return text[: split // 2]
    if where == "before the separator":
        return text[:split]
    if where == "after the separator":
        return text[: split + 1]
    if where == "inside the body":
        return text[: split + 1 + (len(text) - split) // 2]
    assert where == "one body byte flipped"
    at = split + 1 + (len(text) - split) // 2
    flipped = "1" if text[at] != "1" else "2"
    return text[:at] + flipped + text[at + 1 :]


DAMAGE = (
    "inside the head",
    "before the separator",
    "after the separator",
    "inside the body",
    "one body byte flipped",
)


STAGES = ("synthesis", "detection")


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("where", DAMAGE)
def test_a_damaged_entry_is_a_quarantined_miss_at_get(
    filled, tmp_path, where, stage
):
    root = _copy(filled, tmp_path)
    path = _only(root, stage)
    path.write_text(_torn(path.read_text(), where))
    cache = ArtifactCache(root)
    assert cache.get(stage, path.stem) is None
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    assert cache.stats.quarantined == 1
    (reason,) = (root / "quarantine" / stage).glob("*.reason.txt")
    assert "unreadable entry" in reason.read_text()


@pytest.mark.parametrize("stage", STAGES)
def test_a_one_document_entry_is_a_quarantined_miss_at_get(
    filled, tmp_path, stage
):
    """The whole payload and its digest as one document, the form older
    writers used, is no entry at a live key."""
    root = _copy(filled, tmp_path)
    path = _only(root, stage)
    path.write_text(serial.canonical_json(_payload(path)))
    cache = ArtifactCache(root)
    assert cache.get(stage, path.stem) is None
    assert cache.stats.quarantined == 1
    (reason,) = (root / "quarantine" / stage).glob("*.reason.txt")
    assert "unreadable entry" in reason.read_text()


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("where", DAMAGE)
def test_a_damaged_entry_is_recomputed_in_the_same_run(
    filled, tmp_path, where, stage
):
    """A damaged entry is recomputed in the run that meets it.  A
    synthesis entry with one byte flipped keeps its size, which is all
    a run checks of it behind a detection hit: that run replays, and the
    first read of the synthesis quarantines it and raises."""
    _, clean = filled
    root = _copy(filled, tmp_path)
    path = _only(root, stage)
    path.write_text(_torn(path.read_text(), where))
    cache = ArtifactCache(root)
    outcome, orch = _run(cache)
    if (stage, where) == ("synthesis", "one body byte flipped"):
        assert outcome.synthesis_cached and outcome.detection_cached
        assert outcome.digest() == clean.digest()
        assert cache.stats.quarantined == orch.fault_ledger.quarantined == 0
        with pytest.raises(EntryDecodeError):
            outcome.synthesis.tests
        assert cache.stats.quarantined == 1
        assert not path.exists()
        outcome, _ = _run(ArtifactCache(root))
        assert not outcome.synthesis_cached and not outcome.detection_cached
        assert outcome.digest() == clean.digest()
        return
    assert outcome.synthesis_cached == (stage != "synthesis")
    # A lost synthesis recomputes its detection too.
    assert not outcome.detection_cached
    assert outcome.digest() == clean.digest()
    assert cache.stats.quarantined == orch.fault_ledger.quarantined == 1
    assert cache.get(stage, path.stem) is not None


def test_torn_writes_recover(filled, tmp_path):
    """``corrupt:1.0`` shears every published entry, a synthesis
    entry inside its body; the next clean run quarantines them and
    recomputes the same reports."""
    _, clean = filled
    torn = PipelineConfig(
        random_runs=2, retry_backoff=0.0, fault_inject="corrupt:1.0"
    )
    _run(ArtifactCache(tmp_path), config=torn)
    text = _only(tmp_path, "synthesis").read_text()
    assert 0 < len(text) and "\n" in text  # sheared past the head
    cache = ArtifactCache(tmp_path)
    outcome, _ = _run(cache)
    assert not outcome.synthesis_cached and not outcome.detection_cached
    assert outcome.digest() == clean.digest()
    # The torn detection entry, read first, and the torn synthesis
    # entry, read since its detection missed, are both quarantined.
    assert cache.stats.quarantined == 2
    warm, _ = _run(ArtifactCache(tmp_path))
    assert warm.synthesis_cached and warm.detection_cached
    assert warm.digest() == clean.digest()


def test_a_pool_worker_is_sent_the_whole_payload(filled, tmp_path, monkeypatch):
    """A synthesis hit whose detection misses fuzzes on a pool worker,
    which is sent the whole payload, not the head alone."""
    _, clean = filled
    root = _copy(filled, tmp_path)
    _only(root, "detection").unlink()
    whole = _payload(_only(root, "synthesis"))
    sent = []
    real_run_units = PipelineOrchestrator._run_units

    def recording_run_units(self, units, *args):
        sent.extend(unit.args[3] for unit in units)
        return real_run_units(self, units, *args)

    monkeypatch.setattr(PipelineOrchestrator, "_run_units", recording_run_units)
    outcome, orch = _run(ArtifactCache(root), jobs=2)
    assert outcome.synthesis_cached and not outcome.detection_cached
    assert orch.fault_ledger.failures == []
    assert outcome.digest() == clean.digest()
    assert sent == [whole]
    assert type(sent[0]) is dict
