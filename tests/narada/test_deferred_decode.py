"""A replayed report parses and decodes only what its readers use.

Synthesis and detection entries are a head and a body.  A synthesis hit
parses the head and decodes the id lists, the pairs with their
summaries' headers, the verdicts and the tests' names and covered
pairs.  The plans, the slots, the summary bodies and the pair sides'
accesses decode from the body when one of them is first read.  A
detection hit decodes each fuzz report from the head, its race set
holding the races' static keys; the race records decode from the body
when first read.  A detection hit reads no synthesis entry at all: its
synthesis report and tests are stand-ins that read and decode the entry
when first used.  These tests check that the hot readers (scoring, the
daemon's reply) never read a synthesis entry nor parse a body, that a
head is a cut of the encoded report, that a fully read replay equals an
eager decode object for object, that the replay keeps no parsed table
alive, and that a deferred decode that fails is quarantined and
recomputed.
"""

import copy
import dataclasses
import gc
import json
import pathlib
import types

import pytest

import repro.narada.orchestrator as orch_mod
from repro.analysis.model import MethodSummary
from repro.context import plan as plan_module
from repro.corpus import CorpusConfig, generate_corpus, run_corpus
from repro.corpus.runner import corpus_specs
from repro.detect.report import RaceSet
from repro.narada import ArtifactCache, PipelineConfig, PipelineOrchestrator
from repro.narada import cache as cache_module
from repro.narada import serial
from repro.narada.cache import EntryDecodeError, source_digest
from repro.narada.orchestrator import spec_keys, subject_specs
from repro.pairs.generator import RacyPair
from repro.subjects import all_subjects, get_subject
from repro.synth.synthesizer import SynthesizedTest
from tests.narada.test_cache_format import _payload, _put_entry
from tests.narada.test_daemon import _client, _serving

CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)

#: The corpus slice of ``CORPUS_PIN`` (tests/integration/test_pipeline_pins.py).
SLICE = CorpusConfig(seed=0, count=20)


#: What a hot reader of a replay never does: read a synthesis entry,
#: decode a synthesis report, parse an entry's body, or decode a plan,
#: a summary body, an access record (of a summary body or of a pair
#: side) or a race record.
NOTHING_DEFERRED = {
    "synthesis_reads": 0,
    "synthesis_decodes": 0,
    "body_parses": 0,
    "plans": 0,
    "bodies": 0,
    "accesses": 0,
    "races": 0,
}


@pytest.fixture
def deferred_decodes(monkeypatch):
    """Counts of synthesis entry reads and report decodes, of body
    parses and of plan, summary-body, access and race-record decodes
    from now on."""
    counts = dict(NOTHING_DEFERRED)

    def counting(name, real):
        def count(*args):
            counts[name] += 1
            return real(*args)

        return count

    real_get = ArtifactCache.get

    def counting_get(self, stage, key):
        counts["synthesis_reads"] += stage == "synthesis"
        return real_get(self, stage, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    decode = counting("synthesis_decodes", serial.decode_synthesis)
    for module in (serial, orch_mod):
        monkeypatch.setattr(module, "decode_synthesis", decode)

    monkeypatch.setattr(
        serial.Codec, "_decode_plan", counting("plans", serial.Codec._decode_plan)
    )
    for module in (serial, orch_mod):
        monkeypatch.setattr(
            module, "parse_body", counting("body_parses", serial.parse_body)
        )
    monkeypatch.setattr(
        serial,
        "_decode_summary_body",
        counting("bodies", serial._decode_summary_body),
    )
    monkeypatch.setattr(
        serial, "_decode_access", counting("accesses", serial._decode_access)
    )
    monkeypatch.setattr(
        serial, "_decode_race", counting("races", serial._decode_race)
    )
    return counts


def _run(cache, specs, config=CONFIG):
    with PipelineOrchestrator(jobs=1, cache=cache, config=config) as orch:
        return orch.run(specs), orch


def _c8():
    return subject_specs([get_subject("C8")])


def _entries(root, stage):
    return sorted((root / stage).glob("*.json"))


def _entry(root, stage):
    (path,) = _entries(root, stage)
    return path


# ----------------------------------------------------------------------
# (a) The hot readers decode no plan, no summary body and no race record.


def test_warm_corpus_replay_decodes_no_plan_and_no_summary_body(
    tmp_path, deferred_decodes
):
    cache = ArtifactCache(tmp_path)
    subjects = generate_corpus(SLICE)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = run_corpus(SLICE, orch, subjects=subjects)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = run_corpus(SLICE, orch, subjects=subjects)
    assert warm.digests == cold.digests
    assert warm.recall == 1.0
    assert [s.detected for s in warm.scores] == [s.detected for s in cold.scores]
    assert deferred_decodes == NOTHING_DEFERRED
    # The counters do count: reading a replay's plans and race records
    # moves each of them.
    outcomes, _ = _run(cache, corpus_specs(subjects))
    assert all(o.synthesis_cached and o.detection_cached for o in outcomes)
    assert any(o.synthesis.plans for o in outcomes)
    assert any(
        len(fuzz.detected) for o in outcomes for fuzz in o.detection.fuzz_reports
    )
    assert all(deferred_decodes[name] > 0 for name in NOTHING_DEFERRED)


def test_daemon_detect_hit_decodes_no_plan_and_no_summary_body(
    tmp_path, deferred_decodes
):
    request = {"op": "detect", "subjects": ["C8"], "runs": 2}
    with _serving(tmp_path / "d.sock", ArtifactCache(tmp_path / "cache")) as d:
        with _client(d) as client:
            cold = client.request(request)
            deferred_decodes.update(NOTHING_DEFERRED)
            warm = client.request(request)
    entry = warm["subjects"]["C8"]
    assert entry["synthesis_cached"] and entry["detection_cached"]
    assert entry["digest"] == cold["subjects"]["C8"]["digest"]
    assert deferred_decodes == NOTHING_DEFERRED


def test_daemon_detect_hit_counts_races_from_their_keys(
    tmp_path, deferred_decodes
):
    """A ``detect`` hit's ``detected`` and ``reproduced`` counts come
    from the head's race keys: they equal the cold reply's, with no race
    record decoded and no entry body parsed."""
    request = {"op": "detect", "subjects": ["C8"], "runs": 2}
    with _serving(tmp_path / "d.sock", ArtifactCache(tmp_path / "cache")) as d:
        with _client(d) as client:
            cold = client.request(request)["subjects"]["C8"]
            deferred_decodes.update(NOTHING_DEFERRED)
            warm = client.request(request)["subjects"]["C8"]
    assert warm["detection_cached"] and not cold["detection_cached"]
    assert cold["detected"] > 0 and cold["reproduced"] > 0
    counts = ("detected", "reproduced")
    assert [warm[k] for k in counts] == [cold[k] for k in counts]
    assert deferred_decodes == NOTHING_DEFERRED


# ----------------------------------------------------------------------
# (b) A fully read replay is the eager decode, object for object.


#: The types the codec interns, whose instances a decoded graph shares;
#: ``ObjectSlot`` compares by identity, so no two decodes are ``==``.
SHARED = (
    MethodSummary,
    RacyPair,
    SynthesizedTest,
    plan_module.ObjectSlot,
    plan_module.TestPlan,
)


def _assert_same(a, b) -> None:
    """``a == b`` for two decoded graphs, field by field, where every
    shared object of one stands for exactly one object of the other (so
    slots are matched one to one instead of compared by identity and
    slot id)."""
    forward, backward = {}, {}

    def walk(x, y):
        assert type(x) is type(y)
        if isinstance(x, (list, tuple)):
            assert len(x) == len(y)
            for u, v in zip(x, y):
                walk(u, v)
            return
        if not dataclasses.is_dataclass(x):
            assert x == y
            return
        if isinstance(x, SHARED):
            if id(x) in forward or id(y) in backward:
                assert forward.get(id(x)) == id(y)
                assert backward.get(id(y)) == id(x)
                return
            forward[id(x)], backward[id(y)] = id(y), id(x)
        for f in dataclasses.fields(x):
            # A slot's id is a process-wide counter, which no encoding
            # keeps.
            if f.compare and f.name != "slot_id":
                walk(getattr(x, f.name), getattr(y, f.name))

    walk(a, b)


def _replay_matches_eager(root, outcomes, config):
    """Each outcome's cached synthesis replays, fully read, the same as
    its eager decode, and so does its detection bound to the replay."""
    cache = ArtifactCache(root)
    for outcome in outcomes:
        synth_key, detect_key = spec_keys(
            source_digest(outcome.spec.source), outcome.spec.target_class, config
        )
        entry = cache.get("synthesis", synth_key)
        payload = _payload(pathlib.Path(cache._path("synthesis", synth_key)))
        replayed = serial.decode_synthesis(entry, entry.text)
        eager = serial.decode_synthesis(payload)
        assert "_deferred" in replayed.__dict__
        detection = cache.get("detection", detect_key)
        detection_payload = _payload(
            pathlib.Path(cache._path("detection", detect_key))
        )
        replayed_detection = serial.decode_detection(
            detection, replayed.tests, detection.text
        )
        eager_detection = serial.decode_detection(detection_payload, eager.tests)
        assert "_deferred" in replayed.__dict__
        assert replayed.pairs == eager.pairs  # reads every summary body
        assert "_deferred" not in replayed.__dict__
        race_sets = [fuzz.detected for fuzz in replayed_detection.fuzz_reports]
        assert all("_deferred" in races.__dict__ for races in race_sets)
        if race_sets:
            # Reading one race set's records settles every one of them.
            assert isinstance(race_sets[0].races, list)
        assert all(type(races) is RaceSet for races in race_sets)
        _assert_same(
            (replayed, replayed_detection), (eager, eager_detection)
        )
        for data, report, encode in (
            (payload, replayed, serial.encode_synthesis),
            (detection_payload, replayed_detection, serial.encode_detection),
        ):
            stored = {k: v for k, v in data.items() if k != "digest"}
            if "seconds" in stored:  # a synthesis head's fixed-width time
                stored["seconds"] = float(stored["seconds"])
            assert serial.canonical_json(encode(report)) == (
                serial.canonical_json(stored)
            )
            assert data["digest"] == serial.report_digest(stored)


def test_fully_read_paper_replays_equal_the_eager_decode(tmp_path):
    config = PipelineConfig(random_runs=1)
    outcomes, _ = _run(ArtifactCache(tmp_path), subject_specs(), config)
    assert len(outcomes) == len(all_subjects())
    _replay_matches_eager(tmp_path, outcomes, config)


def test_fully_read_corpus_replays_equal_the_eager_decode(tmp_path):
    specs = corpus_specs(generate_corpus(SLICE))
    outcomes, _ = _run(ArtifactCache(tmp_path), specs)
    assert len(outcomes) == SLICE.count
    _replay_matches_eager(tmp_path, outcomes, CONFIG)


def _is_cut(head, data) -> bool:
    """Whether ``head`` keeps only values ``data`` holds at the same
    place: a dict some of its keys, a list every item (each cut)."""
    if type(head) is dict:
        return type(data) is dict and all(
            key in data and _is_cut(value, data[key])
            for key, value in head.items()
        )
    if type(head) is list and type(data) is list and len(head) == len(data):
        return all(_is_cut(h, d) for h, d in zip(head, data))
    return head == data


def test_a_synthesis_head_is_a_cut_of_the_encoded_report():
    specs = subject_specs() + corpus_specs(generate_corpus(SLICE))
    with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
        outcomes = orch.run(specs, detect=False)
    assert len(outcomes) == len(all_subjects()) + SLICE.count
    for outcome in outcomes:
        data = serial.encode_synthesis(outcome.synthesis)
        head = serial.synthesis_head(data)
        # The wall-clock time is written at a fixed width, so that the
        # entry's size is a function of its report.
        assert head.pop("seconds") == f"{data['seconds']:.6e}"
        assert _is_cut(head, data)
        assert "plans" not in head and "plans" not in head["tables"]


def test_replay_keeps_shared_objects_shared(tmp_path):
    cache = ArtifactCache(tmp_path)
    _run(cache, _c8())
    (warm,), _ = _run(cache, _c8())
    report = warm.synthesis
    assert "_deferred" in report.__dict__
    tests = report.tests
    plans = report.plans
    assert all("_deferred" not in test.__dict__ for test in tests)
    # Each test's plan is one of the report's plans, and each plan's
    # pair is one of its pairs, whose summaries its racy calls make.
    plan_ids = {id(plan) for plan in plans}
    assert all(id(test.plan) in plan_ids for test in tests)
    pair_ids = {id(pair) for pair in report.pairs}
    for plan in plans:
        assert id(plan.pair) in pair_ids
        assert plan.left.racy_call.summary is plan.left.side.summary
        assert {id(plan.left.side.summary), id(plan.right.side.summary)} == {
            id(plan.pair.first.summary),
            id(plan.pair.second.summary),
        }


def test_a_test_kept_without_its_report_still_reads_its_plan(
    tmp_path, monkeypatch
):
    """A plan may reach a pair or summary whose object the reader has
    dropped; the load decodes that row again from the body, which holds
    it whole, and never parses the head a second time."""
    cache = ArtifactCache(tmp_path)
    _run(cache, _c8())
    path = _entry(tmp_path, "synthesis")
    expected = serial.decode_synthesis(_payload(path))
    starts = []

    class CountingDecoder(json.JSONDecoder):
        def raw_decode(self, s, idx=0):
            starts.append(idx)
            return super().raw_decode(s, idx)

    for module in (serial, cache_module):
        monkeypatch.setattr(module, "_DECODER", CountingDecoder())
    entry = cache.get("synthesis", path.stem)
    report = serial.decode_synthesis(entry, entry.text)
    kept = len(report.tests) - 1
    test = report.tests[kept]
    del report, entry
    gc.collect()
    _, decoded, _ = test.__dict__["_deferred"].refs
    assert any(ref() is None for memo in decoded.values() for ref in memo.values())
    plans = [test.plan]
    # One head parse (at ``get``), then one body parse (at the load).
    assert len(starts) == 2 and starts[0] == 0 and starts[1] > 0
    _assert_same(
        (test.name, test.covered_pairs, plans),
        (
            expected.tests[kept].name,
            expected.tests[kept].covered_pairs,
            [expected.tests[kept].plan],
        ),
    )


# ----------------------------------------------------------------------
# (c) The deferred part is one string; no parsed table stays reachable.


def _reachable(root):
    """Every object reachable from ``root`` through instances and
    containers (not through classes, modules or function globals)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            continue
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
            continue
        stack.extend(gc.get_referents(obj))
    return seen


def _containers(value, into):
    if isinstance(value, (dict, list)):
        into.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, into)
    return into


def test_replay_holds_its_deferred_part_as_one_string(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    _run(cache, _c8())
    served = []
    real_get = ArtifactCache.get

    def keeping_get(self, stage, key):
        entry = real_get(self, stage, key)
        served.append(entry)
        return entry

    monkeypatch.setattr(ArtifactCache, "get", keeping_get)
    (warm,), _ = _run(cache, _c8())
    assert warm.synthesis_cached and warm.detection_cached
    assert [e.get("kind") for e in served] == ["detection"]
    warm.synthesis.tests  # the first use reads the synthesis entry
    (synthesis,) = [e for e in served if e.get("kind") == "synthesis"]
    (detection,) = [e for e in served if e.get("kind") == "detection"]
    deferred = warm.synthesis.__dict__["_deferred"]
    assert deferred.text is synthesis.text
    for fuzz in warm.detection.fuzz_reports:
        assert fuzz.detected.__dict__["_deferred"].text is detection.text
    # `served` keeps every parsed entry alive, so no id below is reused.
    parsed = {id(entry) for entry in served}
    tables = _containers(synthesis["tables"], set())
    tables |= _containers(detection["fuzz_reports"], set())
    reachable = _reachable(warm)
    assert not parsed & set(reachable)
    assert not tables & set(reachable)
    texts = {id(entry.text) for entry in served} & set(reachable)
    assert texts == {id(synthesis.text), id(detection.text)}


# ----------------------------------------------------------------------
# (d) A deferred decode that fails is quarantined and recomputed.


def _name_synthesis(root):
    """Make the detection entry under ``root`` record the synthesis
    entry there now, as though its tests were fuzzed from that entry."""
    synthesis, detection = _entry(root, "synthesis"), _entry(root, "detection")
    head, body = detection.read_bytes().split(b"\n")
    head = json.loads(head)
    head["synthesis"].update(
        digest=_payload(synthesis)["digest"], bytes=synthesis.stat().st_size
    )
    detection.write_bytes(serial.canonical_json(head).encode() + b"\n" + body)


def _corrupt_one_plan(root):
    path = _entry(root, "synthesis")
    entry = _payload(path)
    entry["tables"]["plans"][0]["left"]["racy_call"]["summary"] = 10**9
    _put_entry(path, entry)
    _name_synthesis(root)


@pytest.fixture
def corrupted(tmp_path):
    """A cache filled by a clean C8 run whose synthesis entry then had
    one plan corrupted; ``(root, clean outcome)``."""
    (clean,), _ = _run(ArtifactCache(tmp_path), _c8())
    _corrupt_one_plan(tmp_path)
    return tmp_path, clean


def _scored(outcome) -> tuple:
    """What scoring reads of an outcome: pair identities, verdicts, test
    names and the races of each fuzz report."""
    synthesis, detection = outcome.synthesis, outcome.detection
    return (
        [
            (pair.field, pair.first.method_id(), pair.second.method_id())
            for pair in synthesis.pairs
        ],
        [verdict.pruned for verdict in synthesis.verdicts],
        [test.name for test in synthesis.tests],
        [
            (fuzz.test.name, sorted(fuzz.detected.static_keys()), fuzz.deadlocks)
            for fuzz in detection.fuzz_reports
        ],
    )


def test_scoring_replays_an_entry_with_a_corrupt_plan(corrupted):
    root, clean = corrupted
    cache = ArtifactCache(root)
    (warm,), orch = _run(cache, _c8())
    assert warm.synthesis_cached and warm.detection_cached
    # The synthesis digest served is the one its entry stores, the hash
    # of the corrupt body, which no reader had to decode.
    stored = _payload(_entry(root, "synthesis"))["digest"]
    assert warm.digest() == f"{stored}/{clean.digest().split('/')[1]}"
    assert _scored(warm) == _scored(clean)
    assert cache.stats.quarantined == orch.fault_ledger.quarantined == 0


def test_a_corrupt_plan_read_after_the_run_is_quarantined(corrupted):
    root, clean = corrupted
    cache = ArtifactCache(root)
    (warm,), _ = _run(cache, _c8())
    with pytest.raises(EntryDecodeError) as raised:
        getattr(warm.synthesis, "plans")
    error = raised.value
    assert error.stage == "synthesis"
    assert error.key == _entry(root / "quarantine", "synthesis").stem
    assert isinstance(error.cause, IndexError)
    assert "synthesis" in str(error) and error.key in str(error)
    assert cache.stats.quarantined == 1
    assert not list((root / "synthesis").glob("*.json"))
    (reason,) = (root / "quarantine" / "synthesis").glob("*.reason.txt")
    assert "decode failure" in reason.read_text()
    # Every later read of the report's deferred part raises the same.
    with pytest.raises(EntryDecodeError):
        getattr(warm.synthesis.tests[0], "plan")
    # The next run recomputes the entry, and with it the detection.
    (again,), _ = _run(ArtifactCache(root), _c8())
    assert not again.synthesis_cached and not again.detection_cached
    assert again.digest() == clean.digest()
    assert len(again.synthesis.plans) == len(clean.synthesis.plans)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_detection_miss_recomputes_a_corrupt_plan(corrupted, jobs):
    root, clean = corrupted
    _entry(root, "detection").unlink()
    cache = ArtifactCache(root)
    with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
        (outcome,) = orch.run(_c8())
        assert orch.fault_ledger.failures == []
        assert orch.fault_ledger.quarantined == 1
    assert not outcome.synthesis_cached and not outcome.detection_cached
    assert outcome.digest() == clean.digest()
    assert (root / "quarantine" / "synthesis").exists()
    (replayed,), _ = _run(ArtifactCache(root), _c8())
    assert replayed.synthesis_cached and replayed.detection_cached
    eager = serial.decode_synthesis(serial.encode_synthesis(clean.synthesis))
    _assert_same(replayed.synthesis.plans, eager.plans)


def test_race_records_that_disagree_with_the_head_are_quarantined(tmp_path):
    """A detection body whose race records are not the ones its head
    keys: scoring, which reads the keys, still replays the entry, but
    the first read of the records raises and quarantines it, and the
    next run fuzzes again."""
    (clean,), _ = _run(ArtifactCache(tmp_path), _c8())
    path = _entry(tmp_path, "detection")
    original = _payload(path)
    payload = copy.deepcopy(original)
    record = next(
        race
        for fuzz in payload["fuzz_reports"]
        for race in fuzz["detected"]["races"]
    )
    record["first"]["node_id"] = 10**9
    _put_entry(path, payload, head_from=original)
    cache = ArtifactCache(tmp_path)
    (warm,), orch = _run(cache, _c8())
    assert warm.synthesis_cached and warm.detection_cached
    assert _scored(warm) == _scored(clean)
    assert warm.detection.detected == clean.detection.detected
    assert cache.stats.quarantined == orch.fault_ledger.quarantined == 0
    with pytest.raises(EntryDecodeError) as raised:
        [len(fuzz.detected) for fuzz in warm.detection.fuzz_reports]
    error = raised.value
    assert error.stage == "detection" and error.key == path.stem
    assert isinstance(error.cause, ValueError)
    assert cache.stats.quarantined == 1
    assert not path.exists()
    (reason,) = (tmp_path / "quarantine" / "detection").glob("*.reason.txt")
    assert "decode failure" in reason.read_text()
    (again,), _ = _run(ArtifactCache(tmp_path), _c8())
    assert again.synthesis_cached and not again.detection_cached
    assert again.digest() == clean.digest()


# ----------------------------------------------------------------------
# (e) A detection hit reads no synthesis entry until one is used.


def _counting_gets(monkeypatch) -> list[str]:
    """The stage of every ``ArtifactCache.get`` from now on."""
    stages = []
    real_get = ArtifactCache.get

    def counting_get(self, stage, key):
        stages.append(stage)
        return real_get(self, stage, key)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    return stages


def test_a_warm_corpus_replay_reads_one_entry_a_subject(
    tmp_path, monkeypatch, deferred_decodes
):
    cache = ArtifactCache(tmp_path)
    subjects = generate_corpus(SLICE)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = run_corpus(SLICE, orch, subjects=subjects)
    deferred_decodes.update(NOTHING_DEFERRED)
    stages = _counting_gets(monkeypatch)
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = run_corpus(SLICE, orch, subjects=subjects)
    assert stages == ["detection"] * SLICE.count
    assert deferred_decodes == NOTHING_DEFERRED
    assert warm.scores == cold.scores
    assert warm.digests == cold.digests
    assert warm.recall == 1.0


def test_a_daemon_detect_hit_reads_one_entry(tmp_path, monkeypatch):
    request = {"op": "detect", "subjects": ["C8"], "runs": 2}
    with _serving(tmp_path / "d.sock", ArtifactCache(tmp_path / "cache")) as d:
        with _client(d) as client:
            cold = client.request(request)["subjects"]["C8"]
            stages = _counting_gets(monkeypatch)
            warm = client.request(request)["subjects"]["C8"]
    assert stages == ["detection"]
    assert warm["synthesis_cached"] and warm["detection_cached"]
    counts = ("tests", "pairs", "digest")
    assert [warm[k] for k in counts] == [cold[k] for k in counts]
    assert cold["tests"] > 0 and cold["pairs"] > 0


def _eager(cache, spec, config):
    """The eager decode of ``spec``'s cached synthesis and detection."""
    synth_key, detect_key = spec_keys(
        source_digest(spec.source), spec.target_class, config
    )
    synthesis = serial.decode_synthesis(
        _payload(pathlib.Path(cache._path("synthesis", synth_key)))
    )
    detection = serial.decode_detection(
        _payload(pathlib.Path(cache._path("detection", detect_key))),
        synthesis.tests,
    )
    return synthesis, detection


def _read_fully(outcome) -> None:
    """Read every deferred part of a replayed outcome: the synthesis
    report's plans, which settle it and its tests, and each race set."""
    outcome.synthesis.plans
    for fuzz in outcome.detection.fuzz_reports:
        len(fuzz.detected)


@pytest.mark.parametrize("first_read", ["report", "a test's plan"])
def test_a_replayed_synthesis_read_on_first_use_is_the_eager_decode(
    tmp_path, first_read
):
    """Over C1..C9 and the pinned slice, a detection hit's synthesis,
    read on first use (the report, or a fuzz report's test's plan),
    equals the eager decode of its entry object for object, and each
    fuzz report's test is the report's test of that name."""
    config = PipelineConfig(random_runs=1)
    specs = subject_specs() + corpus_specs(generate_corpus(SLICE))
    _run(ArtifactCache(tmp_path), specs, config)
    cache = ArtifactCache(tmp_path)
    outcomes, _ = _run(cache, specs, config)
    assert all(o.synthesis_cached and o.detection_cached for o in outcomes)
    for outcome in outcomes:
        fuzz_reports = outcome.detection.fuzz_reports
        assert not any(type(fuzz.test) is SynthesizedTest for fuzz in fuzz_reports)
        if first_read == "a test's plan" and fuzz_reports:
            assert fuzz_reports[0].test.plan is not None
        _read_fully(outcome)
        by_name = {test.name: test for test in outcome.synthesis.tests}
        assert all(by_name[fuzz.test.name] is fuzz.test for fuzz in fuzz_reports)
        assert all(type(test) is SynthesizedTest for test in by_name.values())
        _assert_same(
            (outcome.synthesis, outcome.detection),
            _eager(cache, outcome.spec, config),
        )
    assert cache.stats.quarantined == 0


@pytest.mark.parametrize("damage", ["deleted", "one body byte flipped"])
def test_a_synthesis_entry_damaged_after_the_run_fails_on_first_read(
    tmp_path, damage
):
    """A detection hit checks only its synthesis entry's size, so an
    entry deleted, or damaged in place, after the run is found when the
    synthesis is first read: that read raises, a damaged entry is
    quarantined, and the next run rewrites both entries as they were."""
    (clean,), _ = _run(ArtifactCache(tmp_path), _c8())
    synthesis = _entry(tmp_path, "synthesis")
    detection = _entry(tmp_path, "detection")
    written = {path: path.read_bytes() for path in (synthesis, detection)}
    cache = ArtifactCache(tmp_path)
    (warm,), _ = _run(cache, _c8())
    assert warm.synthesis_cached and warm.detection_cached
    if damage == "deleted":
        synthesis.unlink()
    else:
        text = written[synthesis]
        at = len(text) - 2
        flipped = text[:at] + bytes([text[at] ^ 1]) + text[at + 1 :]
        synthesis.write_bytes(flipped)
    with pytest.raises(EntryDecodeError) as raised:
        warm.detection.fuzz_reports[0].test.plan
    assert raised.value.stage == "synthesis"
    assert raised.value.key == synthesis.stem
    with pytest.raises(EntryDecodeError):
        warm.synthesis.tests
    quarantined = damage != "deleted"
    assert cache.stats.quarantined == quarantined
    assert (tmp_path / "quarantine" / "synthesis").exists() == quarantined
    assert not synthesis.exists()
    (again,), _ = _run(ArtifactCache(tmp_path), _c8())
    assert not again.synthesis_cached and not again.detection_cached
    assert again.digest() == clean.digest()
    assert detection.read_bytes() == written[detection]
    # The synthesis entry differs only in its wall-clock time.
    head, body = synthesis.read_bytes().split(b"\n")
    old_head, old_body = written[synthesis].split(b"\n")
    assert body == old_body and len(head) == len(old_head)
    assert {**json.loads(head), "seconds": 0} == {
        **json.loads(old_head),
        "seconds": 0,
    }


def test_a_truncated_synthesis_entry_is_a_quarantined_miss_in_the_run(
    tmp_path, monkeypatch
):
    """A synthesis entry shorter than its detection entry records is
    quarantined unread, and the subject is recomputed in the same run."""
    (clean,), _ = _run(ArtifactCache(tmp_path), _c8())
    path = _entry(tmp_path, "synthesis")
    text = path.read_bytes()
    path.write_bytes(text[: len(text) // 2])
    cache = ArtifactCache(tmp_path)
    stages = _counting_gets(monkeypatch)
    (outcome,), orch = _run(cache, _c8())
    assert stages == ["detection"]
    assert not outcome.synthesis_cached and not outcome.detection_cached
    assert outcome.digest() == clean.digest()
    assert cache.stats.quarantined == orch.fault_ledger.quarantined == 1
    (reason,) = (tmp_path / "quarantine" / "synthesis").glob("*.reason.txt")
    assert "its detection entry records" in reason.read_text()
    assert path.read_bytes() != text[: len(text) // 2]
    (warm,), _ = _run(ArtifactCache(tmp_path), _c8())
    assert warm.synthesis_cached and warm.detection_cached
