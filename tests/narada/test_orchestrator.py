"""Orchestrator, artifact cache, and determinism-contract tests."""

import json
import pathlib

import pytest

from repro.lang import load
from repro.lang.pretty import pretty_program
from repro.narada import (
    ArtifactCache,
    Narada,
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
    table_digest,
)
from repro.narada.cache import source_digest
from repro.narada.orchestrator import SubjectSpec, spec_keys
from repro.narada.pipeline import DetectionReport
from repro.subjects import all_subjects, get_subject
from tests.narada.test_cache_format import put_parts

#: Small, fast subjects — enough to cross the pool boundary for real.
#: C2 is included deliberately: its directed phase once diverged between
#: a freshly-synthesized test and its serialized round trip (set
#: iteration order leaking into attempt order).
FAST = ["C2", "C7", "C8"]

CONFIG = PipelineConfig(random_runs=2)


def _specs():
    return subject_specs([get_subject(k) for k in FAST])


def _digests(outcomes):
    return {o.spec.name: o.digest() for o in outcomes}


class TestDeterminism:
    """Reports must be byte-identical for jobs=1 / jobs=2 / warm cache."""

    def test_serial_parallel_and_warm_agree(self, tmp_path):
        specs = _specs()
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            serial = _digests(orch.run(specs))

        cache = ArtifactCache(tmp_path / "cache")
        with PipelineOrchestrator(jobs=2, cache=cache, config=CONFIG) as orch:
            parallel = _digests(orch.run(specs))
        assert parallel == serial

        with PipelineOrchestrator(jobs=2, cache=cache, config=CONFIG) as orch:
            warm_outcomes = orch.run(specs)
        assert _digests(warm_outcomes) == serial
        assert all(o.synthesis_cached for o in warm_outcomes)
        assert all(o.detection_cached for o in warm_outcomes)

    def test_jobs_one_never_creates_a_pool(self):
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            orch.run(_specs()[:1])
            assert orch._pool is None

    def test_report_dicts_roundtrip_stably(self):
        from repro.narada.serial import (
            decode_detection,
            decode_synthesis,
            encode_detection,
            encode_synthesis,
        )

        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            outcome = orch.run(_specs()[:1])[0]
        synth = encode_synthesis(outcome.synthesis)
        synthesis = decode_synthesis(synth)
        assert encode_synthesis(synthesis) == synth
        det = encode_detection(outcome.detection)
        assert encode_detection(decode_detection(det, synthesis.tests)) == det

    def test_pretty_roundtrip_is_node_id_stable(self):
        # A property of the pretty-printer, which the corpus generator's
        # canonical sources rest on: reparsing its text reproduces every
        # static site id.  No cache key is derived from it; keys hash
        # the source text itself.
        for subject in all_subjects():
            table = load(subject.source)
            text = pretty_program(table.program)
            assert pretty_program(load(text).program) == text
            assert table_digest(load(text)) == table_digest(table)


class TestDuplicateSpecs:
    """A subject named twice in one run shares its units, and every
    spec naming it gets the completed result."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_both_outcomes_complete_and_equal(self, jobs):
        spec = subject_specs([get_subject("C1")])[0]
        config = PipelineConfig(random_runs=1)
        with PipelineOrchestrator(jobs=jobs, config=config) as orch:
            first, second = orch.run([spec, spec])
            assert not orch.fault_ledger.failures
        assert first.synthesis is not None and first.detection is not None
        assert first == second
        assert first.digest() == second.digest() != "failed"

    def test_cached_duplicate_replays_for_both(self, tmp_path):
        spec = _specs()[0]
        cache = ArtifactCache(tmp_path / "cache")
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            cold = orch.run([spec, spec])
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            warm = orch.run([spec, spec])
        assert _digests(cold) == _digests(warm)
        assert {o.digest() for o in cold + warm} != {"failed"}
        assert len({o.digest() for o in cold + warm}) == 1
        assert all(o.detection_cached for o in warm)


class TestStageInvalidation:
    def test_detection_config_does_not_invalidate_synthesis(self, tmp_path):
        spec = _specs()[0]
        cache = ArtifactCache(tmp_path / "cache")
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            orch.run([spec])
        more_runs = PipelineConfig(random_runs=3)
        with PipelineOrchestrator(
            jobs=1, cache=cache, config=more_runs
        ) as orch:
            outcome = orch.run([spec])[0]
        # Synthesis replays from cache; detection recomputes.
        assert outcome.synthesis_cached
        assert not outcome.detection_cached

    def test_source_change_invalidates_everything(self, tmp_path):
        spec = _specs()[0]
        changed = spec.source.replace("0", "1", 1)
        assert changed != spec.source
        old, new = (
            set(spec_keys(source_digest(text), spec.target_class, CONFIG))
            for text in (spec.source, changed)
        )
        assert not old & new

    def test_comment_only_edit_misses_and_reaches_the_same_digests(
        self, tmp_path
    ):
        # Keys hash the source text, so an edit no parse can see is a
        # miss; the recomputed reports are byte-identical.
        spec = _specs()[0]
        edited = SubjectSpec(
            name=spec.name,
            source="/* provenance: edited */\n" + spec.source,
            target_class=spec.target_class,
        )
        assert pretty_program(load(edited.source).program) == pretty_program(
            load(spec.source).program
        )
        cache = ArtifactCache(tmp_path / "cache")
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            (cold,) = orch.run([spec])
            (again,) = orch.run([edited])
        assert not again.synthesis_cached and not again.detection_cached
        assert again.digest() == cold.digest()
        assert cache.stats.writes == 4


class TestArtifactCache:
    def test_put_then_get(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        put_parts(cache, "synthesis", "ab" * 32, {"x": 1}, b'{"y":2}')
        entry = cache.get("synthesis", "ab" * 32)
        assert entry["x"] == 1 and entry.text.endswith('\n{"y":2}')
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("synthesis", "cd" * 32) is None
        assert cache.stats.misses == 1

    def test_truncated_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ef" * 32
        put_parts(cache, "detection", key, {"kind": "detection", "n": 2})
        path = pathlib.Path(cache._path("detection", key))
        path.write_text(path.read_text()[:7])  # simulate a torn write
        assert cache.get("detection", key) is None
        assert cache.stats.evictions == 1
        assert not path.exists()  # evicted
        # And the pipeline recomputes cleanly through the same cache.
        spec = _specs()[0]
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
        assert outcome.synthesis.test_count > 0

    def test_non_object_entry_is_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "0a" * 32
        path = pathlib.Path(cache._path("analysis", key))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps([1, 2, 3]))
        assert cache.get("analysis", key) is None
        assert not path.exists()

    def test_writes_leave_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(4):
            put_parts(cache, "synthesis", f"{i:02d}" * 32, {"i": i})
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []

    def test_corrupt_entry_during_pipeline_run(self, tmp_path):
        """A cached stage artifact that rots on disk must recompute to
        the same result, not crash."""
        spec = _specs()[0]
        cache = ArtifactCache(tmp_path / "cache")
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            first = orch.run([spec])[0].digest()
        key, _ = spec_keys(source_digest(spec.source), spec.target_class, CONFIG)
        path = pathlib.Path(cache._path("synthesis", key))
        assert path.exists()
        path.write_text("{" + path.read_text()[1:40])
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            again = orch.run([spec])[0]
        assert again.digest() == first
        assert not again.synthesis_cached
        # The detection entry was untouched, but a lost synthesis runs
        # the whole unit again.
        assert not again.detection_cached


class TestUnionRecordsMemo:
    """DetectionReport memoizes its union; `add` is the invalidation point."""

    def _fuzz(self, narada, report, index):
        from repro.fuzz import RaceFuzzer

        fuzzer = RaceFuzzer(narada.table, random_runs=2)
        return fuzzer.fuzz(report.tests[index])

    def test_property_stable_after_add(self):
        subject = get_subject("C7")
        narada = Narada(subject.source)
        synthesis = narada.synthesize_for_class(subject.class_name)
        assert len(synthesis.tests) >= 2
        detection = DetectionReport(class_name=subject.class_name)
        detection.add(self._fuzz(narada, synthesis, 0))
        before = detection.detected
        # Memo is populated; repeated access returns the same object.
        assert detection._union_records() is detection._union_records()
        detection.add(self._fuzz(narada, synthesis, 1))
        after = detection.detected
        assert after >= before
        # Mutating through add() invalidated the memo: the fresh union
        # covers both fuzz reports.
        merged = detection._union_records()
        keys = {r.static_key() for rep in detection.fuzz_reports
                for r in rep.detected}
        assert set(merged) == keys

    def test_explicit_invalidate(self):
        subject = get_subject("C8")
        narada = Narada(subject.source)
        synthesis = narada.synthesize_for_class(subject.class_name)
        detection = DetectionReport(class_name=subject.class_name)
        detection.add(self._fuzz(narada, synthesis, 0))
        memo = detection._union_records()
        # Out-of-band mutation (not via add) requires invalidate().
        detection.fuzz_reports.append(self._fuzz(narada, synthesis, 1))
        assert detection._union_records() is memo  # stale by contract
        detection.invalidate()
        assert detection._union_records() is not memo


class TestScheduleSeed:
    def test_seed_depends_on_test_and_run_only(self):
        from repro.fuzz.racefuzzer import schedule_seed

        assert schedule_seed("t1", 0) == schedule_seed("t1", 0)
        assert schedule_seed("t1", 0) != schedule_seed("t1", 1)
        assert schedule_seed("t1", 0) != schedule_seed("t2", 0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
