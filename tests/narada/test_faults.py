"""Fault-tolerance layer tests: injection, isolation, watchdog, retry,
cache quarantine, and checkpointed resume.

The bit-identity contract under test throughout: a run that survived
crashes, hangs, or retries produces byte-identical reports to a clean
run (work units are pure functions of content, so a retry recomputes
the same thing).
"""

import json
import os
import time

import pytest

from repro.lang import load
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
)
from repro.narada import orchestrator as orch_mod
from repro.narada.cache import stage_key, table_digest
from repro.narada.faults import (
    FaultInjector,
    FaultLedger,
    FaultPlan,
    InjectedCrash,
    RunLedger,
    UnitFailure,
    UnitTimeout,
    _draw,
    watchdog,
)
from repro.narada.serial import decode_fault_ledger, encode_fault_ledger
from repro.subjects import get_subject

SUBJECT = "C8"

#: Zero backoff keeps the retry-heavy tests fast; two runs is enough
#: fuzzing to produce non-trivial detection reports on C8.
CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)


def _spec():
    return subject_specs([get_subject(SUBJECT)])[0]


def _config(**overrides):
    base = CONFIG.to_dict()
    base.update(overrides)
    return PipelineConfig.from_dict(base)


@pytest.fixture(scope="module")
def clean_digest():
    """Digest of a clean, fault-free, cache-free inline run."""
    with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
        outcome = orch.run([_spec()])[0]
    assert orch.fault_ledger.ok()
    return outcome.digest()


# Deterministic fault wrappers.  Module-level so the pool can pickle
# them by reference (workers are forked after monkeypatching, so the
# patched module state is visible on both sides of the pipe).

_REAL_SYNTH_WORKER = orch_mod._synthesize_worker


def _crash_first_attempt_synth(
    source, digest, target_class, config, cache_root, unit_key="", attempt=0
):
    if attempt == 0:
        os._exit(13)  # a real worker death, not an exception
    return _REAL_SYNTH_WORKER(
        source, digest, target_class, config, cache_root, unit_key, attempt
    )


def _hang_first_attempt_synth(
    source, digest, target_class, config, cache_root, unit_key="", attempt=0
):
    if attempt == 0:
        time.sleep(60)
    return _REAL_SYNTH_WORKER(
        source, digest, target_class, config, cache_root, unit_key, attempt
    )


class TestFaultPlan:
    def test_parse_and_roundtrip(self):
        plan = FaultPlan.parse("crash:0.3, hang:0.1")
        assert plan == FaultPlan(crash=0.3, hang=0.1)
        assert FaultPlan.parse(plan.to_spec()) == plan
        assert plan.active()
        assert not FaultPlan().active()

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("crash:0.3,explode:1.0")

    def test_bad_rate_is_an_error(self):
        with pytest.raises(ValueError, match="bad fault-inject entry"):
            FaultPlan.parse("crash:lots")

    def test_draws_are_deterministic_and_keyed(self):
        assert _draw("crash", "k1", 0) == _draw("crash", "k1", 0)
        assert _draw("crash", "k1", 0) != _draw("crash", "k1", 1)
        assert _draw("crash", "k1", 0) != _draw("hang", "k1", 0)
        assert _draw("crash", "k1", 0) != _draw("crash", "k2", 0)
        assert 0.0 <= _draw("crash", "k1", 0) < 1.0


class TestFaultInjector:
    def test_no_spec_no_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("crash:0.0") is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:0.2")
        injector = FaultInjector.from_spec(None, unit_timeout=2.0)
        assert injector is not None
        assert injector.plan.hang == 0.2
        # The injected hang must outlive the watchdog deadline.
        assert injector.hang_seconds == pytest.approx(6.0)

    def test_inline_crash_raises(self):
        injector = FaultInjector.from_spec("crash:1.0")
        with pytest.raises(InjectedCrash):
            injector.before_unit("some-unit", 0, in_worker=False)

    def test_corrupt_draw(self):
        injector = FaultInjector.from_spec("corrupt:1.0")
        assert injector.corrupt_write("any-key")
        assert not FaultInjector.from_spec("crash:1.0").corrupt_write("k")


class TestCacheQuarantine:
    def test_garbage_bytes_are_quarantined_with_reason(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "ab" * 32
        cache.put("synthesis", key, {"kind": "synthesis", "x": 1})
        cache._path("synthesis", key).write_bytes(b"\x00\xffnot json{{{")
        assert cache.get("synthesis", key) is None
        assert cache.stats.quarantined == 1
        moved = tmp_path / "quarantine" / "synthesis" / f"{key}.json"
        reason = tmp_path / "quarantine" / "synthesis" / f"{key}.reason.txt"
        assert moved.exists()
        assert "unreadable entry" in reason.read_text()
        assert not cache._path("synthesis", key).exists()
        # And the next get is a plain miss, not a repeat quarantine.
        assert cache.get("synthesis", key) is None
        assert cache.stats.quarantined == 1

    def test_schema_stale_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "cd" * 32
        cache.put("detection", key, {"kind": "detection", "version": 999})
        assert cache.get("detection", key) is None
        reason = tmp_path / "quarantine" / "detection" / f"{key}.reason.txt"
        assert "schema-stale" in reason.read_text()

    def test_undecodable_entry_recomputes_to_clean_result(
        self, tmp_path, clean_digest
    ):
        """A structurally-valid JSON object that fails to *decode* is
        quarantined by the orchestrator and recomputed."""
        spec = _spec()
        cache = ArtifactCache(tmp_path / "cache")
        key = stage_key(
            table_digest(load(spec.source)),
            "synthesis",
            CONFIG.synthesis_config(spec.target_class),
        )
        cache.put("synthesis", key, {"kind": "synthesis", "bogus": True})
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
        assert outcome.digest() == clean_digest
        assert not outcome.synthesis_cached
        assert orch.fault_ledger.quarantined >= 1
        assert cache.stats.quarantined >= 1

    def test_injected_torn_writes_quarantine_then_recompute(
        self, tmp_path, clean_digest
    ):
        """corrupt:1.0 tears every published entry; the next run must
        quarantine them all and still converge to the clean digest."""
        spec = _spec()
        root = tmp_path / "cache"
        torn = _config(fault_inject="corrupt:1.0")
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(root), config=torn
        ) as orch:
            assert orch.run([spec])[0].digest() == clean_digest
        cache = ArtifactCache(root)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
        assert outcome.digest() == clean_digest
        assert cache.stats.quarantined > 0
        reasons = list((root / "quarantine").rglob("*.reason.txt"))
        assert reasons


class TestCrashIsolation:
    def test_worker_crash_mid_synthesis_phase_is_retried(
        self, monkeypatch, clean_digest
    ):
        """A worker that dies mid-unit is blamed on exactly that unit;
        the pool respawns and the retry converges bit-identically."""
        monkeypatch.setattr(
            orch_mod, "_synthesize_worker", _crash_first_attempt_synth
        )
        with PipelineOrchestrator(jobs=2, config=CONFIG) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.pool_respawns >= 1
        assert ledger.retries >= 1
        assert outcome.digest() == clean_digest

    def test_probabilistic_crash_injection_converges(self, clean_digest):
        """The real --fault-inject path: injected worker deaths across
        both phases, generous retries, bit-identical results."""
        config = _config(fault_inject="crash:0.5", max_retries=12)
        with PipelineOrchestrator(jobs=2, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok(), [f.error for f in ledger.failures]
        assert ledger.retries > 0
        assert ledger.pool_respawns > 0
        assert outcome.digest() == clean_digest

    def test_inline_injected_crashes_converge(self, clean_digest):
        config = _config(fault_inject="crash:0.5", max_retries=12)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert orch._pool is None  # inline mode really stayed inline
        assert ledger.ok()
        assert ledger.retries > 0
        assert ledger.pool_respawns == 0
        assert outcome.digest() == clean_digest


class TestWatchdog:
    def test_inline_watchdog_raises_unit_timeout(self):
        with pytest.raises(UnitTimeout):
            with watchdog(0.2):
                time.sleep(5)

    def test_inline_watchdog_noop_without_deadline(self):
        with watchdog(None):
            pass

    def test_pooled_hung_unit_is_killed_and_retried(
        self, monkeypatch, clean_digest
    ):
        monkeypatch.setattr(
            orch_mod, "_synthesize_worker", _hang_first_attempt_synth
        )
        config = _config(unit_timeout=2.0)
        with PipelineOrchestrator(jobs=2, config=config) as orch:
            outcome = orch.run([_spec()], detect=False)[0]
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.timeouts >= 1
        assert ledger.pool_respawns >= 1
        assert outcome.digest() == clean_digest.split("/")[0]

    def test_inline_hung_unit_hits_sigalrm_watchdog(
        self, monkeypatch, clean_digest
    ):
        calls = {"n": 0}
        real = orch_mod._fuzz_unit

        def hang_once(table, test, config, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(60)
            return real(table, test, config, **kwargs)

        monkeypatch.setattr(orch_mod, "_fuzz_unit", hang_once)
        config = _config(unit_timeout=1.0)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.timeouts >= 1
        assert outcome.digest() == clean_digest


class TestGracefulDegradation:
    def test_permanent_fuzz_failure_yields_partial_detection(
        self, monkeypatch, tmp_path, clean_digest
    ):
        """One test that always fails leaves a partial detection report
        carrying every other test's results — and the partial subject
        artifact is never cached, so a later clean run heals it."""
        real = orch_mod._fuzz_unit
        poisoned = {"name": None}

        def fail_one(table, test, config, **kwargs):
            if poisoned["name"] is None:
                poisoned["name"] = test.name
            if test.name == poisoned["name"]:
                raise RuntimeError("poisoned unit")
            return real(table, test, config, **kwargs)

        monkeypatch.setattr(orch_mod, "_fuzz_unit", fail_one)
        cache = ArtifactCache(tmp_path / "cache")
        config = _config(max_retries=1)
        with PipelineOrchestrator(jobs=1, cache=cache, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert outcome.detection_partial
        assert not ledger.ok()
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.stage == "fuzz"
        assert failure.subject == SUBJECT
        assert failure.attempts == 2  # initial try + one retry
        assert "poisoned unit" in failure.error
        assert "RuntimeError" in failure.trace
        assert (
            len(outcome.detection.fuzz_reports)
            == len(outcome.synthesis.tests) - 1
        )
        assert failure.unit in ledger.describe()

        # The healing run: cached fuzzunit artifacts replay, only the
        # poisoned unit recomputes, and the digest matches clean.
        monkeypatch.setattr(orch_mod, "_fuzz_unit", real)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            healed = orch.run([_spec()])[0]
        assert orch.fault_ledger.ok()
        assert not healed.detection_partial
        assert healed.digest() == clean_digest
        assert orch.fault_ledger.completed == 1  # just the healed unit

    def test_permanent_synthesis_failure_leaves_other_subjects_intact(
        self, monkeypatch
    ):
        calls = {"n": 0}
        real = orch_mod._synthesize_unit

        def fail_first(table, digest, target_class, config, cache_root):
            calls["n"] += 1
            if calls["n"] <= 2:  # initial try + the single retry
                raise RuntimeError("synthesis exploded")
            return real(table, digest, target_class, config, cache_root)

        monkeypatch.setattr(orch_mod, "_synthesize_unit", fail_first)
        specs = subject_specs([get_subject("C8"), get_subject("C7")])
        config = _config(max_retries=1)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            outcomes = orch.run(specs)
            ledger = orch.fault_ledger
        assert outcomes[0].synthesis is None
        assert outcomes[0].detection is None
        assert outcomes[0].digest() == "failed"
        assert [f.stage for f in outcomes[0].failures] == ["synthesis"]
        assert outcomes[1].synthesis is not None
        assert outcomes[1].detection is not None
        assert not outcomes[1].failures
        assert len(ledger.failures) == 1

    def test_single_subject_api_raises_on_permanent_failure(
        self, monkeypatch
    ):
        from repro.narada import UnitExecutionError

        def always_fail(table, digest, target_class, config, cache_root):
            raise RuntimeError("permanently broken")

        monkeypatch.setattr(orch_mod, "_synthesize_unit", always_fail)
        config = _config(max_retries=0)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            with pytest.raises(UnitExecutionError) as excinfo:
                orch.synthesize(_spec())
        assert excinfo.value.failure.stage == "synthesis"


class TestCheckpointedResume:
    def test_resume_skips_completed_units_after_kill(
        self, monkeypatch, tmp_path, clean_digest
    ):
        """Simulated kill (KeyboardInterrupt mid-detection) then
        --resume: journaled units replay, only unfinished work runs."""
        real = orch_mod._fuzz_unit
        calls = {"n": 0}

        def kill_after_three(table, test, config, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise KeyboardInterrupt
            return real(table, test, config, **kwargs)

        monkeypatch.setattr(orch_mod, "_fuzz_unit", kill_after_three)
        cache = ArtifactCache(tmp_path / "cache")
        with pytest.raises(KeyboardInterrupt):
            with PipelineOrchestrator(
                jobs=1, cache=cache, config=CONFIG
            ) as orch:
                orch.run([_spec()])
        journal_files = list((tmp_path / "cache" / "runs").glob("*.jsonl"))
        assert len(journal_files) == 1
        journaled = journal_files[0].read_text().splitlines()
        assert len(journaled) == 4  # synthesis + the three finished units

        monkeypatch.setattr(orch_mod, "_fuzz_unit", real)
        with PipelineOrchestrator(
            jobs=1, cache=cache, config=CONFIG, resume=True
        ) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert outcome.digest() == clean_digest
        assert ledger.ok()
        assert ledger.resumed == 4
        total_units = len(outcome.synthesis.tests) + 1
        assert ledger.completed == total_units - 4

    def test_resume_requires_a_cache(self):
        with pytest.raises(ValueError, match="resume requires"):
            PipelineOrchestrator(jobs=1, resume=True)

    def test_fresh_run_truncates_the_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = RunLedger(path)
        first.mark_done("k1", "fuzz", "C8")
        first.close()
        again = RunLedger(path)  # non-resume: starts over
        assert not again.has("k1")
        again.close()
        assert path.read_text() == ""

    def test_journal_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = RunLedger(path)
        ledger.mark_done("k1", "synthesis", "C8")
        ledger.mark_done("k2", "fuzz", "C8")
        ledger.close()
        path.write_text(path.read_text() + '{"key": "k3", "sta')  # torn
        resumed = RunLedger(path, resume=True)
        assert resumed.has("k1") and resumed.has("k2")
        assert not resumed.has("k3")
        resumed.close()

    def test_mark_done_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path / "run.jsonl")
        ledger.mark_done("k1", "fuzz", "C8")
        ledger.mark_done("k1", "fuzz", "C8")
        ledger.close()
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "key": "k1",
            "stage": "fuzz",
            "subject": "C8",
        }


class TestFaultLedgerSerialization:
    def test_roundtrip(self):
        ledger = FaultLedger(
            failures=[
                UnitFailure(
                    stage="fuzz",
                    subject="C3",
                    unit="LoggerRacy001",
                    error="WorkerCrash('died')",
                    trace="Traceback ...",
                    attempts=3,
                )
            ],
            completed=41,
            retries=5,
            pool_respawns=2,
            timeouts=1,
            quarantined=1,
            resumed=7,
        )
        data = encode_fault_ledger(ledger)
        back = decode_fault_ledger(data)
        assert encode_fault_ledger(back) == data
        assert back.failures[0].unit == "LoggerRacy001"
        assert not back.ok()

    def test_describe_mentions_counters_and_failures(self):
        ledger = FaultLedger(completed=3, retries=2)
        text = ledger.describe()
        assert "no failed units" in text
        assert "completed=3" in text and "retries=2" in text


class TestCliFlags:
    def test_pipeline_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run",
                "--subjects", "C1,C8",
                "--fault-inject", "crash:0.3,hang:0.1",
                "--unit-timeout", "10",
                "--max-retries", "4",
                "--retry-backoff", "0.1",
                "--resume",
            ]
        )
        assert args.subjects == "C1,C8"
        assert args.fault_inject == "crash:0.3,hang:0.1"
        assert args.unit_timeout == 10.0
        assert args.max_retries == 4
        assert args.retry_backoff == 0.1
        assert args.resume

    def test_run_requires_file_or_subjects(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="MiniJ FILE or --subjects"):
            main(["run"])

    def test_resume_without_cache_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="resume requires"):
            main(["fuzz", "--subject", "C8", "--resume", "--no-cache"])

    def test_unknown_subject_key_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown subject"):
            main(["run", "--subjects", "C99"])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
