"""Fault-tolerance layer tests: injection, isolation, watchdog, retry,
cache quarantine, and resuming an interrupted run by rerunning it.

The bit-identity contract under test throughout: a run that survived
crashes, hangs, or retries produces byte-identical reports to a clean
run (work units are pure functions of content, so a retry recomputes
the same thing).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.fuzz import RaceFuzzer
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
)
from repro.narada import orchestrator as orch_mod
from repro.narada.cache import source_digest
from repro.narada.orchestrator import spec_keys
from repro.narada.pipeline import Narada
from repro.narada.faults import (
    FaultInjector,
    FaultLedger,
    FaultPlan,
    InjectedCrash,
    UnitFailure,
    UnitTimeout,
    draw,
    watchdog,
)
from repro.narada.serial import decode_fault_ledger, encode_fault_ledger
from repro.subjects import get_subject
from tests.narada.test_cache_format import _payload, _put_entry, put_parts

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


def crashing_config(spec, config):
    """``config`` with an injected crash rate at which the first attempts
    of ``spec``'s unit crash and a later one passes, and the retries to
    reach it.

    A crash draw is keyed on the unit key, ``spec``'s detection stage
    key, which moves with the serial version, so a fixed rate can go
    inert: the rate is picked from the draws instead.
    """
    _, key = spec_keys(source_digest(spec.source), spec.target_class, config)
    draws = [draw("crash", key, attempt) for attempt in range(64)]
    passing = next(i for i in range(1, 64) if draws[i] > max(draws[:i]))
    rate = (max(draws[:passing]) + draws[passing]) / 2
    overrides = {"fault_inject": f"crash:{rate}", "max_retries": passing}
    return PipelineConfig.from_dict({**config.to_dict(), **overrides})


def _rename_first_test(path, name):
    """Make the detection entry at ``path`` name test ``name`` in its
    first fuzz report, written back in the layout the cache writes."""
    entry = _payload(path)
    entry["fuzz_reports"][0]["test"] = name
    _put_entry(path, entry)


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

_REAL_WORKER = orch_mod._subject_worker


# The pool calls a unit's function with ``(unit_key, attempt)`` last.


def _crash_first_attempt(*args):
    if args[-1] == 0:
        os._exit(13)  # a real worker death, not an exception
    return _REAL_WORKER(*args)


def _hang_first_attempt(*args):
    if args[-1] == 0:
        time.sleep(60)
    return _REAL_WORKER(*args)


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

    @pytest.mark.parametrize("kind", ["torn_frame", "oversize_frame", "slow_client"])
    def test_wire_kinds_are_unknown(self, kind):
        # The chaos bench builds its bad frames by hand; a plan that
        # accepted these kinds would inject nothing.
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse(f"{kind}:1")

    def test_bad_rate_is_an_error(self):
        with pytest.raises(ValueError, match="bad fault-inject entry"):
            FaultPlan.parse("crash:lots")

    def test_draws_are_deterministic_and_keyed(self):
        assert draw("crash", "k1", 0) == draw("crash", "k1", 0)
        assert draw("crash", "k1", 0) != draw("crash", "k1", 1)
        assert draw("crash", "k1", 0) != draw("hang", "k1", 0)
        assert draw("crash", "k1", 0) != draw("crash", "k2", 0)
        assert 0.0 <= draw("crash", "k1", 0) < 1.0


class TestFaultInjector:
    def test_no_spec_means_no_injector(self, monkeypatch):
        # The spec travels in the pipeline config, never the environment.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1.0")
        assert FaultInjector.from_spec(None) is None
        assert FaultInjector.from_spec("crash:0.0") is None

    def test_config_path(self):
        """A pool worker rebuilds its injector from the config dict it
        is sent with each unit."""
        sent = PipelineConfig(fault_inject="hang:0.2", unit_timeout=2.0).to_dict()
        injector = PipelineConfig.from_dict(sent).injector()
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
        put_parts(cache, "synthesis", key, {"kind": "synthesis", "x": 1})
        path = pathlib.Path(cache._path("synthesis", key))
        path.write_bytes(b"\x00\xffnot json{{{")
        assert cache.get("synthesis", key) is None
        assert cache.stats.quarantined == 1
        moved = tmp_path / "quarantine" / "synthesis" / f"{key}.json"
        reason = tmp_path / "quarantine" / "synthesis" / f"{key}.reason.txt"
        assert moved.exists()
        assert "unreadable entry" in reason.read_text()
        assert not path.exists()
        # And the next get is a plain miss, not a repeat quarantine.
        assert cache.get("synthesis", key) is None
        assert cache.stats.quarantined == 1

    def test_schema_stale_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "cd" * 32
        put_parts(cache, "detection", key, {"kind": "detection", "version": 999})
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
        key, _ = spec_keys(source_digest(spec.source), spec.target_class, CONFIG)
        put_parts(cache, "synthesis", key, {"kind": "synthesis", "bogus": True})
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
        assert outcome.digest() == clean_digest
        assert not outcome.synthesis_cached
        assert orch.fault_ledger.quarantined >= 1
        assert cache.stats.quarantined >= 1

    def test_decode_failure_counts_as_a_miss(self, tmp_path, clean_digest):
        """An entry that parses but fails to decode was no hit: the
        stats move it to the misses when it is quarantined."""
        spec = _spec()
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(tmp_path), config=CONFIG
        ) as orch:
            orch.run([spec])
        (path,) = (tmp_path / "synthesis").glob("*.json")
        head, body = path.read_text().split("\n")
        entry = json.loads(head)
        entry["tests"] = [10**9]
        path.write_text(json.dumps(entry) + "\n" + body)
        cache = ArtifactCache(tmp_path)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
        assert outcome.digest() == clean_digest
        assert not outcome.synthesis_cached and not outcome.detection_cached
        # The hit is the detection entry, read before the synthesis
        # failed to decode and then left unused.
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.quarantined) == (1, 1, 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_synthesis_hit_with_an_undecodable_detection_refuzzes(
        self, tmp_path, clean_digest, jobs
    ):
        """A detection entry that names a test its cached synthesis
        lacks is quarantined; the synthesis still replays, decoded
        whole, and its tests fuzz."""
        spec = _spec()
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(tmp_path), config=CONFIG
        ) as orch:
            orch.run([spec])
        (path,) = (tmp_path / "detection").glob("*.json")
        _rename_first_test(path, "no_such_test")
        cache = ArtifactCache(tmp_path)
        with PipelineOrchestrator(jobs=jobs, cache=cache, config=CONFIG) as orch:
            outcome = orch.run([spec])[0]
            assert orch.fault_ledger.failures == []
        assert outcome.digest() == clean_digest
        assert outcome.synthesis_cached and not outcome.detection_cached
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.quarantined) == (1, 1, 1)
        assert _payload(path)["fuzz_reports"][0]["test"] != "no_such_test"

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
    def test_worker_crash_mid_unit_is_retried(self, monkeypatch, clean_digest):
        """A worker that dies mid-unit is blamed on exactly that unit;
        the pool respawns and the retry converges bit-identically."""
        monkeypatch.setattr(orch_mod, "_subject_worker", _crash_first_attempt)
        with PipelineOrchestrator(jobs=2, config=CONFIG) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.pool_respawns >= 1
        assert ledger.retries >= 1
        assert outcome.digest() == clean_digest

    def test_probabilistic_crash_injection_converges(self, clean_digest):
        """The real --fault-inject path: injected worker deaths,
        generous retries, bit-identical results."""
        config = crashing_config(_spec(), CONFIG)
        with PipelineOrchestrator(jobs=2, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok(), [f.error for f in ledger.failures]
        assert ledger.retries > 0
        assert ledger.pool_respawns > 0
        assert outcome.digest() == clean_digest

    def test_inline_injected_crashes_converge(self, clean_digest):
        config = crashing_config(_spec(), CONFIG)
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
        monkeypatch.setattr(orch_mod, "_subject_worker", _hang_first_attempt)
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
        """A hang inside one test's fuzz times out the whole subject
        unit, which the retry recomputes; no test is blamed for it."""
        calls = {"n": 0}
        real = RaceFuzzer.fuzz

        def hang_once(self, test, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                time.sleep(60)
            return real(self, test, **kwargs)

        monkeypatch.setattr(RaceFuzzer, "fuzz", hang_once)
        config = _config(unit_timeout=1.0)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.timeouts == 1
        assert ledger.retries == 1
        assert not outcome.detection_partial
        assert outcome.digest() == clean_digest


class TestGracefulDegradation:
    def test_permanent_fuzz_failure_yields_partial_detection(
        self, monkeypatch, tmp_path, clean_digest
    ):
        """One test that always raises leaves a partial detection report
        carrying every other test's report.  The test is tried once (a
        retry would raise again), the partial detection is never cached,
        and a later clean run heals it from the cached synthesis."""
        real = RaceFuzzer.fuzz
        poisoned = {"name": None, "calls": 0}

        def fail_one(self, test, **kwargs):
            if poisoned["name"] is None:
                poisoned["name"] = test.name
            if test.name == poisoned["name"]:
                poisoned["calls"] += 1
                raise RuntimeError("poisoned test")
            return real(self, test, **kwargs)

        monkeypatch.setattr(RaceFuzzer, "fuzz", fail_one)
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
        assert failure.unit == poisoned["name"]
        assert failure.attempts == 1
        assert poisoned["calls"] == 1
        assert ledger.retries == 0
        assert "poisoned test" in failure.error
        assert "RuntimeError" in failure.trace
        others = [t.name for t in outcome.synthesis.tests]
        others.remove(poisoned["name"])
        assert [r.test.name for r in outcome.detection.fuzz_reports] == others
        assert failure.unit in ledger.describe()
        # The synthesis is published; the partial detection is not.
        assert len(list((tmp_path / "cache" / "synthesis").glob("*.json"))) == 1
        assert not (tmp_path / "cache" / "detection").exists()

        # The healing run: the synthesis replays and one unit fuzzes
        # every test again.
        monkeypatch.setattr(RaceFuzzer, "fuzz", real)
        with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
            healed = orch.run([_spec()])[0]
        assert orch.fault_ledger.ok()
        assert healed.synthesis_cached and not healed.detection_partial
        assert healed.digest() == clean_digest
        assert orch.fault_ledger.completed == 1

    def test_permanent_synthesis_failure_leaves_other_subjects_intact(
        self, monkeypatch
    ):
        calls = {"n": 0}
        real = Narada.synthesize_for_class

        def fail_first(self, class_name):
            calls["n"] += 1
            if calls["n"] <= 2:  # initial try + the single retry
                raise RuntimeError("synthesis exploded")
            return real(self, class_name)

        monkeypatch.setattr(Narada, "synthesize_for_class", fail_first)
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

        def always_fail(self, class_name):
            raise RuntimeError("permanently broken")

        monkeypatch.setattr(Narada, "synthesize_for_class", always_fail)
        config = _config(max_retries=0)
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            with pytest.raises(UnitExecutionError) as excinfo:
                orch.synthesize(_spec())
        assert excinfo.value.failure.stage == "synthesis"


    def test_failed_unit_names_the_first_missing_report(
        self, monkeypatch, tmp_path
    ):
        """A unit that fails for good is a ``synthesis`` failure when it
        started without one, and a ``fuzz`` failure when it started
        from a cached synthesis, which the outcome keeps."""

        def broken(self, *args, **kwargs):
            raise RuntimeError("detection exploded")

        cache = ArtifactCache(tmp_path / "cache")
        config = _config(max_retries=0)
        with PipelineOrchestrator(jobs=1, cache=cache, config=config) as orch:
            orch.run([_spec()], detect=False)
        monkeypatch.setattr(Narada, "detect", broken)
        with PipelineOrchestrator(jobs=1, cache=cache, config=config) as orch:
            outcome = orch.run([_spec()])[0]
        assert outcome.synthesis_cached
        assert outcome.detection is None
        assert [(f.stage, f.unit) for f in outcome.failures] == [
            ("fuzz", outcome.synthesis.class_name)
        ]
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            outcome = orch.run([_spec()])[0]
        assert outcome.synthesis is None
        assert [f.stage for f in outcome.failures] == ["synthesis"]


class TestRerunResumes:
    def test_rerun_recomputes_only_the_unfinished_subject(
        self, monkeypatch, tmp_path
    ):
        """Simulated kill (KeyboardInterrupt while C7 fuzzes), then the
        same run again: C8, whose unit completed, replays from the
        cache, and C7 runs again as one unit."""
        specs = subject_specs([get_subject("C8"), get_subject("C7")])
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            clean = [o.digest() for o in orch.run(specs)]
        c7_class = specs[1].target_class
        real = RaceFuzzer.fuzz
        calls = {"c7": 0, "rerun": 0}

        def kill_in_c7(self, test, **kwargs):
            if test.name.startswith(c7_class):
                calls["c7"] += 1
                if calls["c7"] > 1:
                    raise KeyboardInterrupt
            return real(self, test, **kwargs)

        monkeypatch.setattr(RaceFuzzer, "fuzz", kill_in_c7)
        root = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            with PipelineOrchestrator(
                jobs=1, cache=ArtifactCache(root), config=CONFIG
            ) as orch:
                orch.run(specs)
        assert len(list((root / "synthesis").glob("*.json"))) == 1
        assert len(list((root / "detection").glob("*.json"))) == 1

        def counting(self, test, **kwargs):
            calls["rerun"] += 1
            return real(self, test, **kwargs)

        monkeypatch.setattr(RaceFuzzer, "fuzz", counting)
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(root), config=CONFIG
        ) as orch:
            c8, c7 = orch.run(specs)
            ledger = orch.fault_ledger
        assert [c8.digest(), c7.digest()] == clean
        assert ledger.ok()
        assert c8.synthesis_cached and c8.detection_cached
        assert not c7.synthesis_cached and not c7.detection_cached
        assert ledger.completed == 1
        assert calls["rerun"] == len(c7.detection.fuzz_reports)
        assert sorted(p.name for p in root.iterdir()) == ["detection", "synthesis"]

    def test_sigkill_keeps_finished_subjects(self, monkeypatch, tmp_path):
        """SIGKILL a jobs=1 run of C8 then C7 while C7 is fuzzing: C8's
        entries were published when its unit completed, so the rerun
        replays C8 and runs only C7.  The C7 work done before the kill
        is lost with the process."""
        specs = subject_specs([get_subject("C8"), get_subject("C7")])
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            clean = [o.digest() for o in orch.run(specs)]
        root = tmp_path / "cache"
        child = subprocess.Popen(
            [sys.executable, "-c", _STALL_AFTER_FIRST_DETECTION, str(root)],
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        try:
            deadline = time.monotonic() + 120
            while not list((root / "detection").glob("*.json")):
                assert child.poll() is None, "run ended before the kill"
                assert time.monotonic() < deadline, "no detection entry"
                time.sleep(0.02)
            # One more C7 test finishes before the child stalls.
            time.sleep(0.5)
            child.send_signal(signal.SIGKILL)
            assert child.wait(timeout=30) == -signal.SIGKILL
        finally:
            child.kill()
            child.wait()
        assert len(list((root / "synthesis").glob("*.json"))) == 1
        assert len(list((root / "detection").glob("*.json"))) == 1
        assert sorted(p.name for p in root.iterdir()) == [
            "detection",
            "synthesis",
        ]

        real = RaceFuzzer.fuzz
        fuzzed = []

        def counting(self, test, **kwargs):
            fuzzed.append(test.name)
            return real(self, test, **kwargs)

        monkeypatch.setattr(RaceFuzzer, "fuzz", counting)
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(root), config=CONFIG
        ) as orch:
            c8, c7 = orch.run(specs)
        assert [c8.digest(), c7.digest()] == clean
        assert c8.synthesis_cached and c8.detection_cached
        assert not c7.synthesis_cached and not c7.detection_cached
        assert len(fuzzed) == len(c7.detection.fuzz_reports)


#: Where ``repro`` is imported from, for the subprocesses below.
_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])

#: Child for the SIGKILL test: runs C8 then C7 inline, and stalls in its
#: second C7 test's fuzz so the kill always lands mid-C7.
_STALL_AFTER_FIRST_DETECTION = """
import pathlib, sys, time
from repro.fuzz import RaceFuzzer
from repro.narada import (
    ArtifactCache, PipelineConfig, PipelineOrchestrator, subject_specs,
)
from repro.subjects import get_subject

root = pathlib.Path(sys.argv[1])
real = RaceFuzzer.fuzz
after = []

def stall(self, test, **kwargs):
    if list((root / "detection").glob("*.json")):
        after.append(test.name)
        if len(after) > 1:
            time.sleep(600)
    return real(self, test, **kwargs)

RaceFuzzer.fuzz = stall
specs = subject_specs([get_subject("C8"), get_subject("C7")])
config = PipelineConfig(random_runs=2, retry_backoff=0.0)
with PipelineOrchestrator(jobs=1, cache=ArtifactCache(root), config=config) as orch:
    orch.run(specs)
"""

#: Child for the orphan test: a two-worker pool that has run units,
#: prints its worker pids, and then idles.
_IDLE_POOL = """
import os, time
from repro.narada.faults import FaultLedger, FaultTolerantPool, PoolUnit, RetryPolicy

def pid(unit_key="", attempt=0):
    return os.getpid()

pool = FaultTolerantPool(2, RetryPolicy(), FaultLedger())
pool.run([PoolUnit(key=str(i), stage="s", subject="s", name=str(i), fn=pid)
          for i in range(4)])
print(" ".join(str(w.process.pid) for w in pool._workers), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has exited)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestOrphanedWorkers:
    def test_workers_exit_when_their_parent_is_killed(self):
        child = subprocess.Popen(
            [sys.executable, "-c", _IDLE_POOL],
            env={**os.environ, "PYTHONPATH": _SRC},
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = [int(pid) for pid in child.stdout.readline().split()]
        try:
            assert len(workers) == 2
            child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)


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
            ]
        )
        assert args.subjects == "C1,C8"
        assert args.fault_inject == "crash:0.3,hang:0.1"
        assert args.unit_timeout == 10.0
        assert args.max_retries == 4
        assert args.retry_backoff == 0.1

    def test_run_requires_file_or_subjects(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="MiniJ FILE or --subjects"):
            main(["run"])

    def test_malformed_fault_spec_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="bad fault-inject entry"):
            main(["fuzz", "--subject", "C8", "--fault-inject", "crash:lots"])

    def test_unknown_subject_key_is_an_error(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown subject"):
            main(["run", "--subjects", "C99"])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
