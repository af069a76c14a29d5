"""Batched-dispatch tests: share sizing, mid-batch fault semantics, warm
reuse, and the determinism contract across batch boundaries.

The invariant under test throughout: batching changes *scheduling*,
never results.  A crash or hang on the k-th unit of a batch blames
exactly that unit; results already streamed for earlier units survive;
units queued behind it go back to pending with their attempt counts
untouched; and any ``jobs`` produces byte-identical reports to
``jobs=1``.
"""

import os
import time
from collections import deque

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.runner import corpus_specs
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
    serial,
    subject_specs,
)
from repro.narada.faults import (
    FaultLedger,
    FaultTolerantPool,
    PoolUnit,
    RetryPolicy,
)
from repro.subjects import get_subject

SUBJECT = "C8"
CONFIG = PipelineConfig(random_runs=2, retry_backoff=0.0)


def _spec():
    return subject_specs([get_subject(SUBJECT)])[0]


def _many_specs():
    """C7, C8 and a 10-subject slice of the stock corpus."""
    return subject_specs([get_subject("C7"), get_subject("C8")]) + corpus_specs(
        generate_corpus(CorpusConfig(count=10))
    )


def _config(**overrides):
    base = CONFIG.to_dict()
    base.update(overrides)
    return PipelineConfig.from_dict(base)


# Module-level worker functions so the pool can pickle them by reference.


def _echo(value, key="", attempt=0):
    return (value, attempt)


def _crash_on_marker(value, key="", attempt=0):
    if value == "CRASH" and attempt == 0:
        os._exit(17)  # hard worker death mid-batch
    return (value, attempt)


def _hang_on_marker(value, key="", attempt=0):
    if value == "HANG" and attempt == 0:
        time.sleep(60)
    return (value, attempt)


def _raise_on_marker(value, key="", attempt=0):
    if value == "BOOM":
        raise ValueError(f"boom in {key}")
    return (value, attempt)


def _worker_pid(value, key="", attempt=0):
    return os.getpid()


def _pid_after_slow_marker(value, key="", attempt=0):
    if value == "SLOW":
        time.sleep(1.0)
    return os.getpid()


def _units(values, fn=_echo, stage="stage"):
    return [
        PoolUnit(
            key=f"u{i}",
            stage=stage,
            subject=SUBJECT,
            name=f"u{i}",
            fn=fn,
            args=(value,),
        )
        for i, value in enumerate(values)
    ]


def _pool(jobs=1, on_complete=None, **policy):
    policy.setdefault("backoff", 0.0)
    return FaultTolerantPool(
        jobs, RetryPolicy(**policy), FaultLedger(), on_complete=on_complete
    )


class TestTakeBatch:
    """The share rule is pure queue surgery — testable without workers."""

    def test_shares_shrink_as_the_ready_queue_drains(self):
        pool = _pool(jobs=2)
        now = time.monotonic()
        units = _units(["x"] * 9)
        for backed_off in (units[1], units[6]):
            backed_off.not_before = now + 60.0
        pending = deque(units)
        takes = []
        while share := pool._share(pending, now):
            takes.append([u.key for u in pool._take_batch(pending, now, share)])
        # 7 ready units over 2 jobs: ceil(7/4), ceil(5/4), then ones.
        assert takes == [["u0", "u2"], ["u3", "u4"], ["u5"], ["u7"], ["u8"]]
        assert sorted(u.key for u in pending) == ["u1", "u6"]
        for ready, jobs, sizes in [
            (20, 2, [5, 4, 3, 2, 2, 1, 1, 1, 1]),
            (9, 4, [2, 1, 1, 1, 1, 1, 1, 1]),
            (5, 1, [3, 1, 1]),
            (2, 3, [1, 1]),
        ]:
            pool = _pool(jobs=jobs)
            pending = deque(_units(["x"] * ready))
            seen = []
            while share := pool._share(pending, now):
                seen.append(len(pool._take_batch(pending, now, share)))
            assert seen == sizes, (ready, jobs)

    def test_backed_off_units_are_skipped(self):
        pool = _pool()
        now = time.monotonic()
        units = _units(["x"] * 4)
        units[1].not_before = now + 60.0
        pending = deque(units)
        batch = pool._take_batch(pending, now, 3)
        assert [u.key for u in batch] == ["u0", "u2", "u3"]

    def test_a_take_ignores_stages(self):
        units = _units(["a", "b"], stage="synthesis") + _units(
            ["c", "d"], stage="fuzz"
        )
        batch = _pool()._take_batch(deque(units), time.monotonic(), 3)
        assert [u.stage for u in batch] == ["synthesis", "synthesis", "fuzz"]


class TestMidBatchFaults:
    def _run_batched(self, values, fn, jobs=1, on_complete=None, **policy):
        # With one worker the first dispatch takes u0..u2 of six units.
        pool = _pool(jobs=jobs, on_complete=on_complete, **policy)
        with pool:
            results = pool.run(_units(values, fn=fn))
        return results, pool.ledger

    def test_crash_on_kth_unit_blames_only_it(self):
        completions = []
        values = ["a", "CRASH", "c", "d", "e", "f"]
        results, ledger = self._run_batched(
            values,
            _crash_on_marker,
            max_retries=2,
            on_complete=lambda unit, payload: completions.append(unit.key),
        )
        assert ledger.ok()
        assert sorted(results) == [f"u{i}" for i in range(6)]
        # The crashed unit burned exactly one attempt; the unit queued
        # behind it in the batch retried nothing.
        assert results["u1"] == ("CRASH", 1)
        assert results["u2"] == ("c", 0)
        assert ledger.retries == 1
        assert ledger.pool_respawns == 1
        # Results streamed before the crash were kept, not re-run.
        assert sorted(completions) == sorted(results)
        assert len(completions) == 6

    def test_hang_on_kth_unit_is_killed_and_blamed(self):
        values = ["a", "HANG", "c", "d", "e", "f"]
        results, ledger = self._run_batched(
            values, _hang_on_marker, max_retries=2, unit_timeout=1.0
        )
        assert ledger.ok()
        assert sorted(results) == [f"u{i}" for i in range(6)]
        assert results["u0"] == ("a", 0)
        assert results["u1"] == ("HANG", 1)
        assert results["u2"] == ("c", 0)  # requeued, attempt untouched
        assert ledger.timeouts == 1
        assert ledger.pool_respawns == 1

    def test_ordinary_exception_does_not_kill_the_batch(self):
        values = ["a", "BOOM", "c", "d", "e", "f"]
        results, ledger = self._run_batched(
            values, _raise_on_marker, max_retries=0
        )
        # The worker survived and finished the rest of its batch.
        assert sorted(results) == ["u0", "u2", "u3", "u4", "u5"]
        assert ledger.pool_respawns == 0
        assert len(ledger.failures) == 1
        failure = ledger.failures[0]
        assert failure.unit == "u1"
        assert "boom in u1" in failure.error
        assert failure.attempts == 1

    def test_crash_in_one_share_leaves_the_other_share_alone(self):
        values = ["a", "b", "CRASH", "d", "e", "f", "g", "h"]
        results, ledger = self._run_batched(
            values, _crash_on_marker, jobs=2, max_retries=2
        )
        assert ledger.ok()
        assert sorted(results) == [f"u{i}" for i in range(8)]
        assert results["u2"] == ("CRASH", 1)
        assert all(
            results[key][1] == 0 for key in results if key != "u2"
        )
        assert ledger.retries == 1
        assert ledger.pool_respawns == 1

    def test_batches_and_warm_reuses_are_counted(self):
        pool = _pool(jobs=1)
        with pool:
            first = pool.run(_units(["a", "b", "c"]))
            second = pool.run(_units(["d", "e", "f"]))
        assert len(first) == 3 and len(second) == 3
        ledger = pool.ledger
        assert ledger.completed == 6
        assert ledger.batches == 4  # two units, then one, per run
        # The second run reused the worker spawned by the first.
        assert ledger.warm_reuses >= 1
        assert ledger.pool_respawns == 0


class TestGuidedDispatch:
    def test_first_round_hands_out_half_the_queue(self):
        pool = _pool(jobs=2)
        with pool:
            results = pool.run(_units(["v"] * 10, fn=_worker_pid))
        assert len(results) == 10
        # 3 then 2 in the first round; the other five go out as 2/1/1/1.
        assert pool.ledger.batches == 6
        assert len({results[f"u{i}"] for i in range(3)}) == 1
        assert results["u3"] == results["u4"] != results["u0"]

    def test_nine_units_at_jobs_four_keep_every_worker_busy(self):
        pool = _pool(jobs=4)
        with pool:
            results = pool.run(_units(["v"] * 9, fn=_worker_pid))
        assert len(results) == 9
        # First round: 2/1/1/1 over four distinct workers.
        assert len({results[key] for key in ("u0", "u2", "u3", "u4")}) == 4
        assert results["u1"] == results["u0"]

    def test_a_worker_that_frees_early_takes_the_tail(self):
        pool = _pool(jobs=2)
        values = ["SLOW", "b", "c", "d", "e", "f"]
        with pool:
            results = pool.run(_units(values, fn=_pid_after_slow_marker))
        # u0, u1 go to the first worker and u2 to the second; u3..u5
        # wait in the queue, and the second worker, free first, takes
        # each of them.
        assert results["u0"] == results["u1"] != results["u2"]
        assert results["u3"] == results["u4"] == results["u5"] == results["u2"]

    def test_fewer_units_than_jobs_spawn_one_worker_per_unit(self):
        pool = _pool(jobs=3)
        with pool:
            results = pool.run(_units(["v"] * 2, fn=_worker_pid))
            assert len(pool._workers) == 2
        assert pool.ledger.batches == 2
        assert len(set(results.values())) == 2


class TestPipelineDeterminism:
    @pytest.fixture(scope="class")
    def serial_digest(self):
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            outcome = orch.run([_spec()])[0]
        assert orch.fault_ledger.ok()
        return outcome.digest()

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    def test_byte_identical_across_jobs(self, serial_digest, jobs):
        with PipelineOrchestrator(jobs=jobs, config=CONFIG) as orch:
            outcome = orch.run([_spec()])[0]
        assert orch.fault_ledger.ok()
        assert outcome.digest() == serial_digest

    def test_batches_with_crashes_stay_identical(self, serial_digest):
        # One subject is one unit, so the run draws once per attempt:
        # at 0.8 the first two attempts of C8's unit crash.
        config = _config(fault_inject="crash:0.8", max_retries=12)
        with PipelineOrchestrator(jobs=2, config=config) as orch:
            outcome = orch.run([_spec()])[0]
            ledger = orch.fault_ledger
        assert ledger.ok(), [f.error for f in ledger.failures]
        assert ledger.retries > 0
        assert outcome.digest() == serial_digest

    def test_fault_knobs_stay_out_of_cache_keys(self):
        patient = _config(
            unit_timeout=30.0,
            max_retries=9,
            retry_backoff=1.0,
            fault_inject="crash:0.1",
        )
        assert patient.synthesis_config("Any") == CONFIG.synthesis_config("Any")
        assert patient.detection_config("Any") == CONFIG.detection_config("Any")

    @pytest.fixture(scope="class")
    def serial_digests(self):
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            outcomes = orch.run(_many_specs())
        assert orch.fault_ledger.ok()
        return [outcome.digest() for outcome in outcomes]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_many_subjects_byte_identical_across_jobs(self, serial_digests, jobs):
        with PipelineOrchestrator(jobs=jobs, config=CONFIG) as orch:
            outcomes = orch.run(_many_specs())
        assert orch.fault_ledger.ok()
        assert [outcome.digest() for outcome in outcomes] == serial_digests

    def test_cold_run_is_one_unit_per_subject(self, tmp_path, serial_digests):
        """A cold pooled run of N subjects completes exactly N units and
        leaves only synthesis and detection entries."""
        specs = _many_specs()
        with PipelineOrchestrator(
            jobs=2, cache=ArtifactCache(tmp_path), config=CONFIG
        ) as orch:
            outcomes = orch.run(specs)
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.completed == len(specs)
        assert [outcome.digest() for outcome in outcomes] == serial_digests
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "detection",
            "synthesis",
        ]
        for stage in ("detection", "synthesis"):
            assert len(list((tmp_path / stage).glob("*.json"))) == len(specs)

    def test_detection_miss_on_synthesis_hit_sends_the_synthesis_entry(
        self, monkeypatch, tmp_path
    ):
        """Same cache, new ``random_runs``: every synthesis hits and
        every detection misses.  The pooled units take the cached
        synthesis entries, never a per-test bundle, and match jobs=1."""

        def refuse(test):
            raise AssertionError("encode_test_bundle called")

        monkeypatch.setattr(serial, "encode_test_bundle", refuse)
        specs = subject_specs([get_subject("C7"), get_subject("C8")])
        with PipelineOrchestrator(
            jobs=2, cache=ArtifactCache(tmp_path), config=CONFIG
        ) as orch:
            orch.run(specs)
        more = _config(random_runs=3)
        with PipelineOrchestrator(jobs=1, config=more) as orch:
            serial_run = [outcome.digest() for outcome in orch.run(specs)]
        with PipelineOrchestrator(
            jobs=2, cache=ArtifactCache(tmp_path), config=more
        ) as orch:
            outcomes = orch.run(specs)
            ledger = orch.fault_ledger
        assert ledger.ok()
        assert ledger.completed == len(specs)
        assert all(o.synthesis_cached and not o.detection_cached for o in outcomes)
        assert [outcome.digest() for outcome in outcomes] == serial_run

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_detect_api_fuzzes_a_given_synthesis(self, serial_digest, jobs):
        """``detect(spec, synthesis)`` runs one fuzz unit on the report it
        is handed (encoded for a pool worker) and matches ``run``."""
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            synthesis = orch.synthesize(_spec())
        with PipelineOrchestrator(jobs=jobs, config=CONFIG) as orch:
            detection = orch.detect(_spec(), synthesis)
            assert orch.fault_ledger.completed == 1
        digest = serial.report_digest(serial.encode_detection(detection))
        assert digest == serial_digest.split("/")[1]

    def test_rerun_replays_every_finished_subject(self, monkeypatch, tmp_path):
        """A pooled run interrupted after its first subject's unit keeps
        that subject's two entries; rerunning the same run replays it and
        runs one unit for each other subject."""
        specs = subject_specs([get_subject("C8"), get_subject("C7"), get_subject("C1")])
        with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
            clean = [outcome.digest() for outcome in orch.run(specs)]
        real_run_units = PipelineOrchestrator._run_units
        kill = [True]

        def kill_after_first(self, units, inline_fn, on_complete=None):
            def complete(unit, payload):
                on_complete(unit, payload)
                if kill[0]:
                    raise KeyboardInterrupt

            return real_run_units(self, units, inline_fn, complete)

        monkeypatch.setattr(PipelineOrchestrator, "_run_units", kill_after_first)
        root = tmp_path / "cache"
        with pytest.raises(KeyboardInterrupt):
            with PipelineOrchestrator(
                jobs=2, cache=ArtifactCache(root), config=CONFIG
            ) as orch:
                orch.run(specs)
        for stage in ("detection", "synthesis"):
            assert len(list((root / stage).glob("*.json"))) == 1

        kill[0] = False
        with PipelineOrchestrator(
            jobs=2, cache=ArtifactCache(root), config=CONFIG
        ) as orch:
            outcomes = orch.run(specs)
            ledger = orch.fault_ledger
        assert [outcome.digest() for outcome in outcomes] == clean
        assert ledger.ok()
        assert ledger.completed == len(specs) - 1
        assert sum(o.detection_cached for o in outcomes) == 1
        assert sorted(path.name for path in root.iterdir()) == [
            "detection",
            "synthesis",
        ]


class TestWarmPool:
    def test_one_pool_spans_runs(self):
        """A second run on one orchestrator reuses the first's workers."""
        with PipelineOrchestrator(jobs=2, config=CONFIG) as orch:
            orch.run([_spec()])
            pool = orch._pool
            orch.run(subject_specs([get_subject("C7")]))
            ledger = orch.fault_ledger
            assert orch._pool is pool
        assert ledger.ok()
        assert ledger.pool_respawns == 0
        assert ledger.batches == 1
        assert ledger.warm_reuses == 1

    def test_borrowed_pool_survives_orchestrator_close(self):
        pool = FaultTolerantPool(2, CONFIG.retry_policy(), FaultLedger())
        with pool:
            for _ in range(2):
                orch = PipelineOrchestrator(jobs=2, config=CONFIG, pool=pool)
                try:
                    outcome = orch.run([_spec()])[0]
                finally:
                    orch.close()
                assert outcome.synthesis is not None
            # Workers outlive every borrowing orchestrator.
            assert pool._workers
            assert all(w.process.is_alive() for w in pool._workers)
        assert pool.ledger.warm_reuses >= 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
