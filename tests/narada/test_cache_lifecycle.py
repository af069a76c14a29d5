"""Cache lifecycle: LRU byte budgets, the crash-safe atime journal,
quarantine GC, ENOSPC resilience, and the `repro cache` CLI."""

import json
import multiprocessing
import os
import time

from repro.cli import main as cli_main
from repro.narada import ArtifactCache, FaultInjector, FaultPlan
from repro.narada import cache as cache_mod
from repro.narada.cache import ATIME_JOURNAL


def _fill(cache: ArtifactCache, stage: str, count: int, payload_bytes: int = 200):
    """Write ``count`` entries with distinct keys; returns the keys."""
    keys = []
    for i in range(count):
        key = f"{i:02d}" + "a" * 62
        cache.put(stage, key, {"i": i, "pad": "x" * payload_bytes})
        keys.append(key)
    return keys


class TestLruEviction:
    def test_budget_evicts_oldest_first(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        keys = _fill(cache, "analysis", 6)
        entry_size = cache.total_bytes() // 6
        # Shrink the budget to roughly half the entries and evict.
        cache.evict(entry_size * 3)
        assert cache.total_bytes() <= entry_size * 3
        # The survivors are the most recently written entries.
        for key in keys[:3]:
            assert cache.get("analysis", key) is None
        cache.stats.misses = 0
        for key in keys[-2:]:
            assert cache.get("analysis", key) is not None
        assert cache.stats.misses == 0

    def test_get_refreshes_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        keys = _fill(cache, "analysis", 4)
        entry_size = cache.total_bytes() // 4
        time.sleep(0.01)
        assert cache.get("analysis", keys[0]) is not None  # refresh oldest
        cache.evict(entry_size)
        # keys[0] was touched last, so it survives the cut to one entry.
        assert cache.get("analysis", keys[0]) is not None
        assert cache.get("analysis", keys[1]) is None

    def test_put_triggers_eviction_over_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1)  # absurdly tight
        _fill(cache, "analysis", 3)
        assert cache.stats.evictions > 0
        assert cache.entry_count() <= 1

    def test_unbudgeted_cache_never_evicts_or_journals(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        _fill(cache, "analysis", 3)
        assert cache.stats.evictions == 0
        assert not (tmp_path / ATIME_JOURNAL).exists()

    def test_quarantine_excluded_from_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        keys = _fill(cache, "analysis", 3)
        live = cache.total_bytes()
        cache.quarantine("analysis", keys[0], "poisoned")
        assert cache.total_bytes() < live
        assert cache.quarantine_count() == 1


class TestAtimeJournal:
    def test_torn_trailing_line_tolerated(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        _fill(cache, "analysis", 3)
        journal = tmp_path / ATIME_JOURNAL
        with open(journal, "a") as handle:
            handle.write('{"k": "analysis/zz", "t": 1')  # crashed writer
        atimes = cache._load_atimes()
        assert len(atimes) == 3  # torn line skipped, not fatal
        assert cache.evict(0) == 3  # eviction still works

    def test_compaction_keeps_latest_per_key(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        keys = _fill(cache, "analysis", 2)
        for _ in range(5):
            cache.get("analysis", keys[0])
        cache._compact_journal()
        lines = (tmp_path / ATIME_JOURNAL).read_text().splitlines()
        assert len(lines) == 2  # one line per live entry
        parsed = {json.loads(line)["k"] for line in lines}
        assert parsed == {f"analysis/{k}" for k in keys}


def _journal_worker(root: str, worker: int, barrier, rounds: int) -> None:
    """One of two processes sharing a budgeted cache root.

    Compacts the journal every few appends, so compactions (read,
    rewrite, ``os.replace``) keep overlapping the other process's
    appends.
    """
    cache_mod._JOURNAL_COMPACT_EVERY = 3
    cache = ArtifactCache(root, max_bytes=60_000)
    barrier.wait(30)
    for i in range(rounds):
        key = f"{worker}{i:03d}" + "b" * 60
        cache.put("fuzzunit", key, {"worker": worker, "i": i})
        other = f"{1 - worker}{i:03d}" + "b" * 60
        cache.get("fuzzunit", other)


class TestTwoProcessJournal:
    def test_concurrent_compaction_loses_no_live_entry(self, tmp_path):
        """Two processes put/get into one budgeted root while each keeps
        compacting the atime journal: every entry still on disk at the
        end must still have its journal line."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_journal_worker, args=(str(tmp_path), w, barrier, 150)
            )
            for w in (0, 1)
        ]
        try:
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(60)
                assert proc.exitcode == 0
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
        cache = ArtifactCache(tmp_path, max_bytes=60_000)
        live = {rel for rel, _, _, _ in cache._iter_entries()}
        assert live
        assert live - set(cache._load_atimes()) == set()


class TestQuarantineGC:
    def test_count_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path, quarantine_max_entries=2)
        keys = _fill(cache, "analysis", 5)
        for key in keys:
            cache.quarantine("analysis", key, "bad")
        assert cache.quarantine_count() == 2
        assert cache.stats.quarantine_dropped == 3
        # Reason files go with their entries.
        reasons = list((tmp_path / "quarantine").glob("*/*.reason.txt"))
        assert len(reasons) == 2

    def test_age_cap(self, tmp_path):
        cache = ArtifactCache(tmp_path, quarantine_max_age_s=60.0)
        keys = _fill(cache, "analysis", 3)
        for key in keys[:2]:
            cache.quarantine("analysis", key, "bad")
        # Age the first two beyond the cap.
        old = time.time() - 120
        for path in (tmp_path / "quarantine").glob("*/*"):
            os.utime(path, (old, old))
        cache.quarantine("analysis", keys[2], "bad")
        assert cache.quarantine_count() == 1
        assert cache.stats.quarantine_dropped == 2


class TestEnospcResilience:
    def test_injected_enospc_returns_false_and_counts(self, tmp_path):
        injector = FaultInjector(FaultPlan(enospc=1.0))
        cache = ArtifactCache(tmp_path, fault_injector=injector)
        assert cache.put("analysis", "ab" * 32, {"x": 1}) is False
        assert cache.stats.write_errors == 1
        assert cache.stats.writes == 0
        # Nothing half-written: the entry is a clean miss, no temp junk.
        assert cache.get("analysis", "ab" * 32) is None
        assert not list(tmp_path.rglob(".tmp-*"))

    def test_unwritable_root_is_absorbed(self, tmp_path):
        # A file where the cache root should be: every mkdir/write under
        # it fails with ENOTDIR, the OSError family `put` must absorb.
        root = tmp_path / "not-a-dir"
        root.write_text("occupied")
        cache = ArtifactCache(root)
        assert cache.put("analysis", "cd" * 32, {"x": 1}) is False
        assert cache.stats.write_errors == 1

    def test_sha_keyed_determinism(self, tmp_path):
        injector = FaultInjector(FaultPlan(enospc=0.5))
        keys = [f"{i:02d}" + "b" * 62 for i in range(20)]
        first = [injector.enospc_write(k) for k in keys]
        second = [injector.enospc_write(k) for k in keys]
        assert first == second
        assert any(first) and not all(first)


class TestCacheCli:
    def test_stats_json(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        _fill(cache, "analysis", 2)
        assert cli_main(
            ["cache", "stats", "--cache-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["total_bytes"] == cache.total_bytes()
        assert payload["quarantine_entries"] == 0

    def test_evict_to_budget(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path)
        keys = _fill(cache, "analysis", 4)
        cache.quarantine("analysis", keys[0], "bad")
        target = cache.total_bytes() // 2
        assert cli_main(
            [
                "cache", "evict",
                "--cache-dir", str(tmp_path),
                "--max-bytes", str(target),
                "--quarantine-max-entries", "0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        after = ArtifactCache(tmp_path)
        assert after.total_bytes() <= target
        assert after.quarantine_count() == 0
