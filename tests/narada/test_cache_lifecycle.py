"""Cache lifecycle: LRU byte budgets with entry mtimes as recency,
quarantine GC, ENOSPC resilience, and the `repro cache` CLI."""

import json
import multiprocessing
import os
import pathlib
import sys
import threading
import time

from repro.cli import main as cli_main
from repro.narada import ArtifactCache, FaultInjector, FaultPlan
from tests.narada.test_cache_format import put_parts


def _fill(cache: ArtifactCache, stage: str, count: int, payload_bytes: int = 200):
    """Write ``count`` entries with distinct keys; returns the keys."""
    keys = []
    for i in range(count):
        key = f"{i:02d}" + "a" * 62
        put_parts(cache, stage, key, {"i": i, "pad": "x" * payload_bytes})
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
        assert not (tmp_path / "atime.journal").exists()
        assert {path.name for path in tmp_path.iterdir()} == {"analysis"}

    def test_quarantine_excluded_from_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        keys = _fill(cache, "analysis", 3)
        live = cache.total_bytes()
        cache.quarantine("analysis", keys[0], "poisoned")
        assert cache.total_bytes() < live
        assert cache.quarantine_count() == 1


class TestOldLayout:
    """Entries under the old ``<stage>/<aa>/<digest>.json`` fan-out."""

    def _nest(self, cache: ArtifactCache, stage: str, key: str) -> None:
        """Move a flat entry into its old fan-out directory."""
        flat = pathlib.Path(cache._path(stage, key))
        nested = flat.parent / key[:2] / flat.name
        nested.parent.mkdir(exist_ok=True)
        os.replace(flat, nested)

    def test_nested_entries_are_counted_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        (key,) = _fill(cache, "synthesis", 1)
        size = cache.total_bytes()
        self._nest(cache, "synthesis", key)
        assert cache.get("synthesis", key) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.quarantined == 0
        assert cache.total_bytes() == size
        assert cache.entry_count() == 1

    def test_nested_entries_are_evicted_first(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        flat = _fill(cache, "detection", 3)
        entry_size = cache.total_bytes() // 3
        (old,) = _fill(cache, "synthesis", 1)
        self._nest(cache, "synthesis", old)
        # The old entry is the newest by mtime.
        future = time.time() + 3600
        nested = tmp_path / "synthesis" / old[:2] / f"{old}.json"
        os.utime(nested, (future, future))
        cache.evict(entry_size * 3)
        assert cache.entry_count() == 3
        assert not list((tmp_path / "synthesis").rglob("*.json"))
        assert all(cache.get("detection", key) is not None for key in flat)


class TestMtimeRecency:
    def test_recency_survives_a_restart(self, tmp_path):
        keys = _fill(ArtifactCache(tmp_path, max_bytes=100_000), "analysis", 4)
        time.sleep(0.01)
        assert ArtifactCache(tmp_path, max_bytes=100_000).get(
            "analysis", keys[0]
        ) is not None
        fresh = ArtifactCache(tmp_path, max_bytes=100_000)
        fresh.evict(fresh.total_bytes() // 4)
        # The hit in another instance made keys[0] the newest entry.
        assert fresh.get("analysis", keys[0]) is not None
        assert all(fresh.get("analysis", key) is None for key in keys[1:])

    def test_a_size_check_is_a_use_under_a_budget(self, tmp_path):
        """A detection hit reads its synthesis entry's size, not the
        entry; under a budget that check sets the entry's recency, so a
        replayed subject's synthesis entry is not evicted first."""
        keys = _fill(ArtifactCache(tmp_path, max_bytes=100_000), "analysis", 4)
        time.sleep(0.01)
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        size = cache.size("analysis", keys[0])
        assert size == pathlib.Path(cache._path("analysis", keys[0])).stat().st_size
        assert cache.size("analysis", "ff" * 32) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        cache.evict(cache.total_bytes() // 4)
        assert cache.get("analysis", keys[0]) is not None
        assert all(cache.get("analysis", key) is None for key in keys[1:])

    def test_unbudgeted_hit_leaves_mtime_alone(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        (key,) = _fill(cache, "analysis", 1)
        path = pathlib.Path(cache._path("analysis", key))
        old = time.time() - 3600
        os.utime(path, (old, old))
        assert cache.get("analysis", key) is not None
        assert path.stat().st_mtime == old

    def test_hit_on_a_vanished_entry_still_returns_it(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path, max_bytes=100_000)
        (key,) = _fill(cache, "analysis", 1)
        real_utime = os.utime

        def evicted_first(path, *args, **kwargs):
            os.unlink(path)  # another process evicts it after the read
            return real_utime(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", evicted_first)
        data = cache.get("analysis", key)
        assert data is not None and data["i"] == 0
        assert cache.stats.hits == 1
        assert not pathlib.Path(cache._path("analysis", key)).exists()


#: Budget of the two-process test: about a tenth of what they write.
_SHARED_BUDGET = 20_000


def _sharing_worker(root: str, worker: int, barrier, rounds: int) -> None:
    """One of two processes putting and getting in one budgeted root.

    Each reads the other's entries, so its hits touch entries the other
    process is evicting.  It ends with the evict ``repro cache evict``
    would make: a process's running byte estimate counts only its own
    writes, so only a rescan after both have written sees them all.
    """
    cache = ArtifactCache(root, max_bytes=_SHARED_BUDGET)
    barrier.wait(30)
    for i in range(rounds):
        key = f"{worker}{i:03d}" + "b" * 60
        put_parts(cache, "detection", key, {"worker": worker, "i": i, "pad": "x" * 200})
        other = f"{1 - worker}{i:03d}" + "b" * 60
        cache.get("detection", other)
    assert cache.stats.evictions > 0
    cache.evict(_SHARED_BUDGET)


class TestTwoProcessRoot:
    def test_shared_root_holds_only_entries_within_budget(self, tmp_path):
        """Two processes put and get in one budgeted root: neither
        raises, and the root is left with stage directories alone and
        its bytes inside the budget."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_sharing_worker, args=(str(tmp_path), w, barrier, 150)
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
        assert {path.name for path in tmp_path.iterdir()} <= {
            "detection",
            "quarantine",
        }
        cache = ArtifactCache(tmp_path, max_bytes=_SHARED_BUDGET)
        assert 0 < cache.total_bytes() <= _SHARED_BUDGET
        for path in (tmp_path / "detection").glob("*.json"):
            assert cache.get("detection", path.stem) is not None


class TestThreadedWrites:
    def test_concurrent_puts_publish_each_entry_under_its_own_key(
        self, tmp_path
    ):
        """A daemon's request threads write beside its run: no two
        threads may share a temp file, or one key would be published
        with another's content."""
        cache = ArtifactCache(tmp_path)
        keys = [[f"{t}{i:03d}" + "c" * 60 for i in range(40)] for t in range(8)]

        def puts(mine):
            for key in mine:
                put_parts(cache, "detection", key, {"key": key, "pad": "x" * 200})

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=puts, args=(k,)) for k in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats.writes == 8 * 40
        assert not list(tmp_path.rglob(".tmp-*"))
        for mine in keys:
            for key in mine:
                assert cache.get("detection", key)["key"] == key


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
        assert put_parts(cache, "analysis", "ab" * 32, {"x": 1}) is False
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
        assert put_parts(cache, "analysis", "cd" * 32, {"x": 1}) is False
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
