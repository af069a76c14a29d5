"""Persistent content-addressed cache of pipeline artifacts.

Every pipeline stage output (synthesis, detection) is a deterministic
function of three inputs, and the cache key is a digest of exactly
those:

* the **pretty-printed class table** — canonical program text, so
  formatting/comment changes in a source file do not invalidate, while
  any semantic change does;
* the **pipeline config** for the stage (VM seed, fuzz budget, directed
  phase on/off, ...), so e.g. raising ``--runs`` invalidates detection
  but leaves the cached synthesis artifact valid — a rerun skips
  straight to the first invalidated stage;
* a **code version salt** (:data:`CODE_SALT` + the serial format
  version), bumped whenever pipeline semantics or encoding change, so
  artifacts from older code are never reused.

Entries are JSON files under ``<root>/<stage>/<digest>.json``: one flat
directory per stage, created by the first write that finds it missing,
so a new entry costs a temp-file write and a rename, and no directory.
The stages a pipeline run writes are ``synthesis`` and ``detection``,
both when a subject's unit completes; ``repro analyze`` keeps its own
``analysis`` entry.  An entry in the
older ``<stage>/<digest[:2]>/`` fan-out layout is never read, but still
counts toward the byte budget and is evicted before any flat entry.
Writes are crash-safe: content goes to a same-directory temp file first
and is published with ``os.replace`` (atomic on POSIX), so a reader can
never observe a half-written entry.  A corrupted, truncated, or
schema-stale entry (killed writer predating this scheme, disk trouble,
an artifact written by an incompatible serial format) is **quarantined**
— moved to a ``quarantine/<stage>/`` sibling directory next to a
``.reason.txt`` explaining why — and reported as a cache miss, never an
error: the pipeline recomputes and the operator keeps the evidence.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass, field

from repro.lang import ClassTable
from repro.lang.pretty import pretty_program
from repro.narada.faults import FaultInjector
from repro.narada.serial import SERIAL_VERSION, canonical_json

#: Bump to invalidate every cached artifact after a semantic change to
#: any pipeline stage (analysis rules, synthesis, fuzz seed derivation).
CODE_SALT = "narada-pipeline-v7"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Access-time journal filename (lives at the cache root).  One JSON
#: line per touch; torn trailing lines (crashed writer) are skipped.
ATIME_JOURNAL = "atime.journal"

#: ``flock`` target guarding the journal across processes: appends take
#: it shared, compaction exclusive.  A separate file, because compaction
#: replaces the journal's inode.
JOURNAL_LOCK = "atime.journal.lock"

#: Rewrite the journal down to one line per live entry after this many
#: appends; bounds journal growth without an fsync-per-touch cost.
_JOURNAL_COMPACT_EVERY = 2048

#: Quarantine GC defaults: keep at most this many entries, and none
#: older than this.  Both are per-cache-root, across all stages.
DEFAULT_QUARANTINE_MAX_ENTRIES = 512
DEFAULT_QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0


def default_cache_dir() -> pathlib.Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-narada``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-narada"


def table_digest(table: ClassTable) -> str:
    """Digest of the canonical (pretty-printed) program text.

    Takes a parsed table, never source text, so a digest cannot hide a
    parse: callers parse once and reuse the table.
    """
    text = pretty_program(table.program)
    return hashlib.sha256(text.encode()).hexdigest()


def stage_key(table_dig: str, stage: str, config: dict) -> str:
    """Content address of one stage artifact for one program."""
    payload = {
        "table": table_dig,
        "stage": stage,
        "config": config,
        "salt": CODE_SALT,
        "serial_version": SERIAL_VERSION,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    quarantined: int = 0
    #: ``put`` calls that failed at the filesystem (ENOSPC, EIO, ...);
    #: the pipeline result was still returned, only the cache write was
    #: dropped.
    write_errors: int = 0
    #: Quarantined entries removed by GC (age or count cap).
    quarantine_dropped: int = 0


@dataclass
class ArtifactCache:
    """Digest-keyed JSON artifact store with atomic, crash-safe writes."""

    root: pathlib.Path
    stats: CacheStats = field(default_factory=CacheStats)
    _tmp_counter: int = 0

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        fault_injector: FaultInjector | None = None,
        max_bytes: int | None = None,
        quarantine_max_entries: int = DEFAULT_QUARANTINE_MAX_ENTRIES,
        quarantine_max_age_s: float = DEFAULT_QUARANTINE_MAX_AGE_S,
    ) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()
        self.fault_injector = fault_injector
        #: Byte budget for live entries (quarantine excluded); ``None``
        #: disables eviction entirely — worker-process caches stay
        #: journal-free and the daemon's cache enforces the budget.
        self.max_bytes = max_bytes
        self.quarantine_max_entries = max(0, quarantine_max_entries)
        self.quarantine_max_age_s = max(0.0, quarantine_max_age_s)
        self._tmp_counter = 0
        self._journal_appends = 0
        #: Running estimate of live-entry bytes, seeded by a scan on the
        #: first budgeted ``put``; ``evict`` rescans for exactness.
        self._approx_bytes: int | None = None

    def _path(self, stage: str, key: str) -> pathlib.Path:
        return self.root / stage / f"{key}.json"

    # ------------------------------------------------------------------
    # Entry enumeration (live entries only; quarantine and the journal
    # live outside the stage directories).

    def _iter_entries(self):
        """Yield ``(rel_key, path, size, mtime)`` for every live entry.

        ``rel_key`` is the entry's path below the root without its
        suffix: ``<stage>/<digest>`` for a flat entry, and one more
        component for an entry in the old fan-out layout.
        """
        if not self.root.exists():
            return
        for stage_dir in sorted(self.root.iterdir()):
            if not stage_dir.is_dir() or stage_dir.name == "quarantine":
                continue
            for path in sorted(stage_dir.rglob("*.json")):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                rel = path.relative_to(self.root).with_suffix("").as_posix()
                yield rel, path, stat.st_size, stat.st_mtime

    def total_bytes(self) -> int:
        """Exact byte total of live entries (rescans the tree)."""
        return sum(size for _, _, size, _ in self._iter_entries())

    def entry_count(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def quarantine_count(self) -> int:
        qroot = self.root / "quarantine"
        if not qroot.exists():
            return 0
        return sum(1 for _ in qroot.glob("*/*.json"))

    # ------------------------------------------------------------------
    # Access-time journal.  Appends are O(1); readers tolerate torn
    # trailing lines, so a writer killed mid-append costs at most one
    # recency observation (the entry falls back to file mtime).

    @property
    def _journal_path(self) -> pathlib.Path:
        return self.root / ATIME_JOURNAL

    @contextlib.contextmanager
    def _journal_lock(self, mode: int):
        """Hold ``flock(mode)`` on the journal lock file.

        Without it, a compaction in one process drops every line another
        process appends between the compaction's read and its
        ``os.replace``.
        """
        with open(self.root / JOURNAL_LOCK, "a") as handle:
            fcntl.flock(handle, mode)
            yield

    def _touch(self, rel_key: str) -> None:
        if self.max_bytes is None:
            return
        line = json.dumps({"k": rel_key, "t": round(time.time(), 3)})
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with self._journal_lock(fcntl.LOCK_SH):
                with open(self._journal_path, "a") as handle:
                    handle.write(line + "\n")
        except OSError:
            return  # recency tracking is best-effort
        self._journal_appends += 1
        if self._journal_appends >= _JOURNAL_COMPACT_EVERY:
            self._compact_journal()

    def _load_atimes(self) -> dict[str, float]:
        """Latest journalled access time per entry; torn lines skipped."""
        atimes: dict[str, float] = {}
        try:
            text = self._journal_path.read_text()
        except OSError:
            return atimes
        for line in text.splitlines():
            try:
                record = json.loads(line)
                atimes[record["k"]] = float(record["t"])
            except (ValueError, KeyError, TypeError):
                continue  # torn or garbled line: at worst a stale atime
        return atimes

    def _compact_journal(self) -> None:
        """Rewrite the journal to one line per live entry, atomically."""
        tmp = self.root / f".{ATIME_JOURNAL}.tmp-{os.getpid()}"
        try:
            with self._journal_lock(fcntl.LOCK_EX):
                atimes = self._load_atimes()
                live = {rel for rel, _, _, _ in self._iter_entries()}
                lines = [
                    json.dumps({"k": rel, "t": stamp})
                    for rel, stamp in sorted(atimes.items())
                    if rel in live
                ]
                tmp.write_text("".join(line + "\n" for line in lines))
                os.replace(tmp, self._journal_path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
        self._journal_appends = 0

    def quarantine(self, stage: str, key: str, reason: str) -> None:
        """Move a bad entry to ``quarantine/<stage>/`` with a reason file.

        Quarantined entries are out of the lookup path (the next ``get``
        is a clean miss) but preserved for post-mortem instead of being
        destroyed; the eviction counter still ticks so existing health
        checks keep working.
        """
        path = self._path(stage, key)
        qdir = self.root / "quarantine" / stage
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{key}.json")
            (qdir / f"{key}.reason.txt").write_text(reason + "\n")
        except OSError:
            # Quarantine is best-effort; fall back to plain eviction so
            # a poisoned entry can never be served again.
            try:
                path.unlink()
            except OSError:
                return
        self.stats.evictions += 1
        self.stats.quarantined += 1
        self.gc_quarantine()

    def gc_quarantine(self) -> int:
        """Drop quarantined entries past the age or count cap.

        Oldest-first by mtime; each dropped entry takes its
        ``.reason.txt`` with it.  Returns the number of entries removed
        (also tracked in ``stats.quarantine_dropped``).
        """
        qroot = self.root / "quarantine"
        if not qroot.exists():
            return 0
        entries: list[tuple[float, pathlib.Path]] = []
        for path in qroot.glob("*/*.json"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort()
        cutoff = time.time() - self.quarantine_max_age_s
        doomed = [p for mtime, p in entries if mtime < cutoff]
        survivors = len(entries) - len(doomed)
        if survivors > self.quarantine_max_entries:
            fresh = [p for mtime, p in entries if mtime >= cutoff]
            doomed.extend(fresh[: survivors - self.quarantine_max_entries])
        dropped = 0
        for path in doomed:
            try:
                path.unlink()
                dropped += 1
            except OSError:
                continue
            try:
                path.with_name(f"{path.stem}.reason.txt").unlink()
            except OSError:
                pass
        self.stats.quarantine_dropped += dropped
        return dropped

    def get(self, stage: str, key: str) -> dict | None:
        """Load an entry; unreadable/corrupt/stale entries are misses."""
        path = self._path(stage, key)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        except UnicodeDecodeError as error:
            self.stats.misses += 1
            self.quarantine(stage, key, f"unreadable entry: {error!r}")
            return None
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not an object")
        except (ValueError, UnicodeDecodeError) as error:
            # Truncated or garbled entry: quarantine and report a miss
            # so the pipeline recomputes instead of crashing.
            self.stats.misses += 1
            self.quarantine(stage, key, f"unreadable entry: {error!r}")
            return None
        version = data.get("version")
        if version is not None and version != SERIAL_VERSION:
            self.stats.misses += 1
            self.quarantine(
                stage,
                key,
                f"schema-stale entry: version {version!r} != "
                f"serial version {SERIAL_VERSION}",
            )
            return None
        self.stats.hits += 1
        self._touch(f"{stage}/{key}")
        return data

    def reject(self, stage: str, key: str, reason: str) -> None:
        """Quarantine an entry ``get`` returned but the caller could not
        use (it parsed, then failed to decode): the hit becomes a miss."""
        self.stats.hits -= 1
        self.stats.misses += 1
        self.quarantine(stage, key, reason)

    def put(self, stage: str, key: str, data: dict) -> bool:
        """Publish an entry atomically (write temp file, then rename).

        Returns ``True`` on success.  Filesystem failures (ENOSPC, EIO,
        a read-only root) are absorbed: the temp file is cleaned up,
        ``stats.write_errors`` ticks, and the caller gets ``False`` —
        a full disk must never take down the request that computed the
        artifact, only skip memoizing it.
        """
        path = self._path(stage, key)
        self._tmp_counter += 1
        tmp = path.parent / f".tmp-{os.getpid()}-{self._tmp_counter}"
        text = canonical_json(data)
        try:
            injector = self.fault_injector
            if injector is not None and injector.enospc_write(key):
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            try:
                tmp.write_text(text)
            except FileNotFoundError:
                # First entry of its stage: make the directory once.
                tmp.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(text)
            os.replace(tmp, path)
        except OSError:
            self.stats.write_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        self.stats.writes += 1
        self._touch(f"{stage}/{key}")
        injector = self.fault_injector
        if injector is not None and injector.corrupt_write(key):
            # Test-only torn-write simulation: shear the published entry
            # so the next read exercises the quarantine path.
            text = path.read_text()
            path.write_text(text[: max(1, len(text) // 3)])
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(text)
            if self._approx_bytes > self.max_bytes:
                self.evict(self.max_bytes)
        return True

    def evict(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until ≤ ``max_bytes`` live.

        Recency is the journalled access time where one exists, file
        mtime otherwise (fresh cache, torn journal line, or an entry
        written by an unbudgeted worker cache sharing the root).
        Entries in the old fan-out layout, which no ``get`` reads, go
        first.  Returns the number of entries removed.
        """
        entries = list(self._iter_entries())
        total = sum(size for _, _, size, _ in entries)
        removed = 0
        if total > max_bytes:
            atimes = self._load_atimes()
            entries.sort(
                key=lambda e: (e[0].count("/") == 1, atimes.get(e[0], e[3]))
            )
            for _, path, size, _ in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= size
                removed += 1
            self.stats.evictions += removed
            self._compact_journal()
        self._approx_bytes = total
        return removed

    def clear(self) -> None:
        """Remove every entry (directories are left in place)."""
        if not self.root.exists():
            return
        for path in sorted(self.root.rglob("*.json")):
            try:
                path.unlink()
            except OSError:
                pass
