"""Persistent content-addressed cache of pipeline artifacts.

Every pipeline stage output (synthesis, detection) is a deterministic
function of three inputs, and the cache key is a digest of exactly
those:

* the **source text** (:func:`source_digest`, its sha256), so a lookup
  needs no parse; any edit to the text, a comment's included, is a
  miss;
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
A pipeline run writes a subject's ``synthesis`` and ``detection``
entries when its unit completes, and a replay reads the detection entry
only: :meth:`ArtifactCache.size` checks the synthesis entry's size
against the one the detection head records, without reading it.

An entry is two canonical JSON documents on two lines, a head and a
body: the head holds what a replay reads
(:func:`repro.narada.serial.synthesis_head`,
:func:`repro.narada.serial.detection_head`) and its ``digest``, the
sha256 of the body, which is the report's canonical bytes
(:func:`repro.narada.serial.report_bytes`).  :meth:`ArtifactCache.get`
parses the head only, and checks the body against that digest.

An entry under a stage or key no run reads (the older
``<stage>/<digest[:2]>/`` fan-out layout, a retired stage, a key of an
older derivation) is never read, but still counts toward the byte
budget; the fan-out layout is evicted before any flat entry.
A budgeted cache evicts least-recently-used entries first, and an
entry's file mtime is its recency: a write publishes a fresh file and
a hit sets the mtime to now, so the root holds nothing but stage
directories and ``quarantine/``.
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

import errno
import hashlib
import itertools
import json
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

from repro._util.errors import ReproError
from repro.lang import ClassTable
from repro.lang.pretty import pretty_program
from repro.narada.faults import FaultInjector
from repro.narada.serial import SERIAL_VERSION, canonical_json

#: Bump to invalidate every cached artifact after a semantic change to
#: any pipeline stage (analysis rules, synthesis, fuzz seed derivation).
CODE_SALT = "narada-pipeline-v8"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Quarantine GC defaults: keep at most this many entries, and none
#: older than this.  Both are per-cache-root, across all stages.
DEFAULT_QUARANTINE_MAX_ENTRIES = 512
DEFAULT_QUARANTINE_MAX_AGE_S = 7 * 24 * 3600.0


class Entry(dict):
    """A cache entry as :meth:`ArtifactCache.get` returns it: its parsed
    head, plus the entry's ``text``, from whose body a replay decodes
    its deferred part (:mod:`repro.narada.serial`)."""

    __slots__ = ("text",)

    def __init__(self, data: dict, text: str) -> None:
        super().__init__(data)
        self.text = text


_DECODER = json.JSONDecoder()


def _parse(raw: bytes, text: str) -> dict:
    """The head of an entry's ``text``, which carries ``digest``, the
    sha256 of the body that must follow it.  The body is hashed in
    ``raw``, the entry's bytes, from its first newline on, where
    :func:`repro.narada.serial.parse_body` reads it.

    Raises:
        ValueError: when the text is no well-framed entry.
    """
    data, end = _DECODER.raw_decode(text)
    if type(data) is not dict:
        raise ValueError("cache entry is not an object")
    digest = data.get("digest")
    if type(digest) is not str:
        raise ValueError("entry head carries no body digest")
    if text[end : end + 1] != "\n":
        raise ValueError("entry head is not followed by its body")
    body = memoryview(raw)[raw.index(b"\n") + 1 :]
    if hashlib.sha256(body).hexdigest() != digest:
        raise ValueError("entry body does not match its head's digest")
    return data


class EntryDecodeError(ReproError):
    """A cache entry that was served as a hit failed to decode later,
    when a reader first touched its deferred part, or a replay's
    synthesis entry was gone by then.  An entry that is there is
    quarantined by then, so the next run recomputes it."""

    def __init__(self, stage: str, key: str, cause: Exception) -> None:
        self.stage = stage
        self.key = key
        self.cause = cause
        super().__init__(
            f"cached {stage} entry {key} failed to decode: {cause!r}; "
            "it is quarantined and the next run recomputes it"
        )


def _scan(directory) -> list[os.DirEntry]:
    """The entries of ``directory``; none when it is gone or unreadable."""
    try:
        with os.scandir(directory) as entries:
            return list(entries)
    except OSError:
        return []


def default_cache_dir() -> pathlib.Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-narada``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-narada"


def table_digest(table: ClassTable) -> str:
    """Digest of the canonical (pretty-printed) program text.

    Takes a parsed table, never source text, so a digest cannot hide a
    parse.  No cache key is derived from it: stage keys hash the source
    text itself (:func:`source_digest`), which needs no parse.
    """
    text = pretty_program(table.program)
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest(text: str) -> str:
    """The hex sha256 of a program's source text, which keys its stage
    artifacts.  A lone surrogate, which JSON can carry to the daemon,
    is hashed as its own code unit rather than refused."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def stage_key(digest: str, stage: str, config: dict) -> str:
    """Content address of one stage artifact for one program, whose
    :func:`source_digest` is ``digest``."""
    payload = {
        "source": digest,
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
        #: disables eviction entirely — worker-process caches never
        #: touch an entry on a hit and the daemon's cache enforces the
        #: budget.
        self.max_bytes = max_bytes
        self.quarantine_max_entries = max(0, quarantine_max_entries)
        self.quarantine_max_age_s = max(0.0, quarantine_max_age_s)
        #: ``root`` as a ``str``: entry paths are built as strings, which
        #: costs a fraction of a ``Path`` join on every ``get`` and ``put``.
        self._dir = os.fspath(self.root)
        #: Temp-file numbers; a temp name also carries the pid and the
        #: writing thread, since a daemon's request threads write too.
        self._tmp_ids = itertools.count(1)
        #: Running estimate of live-entry bytes, seeded by a scan on the
        #: first budgeted ``put``; ``evict`` rescans for exactness.
        self._approx_bytes: int | None = None
        #: Serializes the estimate and ``evict`` across those threads.
        self._budget_lock = threading.Lock()

    def _path(self, stage: str, key: str) -> str:
        return f"{self._dir}{os.sep}{stage}{os.sep}{key}.json"

    # ------------------------------------------------------------------
    # Entry enumeration (live entries only; quarantine lives outside
    # the stage directories).

    def _iter_entries(self):
        """Yield ``(flat, mtime, size, path)`` for every live entry.

        ``flat`` is false for an entry in the old fan-out layout, one
        directory below its stage; ``mtime`` is the entry's recency.
        One ``os.scandir`` per directory and one ``stat`` per entry, in
        directory order: only an over-budget ``evict`` sorts.
        """
        for stage in _scan(self.root):
            if stage.name == "quarantine" or not stage.is_dir():
                continue
            for item in _scan(stage.path):
                if item.is_dir():
                    # The old fan-out layout: <stage>/<digest[:2]>/<key>.json.
                    files = [(False, old) for old in _scan(item.path)]
                else:
                    files = [(True, item)]
                for flat, file in files:
                    if not file.name.endswith(".json"):
                        continue
                    try:
                        stat = file.stat()
                    except OSError:
                        continue
                    yield flat, stat.st_mtime, stat.st_size, file.path

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
                os.unlink(path)
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

    def get(self, stage: str, key: str) -> Entry | None:
        """Load an entry; unreadable/corrupt/stale entries are misses."""
        path = self._path(stage, key)
        try:
            # Unbuffered: ``read`` sizes one bytes object by the file's
            # size, and no 8 KB read buffer is allocated for each entry.
            with open(path, "rb", buffering=0) as file:
                raw = file.read()
            text = raw.decode()
        except OSError:
            self.stats.misses += 1
            return None
        except UnicodeDecodeError as error:
            self.stats.misses += 1
            self.quarantine(stage, key, f"unreadable entry: {error!r}")
            return None
        try:
            data = _parse(raw, text)
        except ValueError as error:
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
        if self.max_bytes is not None:
            try:
                os.utime(path)  # the hit is the entry's recency
            except OSError:
                pass  # evicted meanwhile, or a read-only root
        return Entry(data, text)

    def unused(self) -> None:
        """Count an entry ``get`` returned that the caller did not use
        as a miss, not a hit."""
        self.stats.hits -= 1
        self.stats.misses += 1

    def reject(self, stage: str, key: str, reason: str) -> None:
        """Quarantine an entry ``get`` returned but the caller could not
        use (it parsed, then failed to decode): the hit becomes a miss."""
        self.unused()
        self.quarantine(stage, key, reason)

    def rejecter(self, stage: str, key: str):
        """``on_failure`` for an entry whose decode finishes after the
        hit was served: it rejects the entry and returns the
        :class:`EntryDecodeError` to raise."""

        def failed(error: Exception) -> EntryDecodeError:
            self.reject(stage, key, f"decode failure: {error!r}")
            return EntryDecodeError(stage, key, error)

        return failed

    def size(self, stage: str, key: str) -> int | None:
        """The size in bytes of the entry published under ``key``, or
        None when there is none.  It is not read, so it may yet be a
        quarantined miss.  Under a byte budget, an entry found is used:
        its mtime, its recency, is set to now."""
        path = self._path(stage, key)
        try:
            size = os.stat(path).st_size
        except OSError:
            return None
        if self.max_bytes is not None:
            try:
                os.utime(path)
            except OSError:
                pass  # evicted meanwhile, or a read-only root
        return size

    def put(self, stage: str, key: str, head: dict, body: bytes) -> int:
        """Publish an entry atomically (write temp file, then rename).

        The entry is two documents: ``head``, whose ``digest`` is the
        sha256 of ``body``, and the ``body`` bytes on the next line.
        Returns the entry's size in bytes on success.  Filesystem
        failures (ENOSPC, EIO, a read-only root) are absorbed: the temp
        file is cleaned up, ``stats.write_errors`` ticks, and the caller
        gets ``False`` — a full disk must never take down the request
        that computed the artifact, only skip memoizing it.
        """
        path = self._path(stage, key)
        directory = os.path.dirname(path)
        tmp = (
            f"{directory}{os.sep}.tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{next(self._tmp_ids)}"
        )
        encoded = b"%s\n%s" % (canonical_json(head).encode(), body)
        try:
            injector = self.fault_injector
            if injector is not None and injector.enospc_write(key):
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            try:
                file = open(tmp, "wb")
            except FileNotFoundError:
                # First entry of its stage: make the directory once.
                os.makedirs(directory, exist_ok=True)
                file = open(tmp, "wb")
            with file:
                file.write(encoded)
            os.replace(tmp, path)
        except OSError:
            self.stats.write_errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        injector = self.fault_injector
        if injector is not None and injector.corrupt_write(key):
            # Test-only torn-write simulation: shear the published entry
            # so the next read exercises the quarantine path.
            with open(path, "wb") as file:
                file.write(encoded[: max(1, len(encoded) // 3)])
        if self.max_bytes is not None:
            with self._budget_lock:
                if self._approx_bytes is None:
                    self._approx_bytes = self.total_bytes()
                else:
                    self._approx_bytes += len(encoded)
                over = self._approx_bytes > self.max_bytes
            if over:
                self.evict(self.max_bytes)
        return len(encoded)

    def evict(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until ≤ ``max_bytes`` live.

        Recency is file mtime: ``put`` publishes a fresh file and a
        budgeted ``get`` hit sets it to now.  Entries in the old fan-out
        layout, which no ``get`` reads, go first.  Returns the number of
        entries removed.
        """
        with self._budget_lock:
            entries = list(self._iter_entries())
            total = sum(size for _, _, size, _ in entries)
            removed = 0
            if total > max_bytes:
                entries.sort()  # old layout first, then least recent
                for _, _, size, path in entries:
                    if total <= max_bytes:
                        break
                    try:
                        os.unlink(path)
                    except OSError:
                        continue
                    total -= size
                    removed += 1
                self.stats.evictions += removed
            self._approx_bytes = total
        return removed
