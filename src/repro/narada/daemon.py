"""Long-running pipeline service: ``repro serve`` and ``repro client``.

The batched pool (:mod:`repro.narada.faults`) makes one *run* cheap by
amortizing worker spawns and pipe round-trips inside it; this module
amortizes them across runs.  A daemon owns exactly one warm
:class:`FaultTolerantPool` plus the in-process memo caches (parsed
class tables in the workers, class names by source digest) and the
persistent artifact cache,
and serves ``detect`` / ``synthesize`` / ``corpus`` requests from many
concurrent clients over a unix or TCP socket — the pipeline as a
service instead of a one-shot CLI process.

Protocol
--------
Length-prefixed JSON: each frame is a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON.  Requests are objects with
an ``op`` key (``ping`` / ``stats`` / ``synthesize`` / ``detect`` /
``corpus`` / ``shutdown``) and the fields that op reads
(:data:`_OP_FIELDS`); responses always carry ``ok`` plus either the
op's result or ``error``.  Every refusal also carries an
``error_code``: ``bad_request`` for a request that fails validation or
names a field its op does not read,
``internal`` for an unexpected failure while running it, and the shed
and protocol codes of :data:`repro.narada.serial.ERROR_CODES`.  A
connection may issue any number of requests back-to-back (the
benchmark client does); the stock CLI client sends one per connection.

Semantics
---------
* **Determinism** — requests run through the ordinary
  :class:`PipelineOrchestrator` with a per-request config, so a
  ``detect`` response's digests are byte-identical to the same workload
  run via ``repro run``/``repro corpus run`` directly: work units are
  pure functions of content, and neither the shared pool, the shared
  caches, nor request interleaving can reach them.
* **Isolation** — each request gets its own orchestrator and its own
  :class:`FaultLedger` (returned in the response and retained in the
  daemon's per-request run log); only the warm pool and caches are
  shared, and pipeline execution is serialized on an internal lock so
  concurrent clients queue rather than interleave half-runs.
* **Graceful drain** — SIGTERM/SIGINT stop the accept loop, let every
  in-flight request finish and send its response, then close the pool
  and unlink the socket.  Clients reconnect after a restart; the warm
  disk cache makes the replay cheap.
"""

from __future__ import annotations

import json
import os
import pathlib
import reprlib
import socket
import struct
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.narada.cache import ArtifactCache, default_cache_dir
from repro.narada.faults import (
    DEFAULT_REBUILD_AFTER_DEATHS,
    CancelToken,
    FaultLedger,
    FaultTolerantPool,
    RunCancelled,
)
from repro.narada.orchestrator import (
    PipelineConfig,
    PipelineOrchestrator,
    ProgramSource,
    SubjectSpec,
    spec_keys,
    subject_specs,
)
from repro.narada.serial import encode_error_frame, encode_fault_ledger

#: Wire protocol version, echoed by ``ping`` so mismatched clients can
#: fail with a message instead of a decode error.
PROTOCOL_VERSION = 1

#: Upper bound on a single frame; anything larger is a protocol error
#: (a corrupt length prefix would otherwise ask for gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Environment variable naming the default daemon socket path.
DAEMON_SOCKET_ENV = "REPRO_DAEMON_SOCKET"

#: How often an idle connection handler wakes to check for drain.
_IDLE_POLL_SECONDS = 0.5

#: Default per-frame recv deadline: once a frame's first byte arrives,
#: the rest must land within this window or the connection is torn down
#: (the slow-loris defence — a partial length prefix cannot pin a
#: handler thread).
DEFAULT_RECV_TIMEOUT_S = 30.0

#: Default bound on requests queued for the run lock; beyond it, new
#: pipeline requests are shed with a structured ``busy`` frame.
DEFAULT_MAX_QUEUE_DEPTH = 8

#: Most distinct sources whose class names one daemon remembers.  An
#: entry is a 64-character key and a tuple of class names (about 0.5 KB
#: with the dict's overhead), so a full memo is about half a megabyte;
#: 1024 covers serve-mixed's 520 distinct sources.
SOURCE_MEMO_SIZE = 1024

#: Most random schedules per test (``runs``) a request may ask for, and
#: most subjects a ``corpus`` request may generate (``count``).  Larger
#: values are refused with ``bad_request`` before admission, so one
#: request's work is bounded.  Both sit far above what the tests, CI
#: and benchmarks send: ``runs`` of at most 8, ``count`` of at most 100.
MAX_RUNS = 1_000
MAX_CORPUS_COUNT = 10_000


class ProtocolError(Exception):
    """Malformed frame or oversized payload on the wire."""


class BadRequest(Exception):
    """A request refused while validating it, before anything ran."""


class _ClassNames:
    """The class names of sources this daemon parsed, by source digest,
    least recent first and at most :data:`SOURCE_MEMO_SIZE` of them.
    Connection threads validate requests concurrently, so every access
    holds the lock."""

    def __init__(self) -> None:
        self._names: OrderedDict[str, tuple[str, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, digest: str) -> tuple[str, ...] | None:
        with self._lock:
            names = self._names.get(digest)
            if names is not None:
                self._names.move_to_end(digest)
            return names

    def put(self, digest: str, names: tuple[str, ...]) -> tuple[str, ...]:
        with self._lock:
            self._names[digest] = names
            if len(self._names) > SOURCE_MEMO_SIZE:
                self._names.popitem(last=False)
        return names


@contextmanager
def _validating():
    """Re-raise any error as :class:`BadRequest`, keeping its repr."""
    try:
        yield
    except Exception as error:
        raise BadRequest(repr(error)) from error


def _is_int(value, least: int | None = None) -> bool:
    """An ``int`` that is not a ``bool``, and at least ``least`` if given."""
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and (least is None or value >= least)
    )


#: The per-request pipeline parameters: (request key, config field,
#: check, what the check accepts).  ``runs`` sets ``random_runs``, the
#: random schedules per test, under the name the CLI flag has.
_CONFIG_FIELDS = (
    ("vm_seed", "vm_seed", _is_int, "an integer"),
    (
        "runs",
        "random_runs",
        lambda v: _is_int(v, 0) and v <= MAX_RUNS,
        f"an integer from 0 to {MAX_RUNS}",
    ),
    ("directed", "directed", lambda v: isinstance(v, bool), "a boolean"),
)

_CONFIG_KEYS = tuple(key for key, _, _, _ in _CONFIG_FIELDS)

_PIPELINE_FIELDS = frozenset(
    {"source", "target_class", "name", "subjects", "deadline_s", *_CONFIG_KEYS}
)

#: The fields each op reads besides ``op``.  A request naming any
#: other field is refused with ``bad_request``: a client that sends a
#: field the daemon does not read learns so instead of being ignored.
_OP_FIELDS = {
    "ping": frozenset(),
    "stats": frozenset(),
    "shutdown": frozenset(),
    "sleep": frozenset({"seconds", "deadline_s"}),
    "synthesize": _PIPELINE_FIELDS,
    "detect": _PIPELINE_FIELDS,
    "corpus": frozenset({"seed", "count", "templates", "deadline_s", *_CONFIG_KEYS}),
}


def _checked(key: str, value, check, wants: str):
    """``value``, or a ValueError naming what ``key`` accepts."""
    if not check(value):
        raise ValueError(f"{key!r} must be {wants}, not {reprlib.repr(value)}")
    return value


def _seconds(key: str, value):
    """``value`` if it is a number of seconds, not a ``bool``, from 0 to
    the longest timeout a lock takes (``threading.TIMEOUT_MAX``), which
    NaN and infinity are not; else a ValueError naming ``key``."""
    return _checked(
        key,
        value,
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and 0 <= v <= threading.TIMEOUT_MAX,
        f"a number of seconds from 0 to {threading.TIMEOUT_MAX:.0f}",
    )


def default_socket_path() -> str:
    """``$REPRO_DAEMON_SOCKET`` or ``<cache root>/daemon.sock``."""
    env = os.environ.get(DAEMON_SOCKET_ENV)
    if env:
        return env
    return str(default_cache_dir() / "daemon.sock")


# ----------------------------------------------------------------------
# Framing.


def send_frame(sock: socket.socket, payload: dict) -> None:
    data = json.dumps(payload, separators=(",", ":")).encode()
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large ({len(data)} bytes)")
    sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(
    sock: socket.socket,
    count: int,
    deadline: float | None = None,
    started: bool = False,
) -> bytes | None:
    """Read exactly ``count`` bytes; None on clean EOF at a boundary.

    A ``socket.timeout`` before the first byte of a *frame* propagates
    (the caller's idle/drain poll).  Once a frame has started
    (``started`` — bytes arrived in an earlier call — or bytes arrived
    here), timeouts keep polling; with a ``deadline`` (monotonic clock)
    armed, breaching it raises :class:`ProtocolError` instead, so a
    sender dribbling one byte per minute cannot pin a handler thread.
    Deadline enforcement requires a socket timeout shorter than the
    deadline (the daemon polls at ``_IDLE_POLL_SECONDS``).
    """
    chunks = b""
    while len(chunks) < count:
        if deadline is not None and time.monotonic() >= deadline:
            raise ProtocolError(
                f"recv deadline exceeded mid-frame "
                f"({len(chunks)}/{count} bytes)"
            )
        try:
            chunk = sock.recv(count - len(chunks))
        except socket.timeout:
            if not chunks and not started and deadline is None:
                raise
            continue
        if not chunk:
            if chunks or started:
                raise ProtocolError("connection closed mid-frame")
            return None
        chunks += chunk
    return chunks


def recv_frame(
    sock: socket.socket, recv_timeout: float | None = None
) -> dict | None:
    """Read one frame; None on clean EOF before a frame starts.

    ``recv_timeout`` bounds the wall-clock spent receiving one frame,
    measured from its first byte — waiting for a frame to *start* is
    unbounded (that is the idle path; the daemon polls drain there).
    """
    first = _recv_exact(sock, 1)  # idle wait: socket.timeout propagates
    if first is None:
        return None
    deadline = (
        None if recv_timeout is None else time.monotonic() + recv_timeout
    )
    rest = _recv_exact(sock, 3, deadline, started=True)
    (length,) = struct.unpack(">I", first + rest)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds limit")
    body = b"" if length == 0 else _recv_exact(sock, length, deadline, started=True)
    try:
        payload = json.loads(body)
    except ValueError as error:
        raise ProtocolError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload is not an object")
    return payload


def parse_tcp(spec: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (the ``--tcp`` flag)."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"bad --tcp address {spec!r}; expected HOST:PORT")
    return host, int(port)


# ----------------------------------------------------------------------
# The daemon.


@dataclass
class RequestRecord:
    """Per-request run ledger entry kept by the daemon."""

    request_id: str
    op: str
    elapsed_s: float
    ok: bool
    ledger: dict | None = None

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "op": self.op,
            "elapsed_s": round(self.elapsed_s, 4),
            "ok": self.ok,
            "ledger": self.ledger,
        }


@dataclass
class DaemonStats:
    """Service-level counters, separate from any one request's ledger."""

    requests: int = 0
    errors: int = 0
    connections: int = 0
    #: Framing violations (torn frame, oversize length, undecodable
    #: JSON, recv-deadline breach); each one tears down its connection.
    protocol_errors: int = 0
    records: list[RequestRecord] = field(default_factory=list)

    #: Bound on retained per-request records (oldest dropped first).
    MAX_RECORDS = 256

    def record(self, rec: RequestRecord) -> None:
        self.records.append(rec)
        if len(self.records) > self.MAX_RECORDS:
            del self.records[: len(self.records) - self.MAX_RECORDS]


class AdmissionController:
    """Bounded wait-queue for the run lock, with retry-after estimation.

    Pipeline ops are serialized on the daemon's run lock; without a
    bound, a burst of clients each parks a handler thread on the lock
    forever.  This tracks how many requests are active-or-waiting and
    sheds beyond ``max_queue_depth`` with a ``busy`` frame carrying a
    retry hint derived from an EMA of recent run durations — the
    client's expected wait if it came back when a slot frees up.
    """

    def __init__(self, max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH) -> None:
        self.max_queue_depth = max(1, max_queue_depth)
        self._lock = threading.Lock()
        self.occupancy = 0  # requests holding or waiting on the run lock
        self.admitted = 0
        self.shed_busy = 0
        self.shed_overloaded = 0
        self.shed_draining = 0
        self.deadlines_exceeded = 0
        self.run_seconds_ema = 0.0

    def try_enter(self) -> bool:
        """Claim a queue slot; False (and a ``shed_busy`` tick) if full."""
        with self._lock:
            if self.occupancy >= self.max_queue_depth:
                self.shed_busy += 1
                return False
            self.occupancy += 1
            self.admitted += 1
            return True

    def leave(self) -> None:
        with self._lock:
            self.occupancy = max(0, self.occupancy - 1)

    def note_run_seconds(self, seconds: float) -> None:
        with self._lock:
            if self.run_seconds_ema == 0.0:
                self.run_seconds_ema = seconds
            else:
                self.run_seconds_ema += 0.3 * (seconds - self.run_seconds_ema)

    def retry_after(self) -> float:
        """Expected wait for a retrying client: queue depth × run EMA."""
        with self._lock:
            ema = self.run_seconds_ema or 0.1
            return max(0.05, self.occupancy * ema)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "max_queue_depth": self.max_queue_depth,
                "occupancy": self.occupancy,
                "admitted": self.admitted,
                "shed_busy": self.shed_busy,
                "shed_overloaded": self.shed_overloaded,
                "shed_draining": self.shed_draining,
                "deadlines_exceeded": self.deadlines_exceeded,
                "run_seconds_ema": round(self.run_seconds_ema, 4),
            }


def _rss_mb(pid: int) -> float:
    """Resident set size of ``pid`` in MB via ``/proc`` (0.0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


class ResourceGovernor:
    """RSS watchdog: shed work and recycle the pool above a memory budget.

    A background thread samples the daemon process's RSS plus every live
    pool worker's.  Above ``budget_mb`` it flips :attr:`shedding` (new
    pipeline requests get ``overloaded`` frames) and marks the pool for
    recycling (workers — the usual leak site for per-process memo caches
    — are discarded at the next safe point, i.e. under the run lock);
    below ~90% of budget it resumes admission.  The hysteresis stops it
    flapping at the boundary.
    """

    #: Resume admitting once RSS falls below this fraction of budget.
    RESUME_FRACTION = 0.9

    def __init__(
        self,
        budget_mb: float,
        poll_interval_s: float = 2.0,
    ) -> None:
        self.budget_mb = float(budget_mb)
        self.poll_interval_s = poll_interval_s
        self.shedding = False
        self.recycle_pending = False
        self.sheds = 0
        self.recycles = 0
        self.last_rss_mb = 0.0
        self._worker_pids = lambda: []  # wired by the daemon
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample_rss_mb(self) -> float:
        total = _rss_mb(os.getpid())
        for pid in self._worker_pids():
            total += _rss_mb(pid)
        return total

    def poll_once(self) -> None:
        """One watchdog tick (exposed for deterministic tests/benches)."""
        rss = self.sample_rss_mb()
        self.last_rss_mb = rss
        if rss > self.budget_mb:
            if not self.shedding:
                self.sheds += 1
            self.shedding = True
            self.recycle_pending = True
        elif rss < self.RESUME_FRACTION * self.budget_mb:
            self.shedding = False

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-governor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            self.poll_once()

    def to_dict(self) -> dict:
        return {
            "budget_mb": self.budget_mb,
            "last_rss_mb": round(self.last_rss_mb, 1),
            "shedding": self.shedding,
            "recycle_pending": self.recycle_pending,
            "sheds": self.sheds,
            "recycles": self.recycles,
        }


class ReproDaemon:
    """One warm pool + caches behind a unix/TCP socket.

    Construct, then either drive :meth:`serve_forever` from a CLI entry
    (which installs signal handlers) or call :meth:`bind` /
    :meth:`serve_forever` / :meth:`initiate_drain` directly from tests.
    """

    def __init__(
        self,
        socket_path: str | None = None,
        tcp: tuple[str, int] | None = None,
        jobs: int = 2,
        cache: ArtifactCache | None = None,
        base_config: PipelineConfig | None = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        default_deadline_s: float | None = None,
        recv_timeout_s: float | None = DEFAULT_RECV_TIMEOUT_S,
        memory_budget_mb: float | None = None,
        max_consecutive_worker_deaths: int = DEFAULT_REBUILD_AFTER_DEATHS,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValueError("exactly one of socket_path / tcp is required")
        self.socket_path = socket_path
        self.tcp = tcp
        self.jobs = max(1, jobs)
        self.cache = cache
        self.base_config = (
            base_config if base_config is not None else PipelineConfig()
        )
        self.default_deadline_s = default_deadline_s
        self.recv_timeout_s = recv_timeout_s
        self.max_consecutive_worker_deaths = max(
            1, max_consecutive_worker_deaths
        )
        self.stats = DaemonStats()
        self.admission = AdmissionController(max_queue_depth)
        self.governor: ResourceGovernor | None = None
        if memory_budget_mb is not None:
            self.governor = ResourceGovernor(memory_budget_mb)
            self.governor._worker_pids = self._worker_pids
        self._class_names = _ClassNames()
        self._pool: FaultTolerantPool | None = None
        self._listener: socket.socket | None = None
        self._run_lock = threading.Lock()  # serializes pipeline execution
        self._state_lock = threading.Lock()  # guards stats + request ids
        self._draining = threading.Event()
        self._threads: list[threading.Thread] = []
        self._started = time.monotonic()
        self._request_counter = 0
        self._bound_address: str | None = None

    def _worker_pids(self) -> list[int]:
        pool = self._pool
        if pool is None:
            return []
        return [
            w.process.pid
            for w in list(pool._workers)
            if w.process.pid is not None
        ]

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> str:
        """Human-readable bound address (for the startup banner)."""
        return self._bound_address or "<unbound>"

    def bind(self) -> None:
        if self.tcp is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.tcp)
            self._bound_address = "%s:%d" % listener.getsockname()[:2]
        else:
            path = pathlib.Path(self.socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                path.unlink()  # stale socket from a dead daemon
            except OSError:
                pass
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(path))
            self._bound_address = str(path)
        listener.listen(16)
        # A bounded accept() lets the loop notice a drain requested from a
        # handler thread (closing the fd does not wake a blocked accept).
        listener.settimeout(0.5)
        self._listener = listener

    def _shared_pool(self) -> FaultTolerantPool | None:
        """The warm pool every request's orchestrator dispatches on."""
        if self.jobs <= 1:
            return None  # inline mode: no pool, no pickling
        if self._pool is None:
            self._pool = FaultTolerantPool(
                self.jobs,
                self.base_config.retry_policy(),
                FaultLedger(),
                rebuild_after_deaths=self.max_consecutive_worker_deaths,
            )
        return self._pool

    def serve_forever(self) -> None:
        """Accept loop; returns after :meth:`initiate_drain` completes.

        Each connection is handled on its own thread; pipeline work is
        serialized on the run lock, so concurrent clients queue for the
        warm pool rather than fighting over it.
        """
        if self._listener is None:
            self.bind()
        if self.governor is not None:
            self.governor.start()
        while not self._draining.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue  # re-check the drain flag
            except OSError:
                break  # listener closed by initiate_drain
            with self._state_lock:
                self.stats.connections += 1
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            # Prune finished handlers so a long-lived daemon's thread
            # list doesn't grow one entry per connection ever served.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        # Drain: every in-flight request finishes and answers.
        for thread in self._threads:
            thread.join()
        self.close()

    def initiate_drain(self) -> None:
        """Stop accepting; let in-flight requests finish (signal-safe)."""
        self._draining.set()
        listener = self._listener
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass

    def close(self) -> None:
        self.initiate_drain()
        if self.governor is not None:
            self.governor.stop()
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._listener = None
        if self.socket_path is not None:
            try:
                pathlib.Path(self.socket_path).unlink()
            except OSError:
                pass

    # -- connection handling -------------------------------------------

    def _handle_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(_IDLE_POLL_SECONDS)
            while True:
                try:
                    request = recv_frame(conn, self.recv_timeout_s)
                except socket.timeout:
                    if self._draining.is_set():
                        break
                    continue
                except OSError:
                    break  # the peer reset or vanished: nothing to answer
                except ProtocolError as error:
                    # The stream is desynced; answer with a structured
                    # error frame (best-effort — the peer may be the
                    # problem) and tear the connection down.
                    with self._state_lock:
                        self.stats.protocol_errors += 1
                    try:
                        send_frame(
                            conn, encode_error_frame("protocol", str(error))
                        )
                    except OSError:
                        pass
                    break
                if request is None:
                    break  # client closed cleanly
                response = self.handle_request(request)
                # A response send gets the same wall-clock bound as a
                # frame recv: a stalled client must not pin the handler.
                try:
                    conn.settimeout(self.recv_timeout_s)
                    send_frame(conn, response)
                    conn.settimeout(_IDLE_POLL_SECONDS)
                except OSError:
                    break
                if response.get("op") == "shutdown" or self._draining.is_set():
                    break

    def handle_request(self, request: dict) -> dict:
        """Execute one request object; always returns a response dict."""
        op = request.get("op")
        with self._state_lock:
            self._request_counter += 1
            request_id = f"r{self._request_counter:06d}"
            self.stats.requests += 1
        started = time.monotonic()
        fields = _OP_FIELDS.get(op) if isinstance(op, str) else None
        if fields is None:
            response = encode_error_frame("bad_request", f"unknown op {op!r}")
            response["ops"] = sorted(_OP_FIELDS)
        else:
            try:
                unknown = sorted(request.keys() - fields - {"op"})
                if unknown:
                    raise BadRequest(
                        f"unknown field(s) {unknown} for op {op!r}; "
                        f"it reads {sorted(fields)}"
                    )
                response = getattr(self, f"_op_{op}")(request)
            except Exception as error:  # noqa: BLE001 — reported to client
                with self._state_lock:
                    self.stats.errors += 1
                if isinstance(error, BadRequest):
                    response = encode_error_frame("bad_request", str(error))
                else:
                    response = encode_error_frame("internal", repr(error))
        elapsed = time.monotonic() - started
        response.setdefault("ok", True)
        response["op"] = op
        response["request_id"] = request_id
        response["elapsed_s"] = round(elapsed, 4)
        with self._state_lock:
            self.stats.record(
                RequestRecord(
                    request_id=request_id,
                    op=op if isinstance(op, str) else repr(op),
                    elapsed_s=elapsed,
                    ok=bool(response.get("ok")),
                    ledger=response.get("ledger"),
                )
            )
        return response

    # -- per-request pipeline plumbing ---------------------------------

    def _request_config(self, request: dict) -> PipelineConfig:
        """The per-request pipeline config over the daemon's base.

        Only deterministic pipeline parameters are per-request; the
        fault policy belongs to the daemon operator.  A value of the
        wrong type or range raises, so the request is refused before it
        is admitted.
        """
        base = self.base_config.to_dict()
        for key, field_name, check, wants in _CONFIG_FIELDS:
            if key in request:
                base[field_name] = _checked(key, request[key], check, wants)
        return PipelineConfig.from_dict(base)

    def _specs_from(
        self, request: dict, config: PipelineConfig
    ) -> list[SubjectSpec]:
        if "source" in request:
            source = request["source"]
            if not isinstance(source, str):
                raise TypeError(
                    f"'source' must be a string, not {type(source).__name__}"
                )
            program = ProgramSource(source)
            target = request.get("target_class")
            # A source that does not parse fails here, as a bad request.
            # The parse is skipped for a source this daemon parsed, and
            # for a named class whose synthesis the cache holds under
            # this config: only a run that parsed this text writes one.
            names = self._class_names.get(program.digest)
            if names is None and not (
                target is not None
                and self.cache is not None
                and self.cache.has(
                    "synthesis", spec_keys(program.digest, target, config)[0]
                )
            ):
                names = self._class_names.put(
                    program.digest, tuple(program.table.class_names())
                )
            if target is None:
                if len(names) != 1:
                    raise ValueError(
                        f"target_class needed; source defines {list(names)}"
                    )
                target = names[0]
            return [
                SubjectSpec(
                    name=request.get("name", target),
                    source=source,
                    target_class=target,
                    program=program,
                )
            ]
        keys = request.get("subjects")
        if not keys:
            raise ValueError("request needs 'subjects' or 'source'")
        from repro.subjects import all_subjects, get_subject

        if keys == "all" or keys == ["all"]:
            return subject_specs(all_subjects())
        return subject_specs([get_subject(k) for k in keys])

    def _with_admission(self, request: dict, body) -> dict:
        """Admission-control a pipeline op; ``body(token)`` runs locked.

        The shed ladder, in order: ``draining`` (daemon is shutting
        down), ``overloaded`` (RSS governor above budget), ``busy``
        (admission queue full), ``deadline_exceeded`` (deadline expired
        while queued, or the run was cancelled at a unit boundary).
        Every rung answers with a structured error frame; only an
        admitted request ever touches the run lock or the pool.
        """
        if self._draining.is_set():
            self.admission.shed_draining += 1
            return encode_error_frame(
                "draining", "daemon is draining; retry after restart"
            )
        governor = self.governor
        if governor is not None and governor.shedding:
            self.admission.shed_overloaded += 1
            return encode_error_frame(
                "overloaded",
                f"memory budget exceeded (rss {governor.last_rss_mb:.0f}MB"
                f" > budget {governor.budget_mb:.0f}MB)",
                retry_after_s=self.admission.retry_after(),
            )
        deadline_s = self.default_deadline_s
        if "deadline_s" in request:
            with _validating():
                deadline_s = _seconds("deadline_s", request["deadline_s"])
        token = CancelToken.after(deadline_s)
        if not self.admission.try_enter():
            return encode_error_frame(
                "busy",
                f"admission queue full "
                f"(depth {self.admission.max_queue_depth})",
                retry_after_s=self.admission.retry_after(),
            )
        try:
            remaining = token.remaining()
            acquired = (
                self._run_lock.acquire()
                if remaining is None
                else self._run_lock.acquire(timeout=remaining)
            )
            if not acquired:
                self.admission.deadlines_exceeded += 1
                return encode_error_frame(
                    "deadline_exceeded",
                    "deadline expired while queued for the run lock",
                    retry_after_s=self.admission.retry_after(),
                )
            started = time.monotonic()
            try:
                return body(token)
            finally:
                self.admission.note_run_seconds(time.monotonic() - started)
                self._post_run_maintenance()
                self._run_lock.release()
        except RunCancelled as cancelled:
            self.admission.deadlines_exceeded += 1
            return encode_error_frame(
                "deadline_exceeded", f"run cancelled: {cancelled}"
            )
        finally:
            self.admission.leave()

    def _post_run_maintenance(self) -> None:
        """Housekeeping at the only safe point: run lock held, pool idle.

        A budgeted cache is brought back within its budget by a rescan
        of the root, which also counts what other processes sharing it
        wrote since: a ``put`` checks only this process's own estimate.
        """
        if self.cache is not None and self.cache.max_bytes is not None:
            self.cache.evict(self.cache.max_bytes)
        governor = self.governor
        pool = self._pool
        if governor is not None and governor.recycle_pending:
            if pool is not None:
                for worker in list(pool._workers):
                    pool._discard_worker(worker)
            governor.recycle_pending = False
            governor.recycles += 1

    def _run_pipeline(
        self,
        specs: list[SubjectSpec],
        config: PipelineConfig,
        detect: bool,
        token: CancelToken | None = None,
    ):
        """One pipeline run on the shared warm pool (run lock held)."""
        orch = PipelineOrchestrator(
            jobs=self.jobs,
            cache=self.cache,
            config=config,
            pool=self._shared_pool(),
            cancel=token,
        )
        try:
            outcomes = orch.run(specs, detect=detect)
        finally:
            orch.close()  # borrowed pool survives; owned state drops
        return outcomes, orch.fault_ledger

    # -- ops -----------------------------------------------------------

    def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": round(time.monotonic() - self._started, 3),
            "jobs": self.jobs,
            "requests_served": self.stats.requests,
        }

    def _op_stats(self, request: dict) -> dict:
        cache_stats = None
        if self.cache is not None:
            cache_stats = {
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
                "writes": self.cache.stats.writes,
                "quarantined": self.cache.stats.quarantined,
                "write_errors": self.cache.stats.write_errors,
                "evictions": self.cache.stats.evictions,
                "quarantine_dropped": self.cache.stats.quarantine_dropped,
                "quarantine_entries": self.cache.quarantine_count(),
                "max_bytes": self.cache.max_bytes,
            }
        pool = self._pool
        pool_stats = None
        if pool is not None:
            pool_stats = {
                "workers": len(pool._workers),
                "consecutive_deaths": pool.consecutive_deaths,
                "rebuilds": pool.rebuilds,
            }
        with self._state_lock:
            records = [r.to_dict() for r in self.stats.records[-20:]]
            totals = {
                "requests": self.stats.requests,
                "errors": self.stats.errors,
                "connections": self.stats.connections,
                "protocol_errors": self.stats.protocol_errors,
            }
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "totals": totals,
            "cache": cache_stats,
            "pool": pool_stats,
            "admission": self.admission.to_dict(),
            "governor": (
                None if self.governor is None else self.governor.to_dict()
            ),
            "recent_requests": records,
        }

    def _op_synthesize(self, request: dict) -> dict:
        return self._pipeline_response(request, detect=False)

    def _op_detect(self, request: dict) -> dict:
        return self._pipeline_response(request, detect=True)

    def _pipeline_response(self, request: dict, detect: bool) -> dict:
        with _validating():
            config = self._request_config(request)
            specs = self._specs_from(request, config)
        return self._with_admission(
            request,
            lambda token: self._pipeline_body(specs, config, detect, token),
        )

    def _pipeline_body(
        self, specs, config, detect: bool, token: CancelToken
    ) -> dict:
        outcomes, ledger = self._run_pipeline(
            specs, config, detect=detect, token=token
        )
        subjects = {}
        for outcome in outcomes:
            entry: dict = {"digest": outcome.digest()}
            if outcome.synthesis is not None:
                entry.update(
                    tests=outcome.synthesis.test_count,
                    pairs=outcome.synthesis.pair_count,
                    synthesis_cached=outcome.synthesis_cached,
                )
            if outcome.detection is not None:
                entry.update(
                    detected=outcome.detection.detected,
                    reproduced=outcome.detection.reproduced,
                    detection_cached=outcome.detection_cached,
                    partial=outcome.detection_partial,
                )
            if outcome.failures:
                entry["failures"] = [f.to_dict() for f in outcome.failures]
            subjects[outcome.spec.name] = entry
        return {
            "ok": True,
            "subjects": subjects,
            "ledger": encode_fault_ledger(ledger),
        }

    def _op_corpus(self, request: dict) -> dict:
        from repro.corpus import CorpusConfig, run_corpus, template_names

        with _validating():
            templates = request.get("templates") or list(template_names())
            corpus_config = CorpusConfig(
                seed=_checked("seed", request.get("seed", 0), _is_int, "an integer"),
                count=_checked(
                    "count",
                    request.get("count", 20),
                    lambda v: _is_int(v, 0) and v <= MAX_CORPUS_COUNT,
                    f"an integer from 0 to {MAX_CORPUS_COUNT}",
                ),
                templates=tuple(templates),
            ).validate()
            config = self._request_config(request)

        def body(token: CancelToken) -> dict:
            orch = PipelineOrchestrator(
                jobs=self.jobs,
                cache=self.cache,
                config=config,
                pool=self._shared_pool(),
                cancel=token,
            )
            try:
                result = run_corpus(corpus_config, orch)
            finally:
                orch.close()
            return {
                "ok": True,
                **result.to_dict(),
                "ledger": encode_fault_ledger(orch.fault_ledger),
            }

        return self._with_admission(request, body)

    def _op_sleep(self, request: dict) -> dict:
        """Diagnostic: hold the run lock, sleeping cancellably.

        Exists for deterministic admission/deadline testing — a client
        can park the pipeline for a known duration and watch concurrent
        requests queue, shed, or hit their deadlines.
        """
        with _validating():
            seconds = _seconds("seconds", request.get("seconds", 0.1))

        def body(token: CancelToken) -> dict:
            end = time.monotonic() + seconds
            while True:
                token.check()  # cancellation boundary, like a pool unit
                left = end - time.monotonic()
                if left <= 0:
                    break
                time.sleep(min(0.02, left))
            return {"ok": True, "slept_s": seconds}

        return self._with_admission(request, body)

    def _op_shutdown(self, request: dict) -> dict:
        self.initiate_drain()
        return {"ok": True, "draining": True}


# ----------------------------------------------------------------------
# Client.


class DaemonClient:
    """Blocking client for the daemon protocol (one socket, N requests)."""

    def __init__(
        self,
        socket_path: str | None = None,
        tcp: tuple[str, int] | None = None,
        timeout: float | None = None,
        retries: int = 0,
        retry_delay: float = 0.2,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValueError("exactly one of socket_path / tcp is required")
        self.socket_path = socket_path
        self.tcp = tcp
        self.timeout = timeout
        self.retries = max(0, retries)
        self.retry_delay = retry_delay
        self._sock: socket.socket | None = None

    def connect(self) -> None:
        """Connect now (with bounded retries for a daemon still binding)."""
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                if self.tcp is not None:
                    sock = socket.create_connection(
                        self.tcp, timeout=self.timeout
                    )
                else:
                    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(self.socket_path)
                self._sock = sock
                return
            except OSError as error:
                last_error = error
                if attempt < self.retries:
                    time.sleep(self.retry_delay * (attempt + 1))
        raise ConnectionError(
            f"cannot reach repro daemon at "
            f"{self.socket_path or '%s:%d' % self.tcp}: {last_error}"
        ) from last_error

    def request(self, payload: dict) -> dict:
        if self._sock is None:
            self.connect()
        send_frame(self._sock, payload)
        response = recv_frame(self._sock)
        if response is None:
            raise ConnectionError("daemon closed the connection mid-request")
        return response

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
