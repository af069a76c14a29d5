"""Fault-tolerance layer for the parallel pipeline.

Narada's value (paper §3.4) is that every seed run yields synthesized
racy tests even when individual subjects misbehave: RaceFuzzer and
ConTeGe both survive per-test failures by recording them and moving on.
This module gives the orchestrator the same property per work unit (one
subject's synthesis and fuzzing; a test whose fuzz raises is recorded
by the unit itself):

* :class:`FaultTolerantPool` — a small process pool built on per-worker
  pipes instead of ``concurrent.futures``.  Workers receive **batches**
  of units per round-trip (a share of the ready queue that shrinks
  as it drains — per-unit pipe round-trips dominate when units cost
  single-digit milliseconds) but stream **one result message per
  unit**, so the parent always knows exactly which unit each worker is
  executing: a dead or hung worker is blamed on *precisely* the
  in-flight unit (a ``BrokenProcessPool`` cannot say which task killed
  it), the results already streamed for earlier units in the batch
  survive, the not-yet-started remainder is requeued untouched, and
  only the blamed unit is retried.  Workers are
  persistent: one pool serves every wave of a run (and, under the
  daemon, every request), so spawn cost and per-process caches amortize
  across the whole workload.
* :class:`RetryPolicy` — per-unit wall-clock watchdog deadlines and
  bounded retries with exponential backoff.  Retries re-run the same
  pure unit (schedule seeds depend only on content), so a retried
  result is bit-identical to a first-try one.
* :class:`FaultLedger` / :class:`UnitFailure` — the structured run
  report of everything that went wrong: failed units carry their stage,
  subject, exception repr, traceback, and attempt count; counters cover
  retries, pool respawns, watchdog kills and quarantined cache entries.
  ``run()`` returns partial results plus this ledger instead of
  propagating the first worker death.  An interrupted run resumes by
  being rerun: the orchestrator publishes each unit's result to the
  artifact cache as the unit completes, so a rerun recomputes only the
  subjects in flight.
* :class:`FaultInjector` — the test-only probabilistic fault hook
  (``--fault-inject crash:0.3,hang:0.1,corrupt:0.05`` or the
  ``REPRO_FAULT_INJECT`` environment variable).  Draws are sha-derived
  from ``(kind, unit key, attempt)`` — deterministic per revision,
  independent of pool scheduling, and different per attempt so injected
  failures are transient and retries converge.

Nothing here imports the rest of :mod:`repro.narada`; the orchestrator
and cache layer on top of it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process, connection

#: Environment variable carrying a fault-injection spec into worker
#: processes (test-only; same syntax as ``--fault-inject``).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: How long an injected hang sleeps when no watchdog deadline exists, so
#: an unwatched hang degrades to latency instead of blocking forever.
UNWATCHED_HANG_SECONDS = 5.0

#: Exit code an injected worker crash dies with (visible in waitpid).
INJECTED_CRASH_EXIT = 13

#: Consecutive worker deaths (no intervening successful unit) before
#: the pool declares itself wedged and rebuilds every worker.
DEFAULT_REBUILD_AFTER_DEATHS = 8


class UnitTimeout(Exception):
    """A work unit exceeded its wall-clock watchdog deadline."""


class WorkerCrash(Exception):
    """A worker process died (killed, segfaulted, or ``os._exit``)."""


class RunCancelled(Exception):
    """A run was cooperatively cancelled at a unit boundary.

    Raised by :meth:`FaultTolerantPool.run` / :meth:`InlineRunner.run`
    when their :class:`CancelToken` fires — either explicitly or by its
    deadline passing.  Completed units up to that point were already
    published through ``on_complete``; nothing after the boundary runs.
    """


class CancelToken:
    """Cooperative cancellation handle checked at unit boundaries.

    Carries an optional absolute ``deadline`` (``time.monotonic``
    scale); :meth:`cancelled` reports true once the deadline passes or
    :meth:`cancel` was called.  The executors never interrupt a unit
    mid-flight from this token — cancellation lands *between* units,
    which is what keeps retried/cancelled runs deterministic.  (Pooled
    units in flight when the token fires are terminated with their
    workers; the units themselves are pure, so nothing observable leaks.)
    """

    __slots__ = ("deadline", "_event", "_reason")

    def __init__(self, deadline: float | None = None) -> None:
        self.deadline = deadline
        self._event = threading.Event()
        self._reason: str | None = None

    @classmethod
    def after(cls, seconds: float | None) -> "CancelToken":
        """A token expiring ``seconds`` from now (None: never expires)."""
        if seconds is None:
            return cls()
        return cls(deadline=time.monotonic() + max(0.0, seconds))

    def cancel(self, reason: str = "cancelled") -> None:
        if not self._event.is_set():
            self._reason = reason
            self._event.set()

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def cancelled(self) -> bool:
        return self._event.is_set() or self.expired()

    def remaining(self) -> float | None:
        """Seconds until the deadline (None: no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def reason(self) -> str:
        if self._event.is_set():
            return self._reason or "cancelled"
        if self.expired():
            return "deadline exceeded"
        return "not cancelled"

    def check(self) -> None:
        """Raise :class:`RunCancelled` if the token has fired."""
        if self.cancelled():
            raise RunCancelled(self.reason())


class InjectedCrash(RuntimeError):
    """Inline-mode analogue of an injected worker death."""


class UnitExecutionError(Exception):
    """A unit failed permanently; carries the structured failure."""

    def __init__(self, failure: "UnitFailure") -> None:
        super().__init__(
            f"{failure.stage} unit {failure.unit!r} of {failure.subject} "
            f"failed after {failure.attempts} attempt(s): {failure.error}"
        )
        self.failure = failure


# ----------------------------------------------------------------------
# Fault injection.


@dataclass(frozen=True)
class FaultPlan:
    """Parsed ``--fault-inject`` spec: per-kind injection probabilities.

    The first three kinds are worker-level (PR 5): ``crash`` kills the
    worker process mid-unit, ``hang`` sleeps past the watchdog,
    ``corrupt`` tears a cache entry after its atomic publish.  The rest
    are the daemon-layer chaos kinds:

    * ``enospc`` — a cache write raises ``OSError(ENOSPC)`` before the
      temp file is published (the cache must degrade to a non-caching
      pipeline, never crash the unit);
    * ``torn_frame`` / ``oversize_frame`` / ``slow_client`` — wire-level
      client misbehavior, consumed by the chaos bench's client driver
      (``benchmarks/bench_chaos_daemon.py``) to decide per request
      whether to shear a frame, send an oversized length prefix, or
      stall mid-frame.

    All kinds share the sha-keyed :func:`draw` discipline: injections
    are a pure function of ``(kind, key, attempt)``, so a chaos run is
    reproducible and retries converge.
    """

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    enospc: float = 0.0
    torn_frame: float = 0.0
    oversize_frame: float = 0.0
    slow_client: float = 0.0

    KINDS = (
        "crash",
        "hang",
        "corrupt",
        "enospc",
        "torn_frame",
        "oversize_frame",
        "slow_client",
    )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"crash:0.3,hang:0.1"`` (unknown kinds are an error)."""
        rates = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                kind, _, rate = part.partition(":")
                rates[kind.strip()] = float(rate)
            except ValueError:
                raise ValueError(f"bad fault-inject entry {part!r}") from None
        unknown = set(rates) - set(cls.KINDS)
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {sorted(unknown)}; "
                f"expected {'/'.join(cls.KINDS)}"
            )
        return cls(**rates)

    def to_spec(self) -> str:
        parts = [
            f"{kind}:{getattr(self, kind)}"
            for kind in self.KINDS
            if getattr(self, kind) > 0.0
        ]
        return ",".join(parts)

    def active(self) -> bool:
        return any(getattr(self, kind) > 0.0 for kind in self.KINDS)


def draw(kind: str, key: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one injection decision.

    Keyed on content only — never on wall clock, process identity, or
    pool scheduling — so a fault-injected run is reproducible, and on
    the attempt index so retries redraw and eventually pass.  Public:
    the daemon chaos bench keys its client-side misbehavior (torn
    frames, stalls) on the same discipline.
    """
    digest = hashlib.sha256(f"{kind}\x1f{key}\x1f{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultInjector:
    """Applies a :class:`FaultPlan` at the unit and cache-write hooks."""

    plan: FaultPlan
    hang_seconds: float = UNWATCHED_HANG_SECONDS

    @classmethod
    def from_spec(
        cls, spec: str | None, unit_timeout: float | None = None
    ) -> "FaultInjector | None":
        """Injector for a spec string (or the env fallback), or None.

        An injected hang must outlive the watchdog deadline to trigger
        it, but must still terminate when no deadline is armed — so the
        sleep is ``3 * unit_timeout`` when one exists and a small
        constant otherwise.
        """
        spec = spec if spec is not None else os.environ.get(FAULT_INJECT_ENV)
        if not spec:
            return None
        plan = FaultPlan.parse(spec)
        if not plan.active():
            return None
        hang = (
            3.0 * unit_timeout
            if unit_timeout is not None
            else UNWATCHED_HANG_SECONDS
        )
        return cls(plan=plan, hang_seconds=hang)

    def before_unit(self, key: str, attempt: int, in_worker: bool) -> None:
        """Maybe crash or hang at the start of a unit execution."""
        if self.plan.crash and draw("crash", key, attempt) < self.plan.crash:
            if in_worker:
                os._exit(INJECTED_CRASH_EXIT)  # a real, uncatchable death
            raise InjectedCrash(f"injected crash (unit {key[:12]})")
        if self.plan.hang and draw("hang", key, attempt) < self.plan.hang:
            # In a worker the watchdog SIGTERMs us mid-sleep; inline the
            # SIGALRM watchdog interrupts the sleep with UnitTimeout.
            time.sleep(self.hang_seconds)

    def corrupt_write(self, key: str) -> bool:
        """Should this cache entry be torn after its atomic publish?"""
        return bool(
            self.plan.corrupt and draw("corrupt", key, 0) < self.plan.corrupt
        )

    def enospc_write(self, key: str) -> bool:
        """Should this cache write fail with ``OSError(ENOSPC)``?

        Drawn per entry (not per attempt): a full disk stays full for
        the duration of one write, and the cache layer must absorb the
        failure as a skipped publish, not a crashed unit.
        """
        return bool(
            self.plan.enospc and draw("enospc", key, 0) < self.plan.enospc
        )


# ----------------------------------------------------------------------
# Structured failure reporting.


@dataclass
class UnitFailure:
    """One work unit that failed permanently (all retries exhausted)."""

    stage: str
    subject: str
    unit: str
    error: str
    """``repr()`` of the terminal exception."""
    trace: str
    """Traceback text (worker-side when the unit ran in a worker)."""
    attempts: int

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "subject": self.subject,
            "unit": self.unit,
            "error": self.error,
            "trace": self.trace,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitFailure":
        return cls(**data)


@dataclass
class FaultLedger:
    """Everything that went wrong (and was survived) during one run."""

    failures: list[UnitFailure] = field(default_factory=list)
    completed: int = 0
    retries: int = 0
    pool_respawns: int = 0
    timeouts: int = 0
    quarantined: int = 0
    batches: int = 0
    """Worker dispatches (each carries one or more units)."""
    warm_reuses: int = 0
    """Dispatches served by an already-warm worker — every one of these
    is a spawn a per-run (or per-request) pool would have paid."""

    def ok(self) -> bool:
        return not self.failures

    def record(self, failure: UnitFailure) -> None:
        self.failures.append(failure)

    def absorb(self, other: "FaultLedger") -> None:
        """Fold another run's ledger into this one (wave aggregation)."""
        self.failures.extend(other.failures)
        self.completed += other.completed
        self.retries += other.retries
        self.pool_respawns += other.pool_respawns
        self.timeouts += other.timeouts
        self.quarantined += other.quarantined
        self.batches += other.batches
        self.warm_reuses += other.warm_reuses

    def describe(self) -> str:
        """The CLI failure-summary table."""
        lines = ["-- fault ledger --"]
        if self.failures:
            rows = [("stage", "subject", "unit", "attempts", "error")]
            for f in self.failures:
                rows.append(
                    (f.stage, f.subject, f.unit or "-", str(f.attempts), f.error)
                )
            widths = [
                max(len(row[col]) for row in rows) for col in range(4)
            ]
            for row in rows:
                cells = [row[col].ljust(widths[col]) for col in range(4)]
                lines.append("  ".join(cells + [row[4]]))
        else:
            lines.append("no failed units")
        lines.append(
            f"completed={self.completed} retries={self.retries} "
            f"timeouts={self.timeouts} pool_respawns={self.pool_respawns} "
            f"quarantined={self.quarantined} "
            f"batches={self.batches} warm_reuses={self.warm_reuses}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Canonical dict form (see :mod:`repro.narada.serial`)."""
        from repro.narada.serial import encode_fault_ledger

        return encode_fault_ledger(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultLedger":
        from repro.narada.serial import decode_fault_ledger

        return decode_fault_ledger(data)


# ----------------------------------------------------------------------
# Retry policy + inline watchdog.


@dataclass(frozen=True)
class RetryPolicy:
    """Watchdog + retry/backoff parameters shared by both run modes."""

    unit_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.05
    """Base backoff in seconds; attempt ``n`` sleeps ``backoff * 2**n``."""

    def backoff_seconds(self, failed_attempts: int) -> float:
        if self.backoff <= 0.0:
            return 0.0
        return self.backoff * (2.0 ** max(0, failed_attempts - 1))


@contextmanager
def watchdog(seconds: float | None):
    """SIGALRM-based wall-clock deadline for inline (jobs=1) units.

    Only armed on the main thread of a POSIX process — elsewhere the
    context is a no-op and inline units run unwatched (pooled units are
    always watched, by killing the worker).
    """
    usable = (
        seconds is not None
        and seconds > 0.0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _alarm(signum, frame):
        raise UnitTimeout(f"unit exceeded {seconds:.1f}s watchdog deadline")

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Work units.


@dataclass
class PoolUnit:
    """One isolatable work unit.

    ``fn(*args, key, attempt)`` must be a module-level (picklable)
    function returning a picklable payload; ``inline_fn(unit)`` is the
    zero-serialization equivalent used when jobs=1.  ``key`` is the
    unit's cache key, its slot in the result map, and the
    fault-injection draw key.
    """

    key: str
    stage: str
    subject: str
    name: str
    fn: object = None
    args: tuple = ()
    attempts: int = 0
    not_before: float = 0.0


def _retry_or_record(
    unit: PoolUnit,
    policy: RetryPolicy,
    ledger: FaultLedger,
    error_repr: str,
    trace: str,
) -> bool:
    """Charge a failed attempt to ``unit``: True to retry it (the caller
    schedules the retry), False once it is recorded as failed."""
    unit.attempts += 1
    if unit.attempts <= policy.max_retries:
        ledger.retries += 1
        return True
    ledger.record(
        UnitFailure(
            stage=unit.stage,
            subject=unit.subject,
            unit=unit.name,
            error=error_repr,
            trace=trace,
            attempts=unit.attempts,
        )
    )
    return False


class _Worker:
    """Parent-side handle: one process, one pipe, one in-flight batch.

    ``batch`` is the list of units the worker is currently executing in
    order; ``cursor`` indexes the unit whose result has not arrived yet
    (the in-flight unit — the one a crash or deadline blames).
    ``dispatches`` counts completed round-trips, which is what marks a
    worker as *warm*: its process, imports, and per-process caches are
    already paid for.
    """

    __slots__ = ("process", "conn", "batch", "cursor", "started", "dispatches")

    def __init__(self, process: Process, conn) -> None:
        self.process = process
        self.conn = conn
        self.batch: list[PoolUnit] | None = None
        self.cursor: int = 0
        self.started: float = 0.0
        self.dispatches: int = 0

    @property
    def unit(self) -> PoolUnit | None:
        """The in-flight unit, or None when idle."""
        if self.batch is None or self.cursor >= len(self.batch):
            return None
        return self.batch[self.cursor]

    def remainder(self) -> list[PoolUnit]:
        """Units after the in-flight one: dispatched but never started."""
        if self.batch is None:
            return []
        return self.batch[self.cursor + 1 :]


#: How often an idle pool worker checks that its parent is alive.
_ORPHAN_POLL_SECONDS = 0.5


def _pool_worker(conn, parent_pid: int) -> None:
    """Worker loop: one *batch* per message, one reply streamed per unit.

    Each ``("batch", [(fn, args), ...])`` message is executed in order,
    sending ``("ok", payload)`` or ``("err", repr, traceback)`` after
    every unit — so the parent's view of which unit is in flight is
    exact at all times.  Anything that escapes as an ordinary exception
    is reported with its traceback and the rest of the batch still runs;
    a hard death (``os._exit``, segfault, SIGTERM from the watchdog)
    closes the pipe mid-batch, which the parent reads as a crash of
    exactly the in-flight unit.

    A forked worker holds copies of the parent's pipe ends, so a parent
    killed on its own never closes the pipe: the worker instead polls,
    and exits once it has been reparented away from ``parent_pid``.
    """
    while True:
        try:
            if not conn.poll(_ORPHAN_POLL_SECONDS):
                if os.getppid() != parent_pid:
                    break
                continue
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "exit":
            break
        _, tasks = message
        broken = False
        for fn, args in tasks:
            try:
                payload = fn(*args)
            except Exception as error:  # noqa: BLE001 — reported, not hidden
                reply = ("err", repr(error), traceback.format_exc())
            else:
                reply = ("ok", payload)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                broken = True
                break
        if broken:
            break
    try:
        conn.close()
    except OSError:
        pass


class FaultTolerantPool:
    """Process pool with per-unit crash isolation and watchdog kills.

    Dispatch is one *batch* of units per worker round-trip over a
    dedicated pipe — each idle worker takes ``ceil(ready units /
    (2 * jobs))`` of what is still queued — but the worker streams
    one result message per unit, so the parent always knows which unit
    each worker is running:

    * pipe EOF / worker death → blame exactly the in-flight unit,
      requeue the batch's not-yet-started remainder untouched, respawn
      one worker, retry only the blamed unit (bounded by the policy);
      results already streamed for earlier units in the batch are kept;
    * per-unit deadline exceeded → SIGTERM the worker, same blame and
      remainder-requeue as a crash (the deadline clock restarts as each
      unit's result arrives, so a batch never dilutes the watchdog);
    * ordinary exception → recorded per unit; the worker survives and
      finishes the rest of its batch.

    Results are assembled by unit identity in submission order, so the
    output is independent of completion order and of batch boundaries —
    the determinism contract of the orchestrator is preserved.

    The pool is long-lived by design: callers keep one pool across
    waves, :meth:`run` calls, and daemon requests.  Workers
    spawned for an earlier dispatch are reused (counted as
    ``warm_reuses`` in the ledger) instead of being respawned.
    """

    #: Parent-side poll granularity when watchdog deadlines are armed.
    _POLL_SECONDS = 0.1

    def __init__(
        self,
        jobs: int,
        policy: RetryPolicy,
        ledger: FaultLedger,
        on_complete=None,
        rebuild_after_deaths: int = DEFAULT_REBUILD_AFTER_DEATHS,
    ) -> None:
        self.jobs = max(1, jobs)
        self.policy = policy
        self.ledger = ledger
        self.on_complete = on_complete
        self.rebuild_after_deaths = max(1, rebuild_after_deaths)
        #: Worker deaths since the last successful unit; a long-lived
        #: (daemon) pool uses this to spot a wedged state — workers
        #: dying faster than they complete anything — and rebuild.
        self.consecutive_deaths = 0
        #: Full teardown-and-respawn cycles forced by the wedge guard.
        self.rebuilds = 0
        self._workers: list[_Worker] = []

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = Pipe()
        process = Process(
            target=_pool_worker, args=(child_conn, os.getpid()), daemon=True
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_workers(self, needed: int) -> None:
        while len(self._workers) < min(self.jobs, needed):
            self._workers.append(self._spawn())

    def _discard_worker(self, worker: _Worker) -> None:
        if worker not in self._workers:  # already torn down by a rebuild
            return
        self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover — stuck in kernel
            worker.process.kill()
            worker.process.join(timeout=1.0)

    def close(self) -> None:
        for worker in list(self._workers):
            try:
                worker.conn.send(("exit",))
            except OSError:
                pass
        for worker in list(self._workers):
            self._discard_worker(worker)

    def __enter__(self) -> "FaultTolerantPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- failure handling ----------------------------------------------

    def _handle_failure(
        self,
        unit: PoolUnit,
        pending: deque,
        error_repr: str,
        trace: str,
    ) -> None:
        if _retry_or_record(unit, self.policy, self.ledger, error_repr, trace):
            unit.not_before = time.monotonic() + self.policy.backoff_seconds(
                unit.attempts
            )
            pending.append(unit)

    def _respawn_after(self, worker: _Worker) -> None:
        self._discard_worker(worker)
        self.ledger.pool_respawns += 1
        self.consecutive_deaths += 1

    def _rebuild_if_wedged(self, pending: deque) -> int:
        """Tear down every worker once deaths outpace progress.

        A pool where ``rebuild_after_deaths`` workers died without a
        single unit completing in between is wedged — typically shared
        parent-side state (a poisoned pipe, leaked memory pressure)
        rather than one bad unit.  Rebuilding discards *all* workers,
        idle ones included; in-flight batches on the survivors are
        requeued from their cursor with attempt counts untouched (those
        units were interrupted, not at fault).  Returns how many
        in-flight units were requeued so the caller can fix its count.
        """
        if self.consecutive_deaths < self.rebuild_after_deaths:
            return 0
        requeued = 0
        for worker in list(self._workers):
            batch_rest = (
                worker.batch[worker.cursor :] if worker.batch is not None else []
            )
            worker.batch = None
            pending.extendleft(reversed(batch_rest))
            requeued += len(batch_rest)
            self._discard_worker(worker)
        self.rebuilds += 1
        self.consecutive_deaths = 0
        return requeued

    def _abort_in_flight(self) -> None:
        """Cancellation teardown: kill busy workers, keep idle ones warm.

        A cancelled run abandons its in-flight batches; the workers
        executing them are terminated (their pipes would otherwise hold
        stale replies that poison the next run on this shared pool).
        """
        for worker in list(self._workers):
            if worker.batch is not None:
                worker.batch = None
                self._discard_worker(worker)

    # -- the dispatch loop ---------------------------------------------

    def run(
        self, units: list[PoolUnit], cancel: CancelToken | None = None
    ) -> dict[str, object]:
        """Run every unit; return ``{unit.key: payload}`` for successes.

        Permanently failed units are absent from the result and present
        in the ledger — the caller degrades gracefully.  When ``cancel``
        fires (explicitly or by deadline) the loop stops at the next
        unit boundary, terminates in-flight workers, and raises
        :class:`RunCancelled`; results completed before the boundary
        were already delivered through ``on_complete``.
        """
        if not units:
            return {}
        results: dict[str, object] = {}
        pending: deque[PoolUnit] = deque(units)
        in_flight = 0
        while pending or in_flight:
            if cancel is not None and cancel.cancelled():
                self._abort_in_flight()
                raise RunCancelled(cancel.reason())
            now = time.monotonic()
            self._ensure_workers(len(pending) + in_flight)
            # Each idle worker takes its share of the ready units.
            for worker in self._workers:
                if worker.batch is not None or not pending:
                    continue
                batch = self._take_batch(pending, now, self._share(pending, now))
                if not batch:
                    break
                try:
                    worker.conn.send(
                        (
                            "batch",
                            [
                                (u.fn, u.args + (u.key, u.attempts))
                                for u in batch
                            ],
                        )
                    )
                except OSError:
                    self._respawn_after(worker)
                    pending.extendleft(reversed(batch))
                    in_flight -= self._rebuild_if_wedged(pending)
                    break
                worker.batch = batch
                worker.cursor = 0
                worker.started = now
                in_flight += len(batch)
                self.ledger.batches += 1
                if worker.dispatches > 0:
                    self.ledger.warm_reuses += 1
            busy = [w for w in self._workers if w.batch is not None]
            if not busy:
                # Everything pending is backing off; sleep until ready.
                wake = min(unit.not_before for unit in pending)
                time.sleep(max(0.0, min(wake - time.monotonic(), 1.0)))
                continue
            timeout = (
                self._POLL_SECONDS
                if self.policy.unit_timeout is not None or cancel is not None
                else 1.0
            )
            ready = connection.wait([w.conn for w in busy], timeout=timeout)
            for conn in ready:
                worker = next(w for w in busy if w.conn is conn)
                in_flight -= self._drain_replies(worker, pending, results)
            # Watchdog: kill workers whose in-flight unit blew its
            # deadline.  ``started`` restarts as each unit's result
            # arrives, so the deadline stays per-unit inside a batch.
            if self.policy.unit_timeout is not None:
                now = time.monotonic()
                for worker in list(self._workers):
                    unit = worker.unit
                    if unit is None:
                        continue
                    if now - worker.started <= self.policy.unit_timeout:
                        continue
                    in_flight -= self._fail_in_flight(
                        worker,
                        pending,
                        repr(
                            UnitTimeout(
                                f"unit exceeded {self.policy.unit_timeout:.1f}s "
                                f"watchdog deadline"
                            )
                        ),
                        timeout=True,
                    )
        return results

    def _drain_replies(
        self,
        worker: _Worker,
        pending: deque,
        results: dict[str, object],
    ) -> int:
        """Consume every queued reply from one worker; return resolved count.

        A batch's replies can arrive back-to-back, so after the first
        blocking ``recv`` the loop keeps draining while data is buffered
        — one wait() wake-up settles the whole backlog.
        """
        resolved = 0
        while True:
            unit = worker.unit
            if unit is None:
                break
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                # The worker died running exactly the in-flight unit.
                return resolved + self._fail_in_flight(
                    worker,
                    pending,
                    repr(WorkerCrash("worker process died mid-unit")),
                )
            worker.started = time.monotonic()
            worker.cursor += 1
            resolved += 1
            if reply[0] == "ok":
                results[unit.key] = reply[1]
                self.ledger.completed += 1
                self.consecutive_deaths = 0  # forward progress: not wedged
                if self.on_complete is not None:
                    self.on_complete(unit, reply[1])
            else:
                self._handle_failure(unit, pending, reply[1], reply[2])
            if worker.unit is None:
                # Batch finished; the worker is warm and idle.
                worker.batch = None
                worker.dispatches += 1
                break
            if not worker.conn.poll():
                break
        return resolved

    def _fail_in_flight(
        self,
        worker: _Worker,
        pending: deque,
        error_repr: str,
        timeout: bool = False,
    ) -> int:
        """Blame the in-flight unit, requeue the rest of its batch.

        Used for both crash (pipe EOF) and watchdog kill: exactly one
        unit — the one the worker was executing — takes the failure and
        burns an attempt; units queued behind it in the batch were never
        started, so they go back to pending with their attempt counts
        untouched.  Returns how many in-flight units were resolved off
        the worker (blamed + requeued).
        """
        blamed = worker.unit
        remainder = worker.remainder()
        worker.batch = None
        if timeout:
            self.ledger.timeouts += 1
        self._respawn_after(worker)
        self._handle_failure(blamed, pending, error_repr, "")
        pending.extendleft(reversed(remainder))
        rebuilt = self._rebuild_if_wedged(pending)
        return 1 + len(remainder) + rebuilt

    def _share(self, pending: deque, now: float) -> int:
        """Units for the next dispatch: ``ceil(ready units / (2 * jobs))``.

        Recomputed for every take, so shares shrink as the queue drains
        (9 units at ``jobs=4`` go out as 2/1/1/1 and the rest waits for
        whichever worker frees first).  The first round hands out at
        most half the queue, so a worker whose share holds slow units
        does not hold the tail of the run.
        """
        ready = sum(1 for unit in pending if unit.not_before <= now)
        return -(-ready // (2 * self.jobs))

    @staticmethod
    def _take_batch(pending: deque, now: float, size: int) -> list[PoolUnit]:
        """Pop up to ``size`` units whose backoff elapsed, in queue order."""
        batch: list[PoolUnit] = []
        for _ in range(len(pending)):
            if len(batch) == size:
                break
            unit = pending.popleft()
            if unit.not_before <= now:
                batch.append(unit)
            else:
                pending.append(unit)
        return batch


class InlineRunner:
    """jobs=1 analogue of the pool: same policy, ledger, and injection.

    Units run in-process (no pickling) under the SIGALRM watchdog;
    ordinary exceptions and injected crashes are retried with backoff
    and recorded as :class:`UnitFailure` when retries are exhausted.
    ``KeyboardInterrupt``/``SystemExit`` propagate — a user abort is not
    a unit fault.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        ledger: FaultLedger,
        injector: FaultInjector | None = None,
        on_complete=None,
    ) -> None:
        self.policy = policy
        self.ledger = ledger
        self.injector = injector
        self.on_complete = on_complete

    def run(
        self,
        units: list[PoolUnit],
        inline_fn,
        cancel: CancelToken | None = None,
    ) -> dict[str, object]:
        """Run every unit via ``inline_fn(unit)``; see pool.run()."""
        results: dict[str, object] = {}
        for unit in units:
            while True:
                if cancel is not None:
                    cancel.check()  # unit boundary (and between retries)
                try:
                    with watchdog(self.policy.unit_timeout):
                        if self.injector is not None:
                            self.injector.before_unit(
                                unit.key, unit.attempts, in_worker=False
                            )
                        payload = inline_fn(unit)
                except Exception as error:  # noqa: BLE001 — recorded below
                    trace = traceback.format_exc()
                    if isinstance(error, UnitTimeout):
                        self.ledger.timeouts += 1
                    if _retry_or_record(
                        unit, self.policy, self.ledger, repr(error), trace
                    ):
                        time.sleep(self.policy.backoff_seconds(unit.attempts))
                        continue
                    break
                else:
                    results[unit.key] = payload
                    self.ledger.completed += 1
                    if self.on_complete is not None:
                        self.on_complete(unit, payload)
                    break
        return results
