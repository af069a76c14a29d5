"""Parallel pipeline orchestrator with stage caching and fault tolerance.

The Fig. 6 pipeline is embarrassingly parallel per subject: seed
execution, analysis, pair generation, context derivation, synthesis and
the RaceFuzzer loop over the synthesized tests of one program are
independent of every other program.  The orchestrator makes each
subject **one work unit** — synthesis (or the cached synthesis), then
every budgeted test's fuzz — and fans units out over a process pool
while keeping results **bit-identical to the serial order**:

* work units are pure functions of ``(source text, target class,
  config)`` — never of pool scheduling.  Every fuzz schedule seed is
  derived from ``(test name, run index)`` (see
  :func:`repro.fuzz.racefuzzer.schedule_seed`), and each run's detector
  stack is replayed as one engine sweep keyed by
  :func:`repro.analysis.sweep.memo_key`, so a subject fuzzes the same
  way whichever worker picks it up — and the same way on a retry;
* results are assembled in spec order from a key-addressed result map,
  so completion order cannot reorder them;
* a unit and :meth:`Narada.detect <repro.narada.pipeline.Narada.detect>`
  share one fuzz loop, so budgets, pruned tests and report order have
  one definition;
* reports cross the process boundary in the canonical dict form of
  :mod:`repro.narada.serial`, one reply per subject;
* ``jobs=1`` bypasses the pool entirely — no pickling, no subprocesses —
  which keeps single-job runs debuggable and exactly as cheap as the old
  serial pipeline.

Finer units did not pay where measured: a subject's fuzz calls cost a
few milliseconds each, and on a 2-CPU machine one subject per run took
~31 ms split over two workers against ~20.5 ms on one.  A run whose
time one large subject dominates gets no parallelism inside that
subject; ``jobs`` of 4 and more on 4 or more CPUs is unmeasured.

The run is backed by the persistent content-addressed
:class:`~repro.narada.cache.ArtifactCache`: synthesis and detection
artifacts are keyed by (table digest, stage config, code salt), so a
rerun with unchanged subjects skips straight to the first invalidated
stage.  A subject whose synthesis entry is gone but whose
detection entry is not synthesizes again and replays the detection.  Only entries a later run reads are written: seed analysis and
lockset facts are recomputed inside the unit.

The execution substrate is :mod:`repro.narada.faults`: worker death,
hung units, and unit exceptions are isolated per unit, retried with
backoff, and — when retries are exhausted — recorded as
:class:`UnitFailure` entries in the run's :class:`FaultLedger` while
every other unit proceeds.  A test whose fuzz raises is recorded as a
``fuzz`` failure of that test alone; the subject's other tests still
run, and its detection is partial.  ``run()`` therefore returns
*partial* results on a bad day instead of raising on the first
casualty.  The cache is the run's checkpoint: a subject's synthesis and
detection are published the moment its unit completes.  Rerunning an
interrupted command recomputes only the subjects it had not finished.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import threading
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.lang import ClassTable, load
from repro.narada.cache import ArtifactCache, stage_key, table_digest
from repro.narada.faults import (
    CancelToken,
    FaultInjector,
    FaultLedger,
    FaultTolerantPool,
    InlineRunner,
    PoolUnit,
    RetryPolicy,
    UnitExecutionError,
    UnitFailure,
    UnitTimeout,
)
from repro.narada.pipeline import DetectionReport, Narada, SynthesisReport
from repro.narada.serial import (
    decode_detection,
    decode_synthesis,
    encode_detection,
    encode_synthesis,
    report_digest,
)


#: Most distinct sources whose table digest and class names one process
#: remembers.  An entry is a 32-byte key, a hex digest and a tuple of
#: class names (about 0.5 KB with the dict's overhead), so a full memo
#: is about half a megabyte; 1024 covers serve-mixed's 520 distinct
#: sources.
SOURCE_MEMO_SIZE = 1024

#: sha256(source) -> (table digest, class names), least recent first.
_SOURCE_MEMO: OrderedDict[bytes, tuple[str, tuple[str, ...]]] = OrderedDict()
_SOURCE_MEMO_LOCK = threading.Lock()


@dataclass(eq=False)
class ProgramSource:
    """One distinct program text: its table digest and class names now,
    its class table on first use.

    :meth:`of` reads the digest and class names from the process-wide
    source memo and parses only on a miss.  The memo holds no table:
    a table is parsed at most once per holder, when an inline unit or a
    scorer first reads :attr:`table`, and dies with the holder.  A
    source that fails to parse raises and is never memoized.
    """

    text: str = field(repr=False)
    digest: str
    class_names: tuple[str, ...]
    _table: ClassTable | None = field(default=None, repr=False)

    @classmethod
    def of(cls, text: str) -> "ProgramSource":
        key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
        with _SOURCE_MEMO_LOCK:
            known = _SOURCE_MEMO.get(key)
            if known is not None:
                _SOURCE_MEMO.move_to_end(key)
        if known is not None:
            return cls(text, *known)
        table = load(text)
        known = (table_digest(table), tuple(table.class_names()))
        with _SOURCE_MEMO_LOCK:
            _SOURCE_MEMO[key] = known
            if len(_SOURCE_MEMO) > SOURCE_MEMO_SIZE:
                _SOURCE_MEMO.popitem(last=False)
        return cls(text, *known, table)

    @property
    def table(self) -> ClassTable:
        if self._table is None:
            self._table = load(self.text)
        return self._table


@dataclass(frozen=True)
class SubjectSpec:
    """One unit of per-subject work: a program and its analyzed class.

    ``program`` is the source as its creator already described it (the
    daemon does, to validate a request); a run uses it, and the table it
    may carry, instead of looking the source up again.
    """

    name: str
    source: str
    target_class: str
    program: ProgramSource | None = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a work unit's result may depend on (and nothing else).

    The fault-tolerance knobs (``unit_timeout``, ``max_retries``,
    ``retry_backoff``, ``fault_inject``) deliberately stay *out* of the
    per-stage cache-key configs below: how patiently a unit was babysat
    never changes what the unit computes, so toggling them must not
    invalidate artifacts.
    """

    vm_seed: int = 0
    rng_seed: int | None = None
    random_runs: int = 8
    directed: bool = True
    static_filter: bool = True
    unit_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    fault_inject: str | None = None

    def synthesis_config(self, target_class: str) -> dict:
        return {
            "vm_seed": self.vm_seed,
            "rng_seed": self.rng_seed,
            "target_class": target_class,
            "static_filter": self.static_filter,
        }

    def detection_config(self, target_class: str) -> dict:
        return {
            "synthesis": self.synthesis_config(target_class),
            "random_runs": self.random_runs,
            "directed": self.directed,
        }

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            unit_timeout=self.unit_timeout,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
        )

    def injector(self) -> FaultInjector | None:
        """The configured (or env-keyed) fault injector, if any."""
        return FaultInjector.from_spec(self.fault_inject, self.unit_timeout)

    def to_dict(self) -> dict:
        return {
            "vm_seed": self.vm_seed,
            "rng_seed": self.rng_seed,
            "random_runs": self.random_runs,
            "directed": self.directed,
            "static_filter": self.static_filter,
            "unit_timeout": self.unit_timeout,
            "max_retries": self.max_retries,
            "retry_backoff": self.retry_backoff,
            "fault_inject": self.fault_inject,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**data)


@dataclass
class SubjectOutcome:
    """Pipeline results for one subject, plus cache/fault provenance.

    ``synthesis`` is None when the subject's unit failed permanently
    without one, and ``detection`` is None when it failed after (see
    :attr:`failures`); ``detection_partial`` marks a detection report
    that is missing the tests whose fuzz raised but carries every other
    test's report.
    """

    spec: SubjectSpec
    synthesis: SynthesisReport | None
    detection: DetectionReport | None = None
    synthesis_cached: bool = False
    detection_cached: bool = False
    detection_partial: bool = False
    failures: list = field(default_factory=list)
    #: The subject's source, shared by every spec of the run with the
    #: same source text; see :attr:`table`.
    program: ProgramSource | None = field(
        default=None, repr=False, compare=False
    )
    #: Report digests stored with the cache entries this run read or
    #: wrote; ``digest`` encodes a report only when it has none.
    _synthesis_digest: str | None = field(default=None, repr=False)
    _detection_digest: str | None = field(default=None, repr=False)

    def digest(self) -> str:
        """Content digest of this subject's serialized reports."""
        if self.synthesis is None:
            return "failed"
        if self._synthesis_digest is None:
            self._synthesis_digest = report_digest(encode_synthesis(self.synthesis))
        if self.detection is None:
            return self._synthesis_digest
        if self._detection_digest is None:
            self._detection_digest = report_digest(encode_detection(self.detection))
        return f"{self._synthesis_digest}/{self._detection_digest}"

    @property
    def table(self) -> ClassTable | None:
        """The subject's class table, parsed on first read unless the
        run already parsed it; scorers read it instead of parsing again."""
        return None if self.program is None else self.program.table


# ----------------------------------------------------------------------
# The subject unit.  Module-level so the process pool can pickle it;
# the inline (jobs=1) path calls :func:`_subject_unit` directly and
# never serializes anything.  The trailing ``(unit_key, attempt)`` pair
# is the pool's dispatch envelope: it keys the (test-only) fault
# injector.


@functools.lru_cache(maxsize=128)
def _load_table(source: str) -> ClassTable:
    """Per-process table cache for pool workers, which receive source
    text.  Workers are persistent across waves and daemon requests, so
    a worker parses a source once however many of its classes it runs.
    Sized for corpus-scale waves — at 16 entries a 200-subject corpus
    run thrashed the cache and re-parsed tables the worker had already
    paid for.  The inline path never calls this: its units read the
    run's :class:`ProgramSource` tables."""
    return load(source)


def _subject_unit(
    table: ClassTable,
    target_class: str,
    config: PipelineConfig,
    synthesis: SynthesisReport | None,
    detect: bool,
    detection_entry: dict | None = None,
) -> tuple[SynthesisReport, DetectionReport | None, list, str | None]:
    """One subject's pipeline: synthesis unless given, then, when
    ``detect``, RaceFuzzer on every budgeted test.

    Returns ``(synthesis, detection or None, failures, replay error)``.
    ``detection_entry`` is the subject's cached detection, read when
    its synthesis missed: it replays when it decodes against the tests
    synthesized here, and then nothing is fuzzed; otherwise the replay
    error is the decode failure's repr and the tests are fuzzed.  Seed
    analysis and the lockset facts are recomputed here rather than
    cached.  A test whose fuzz raises becomes a ``(test name, error
    repr, traceback)`` failure and the other tests still run: fuzzing
    is a pure function of content, so a retry would raise again.  A
    watchdog timeout is no test's fault, so it fails the whole unit.
    """
    narada = Narada(
        table,
        seed=config.vm_seed,
        rng_seed=config.rng_seed,
        static_filter=config.static_filter,
    )
    if synthesis is None:
        synthesis = narada.synthesize_for_class(target_class)
    if not detect:
        return synthesis, None, [], None
    replay_error = None
    if detection_entry is not None:
        try:
            detection = decode_detection(detection_entry, synthesis.tests)
            return synthesis, detection, [], None
        except Exception as error:  # noqa: BLE001 — quarantined by the caller
            replay_error = repr(error)
    failures: list[tuple[str, str, str]] = []

    def test_failed(test, error: Exception) -> None:
        if isinstance(error, UnitTimeout):
            raise error
        failures.append((test.name, repr(error), traceback.format_exc()))

    detection = narada.detect(
        synthesis, config.random_runs, config.directed, on_error=test_failed
    )
    return synthesis, detection, failures, replay_error


def _subject_worker(
    source: str,
    target_class: str,
    config: dict,
    synthesis: dict | None,
    detect: bool,
    detection_entry: dict | None,
    unit_key: str = "",
    attempt: int = 0,
) -> dict:
    """:func:`_subject_unit` in a pool worker: ``synthesis`` is the
    encoded report when the parent already has one.  The reply carries
    encoded reports: the synthesis only when computed here, and the
    detection only when fuzzed here, since a replayed entry is the
    parent's own."""
    cfg = PipelineConfig.from_dict(config)
    injector = cfg.injector()
    if injector is not None:
        injector.before_unit(unit_key, attempt, in_worker=True)
    given = None if synthesis is None else decode_synthesis(synthesis)
    report, detection, failures, replay_error = _subject_unit(
        _load_table(source), target_class, cfg, given, detect, detection_entry
    )
    fuzzed = detection is not None and (
        detection_entry is None or replay_error is not None
    )
    return {
        "synthesis": encode_synthesis(report) if given is None else None,
        "detection": encode_detection(detection) if fuzzed else None,
        "failures": failures,
        "replay_error": replay_error,
    }


def _parse_specs(specs: list[SubjectSpec]) -> list[ProgramSource]:
    """Per spec, its :class:`ProgramSource`.

    Specs that share a source (one spec per class of one program) share
    one holder, so the run parses that source at most once.
    """
    programs: dict[str, ProgramSource] = {}
    for spec in specs:
        if spec.source not in programs:
            programs[spec.source] = spec.program or ProgramSource.of(spec.source)
    return [programs[spec.source] for spec in specs]


# ----------------------------------------------------------------------
# The orchestrator.


class PipelineOrchestrator:
    """Runs subject pipelines with fan-out, memoization, and determinism.

    Args:
        jobs: worker process count; ``1`` runs everything inline in this
            process with no pool and no serialization round-trips.
        cache: persistent artifact cache, or None to always recompute.
        config: the deterministic pipeline parameters (including the
            fault-tolerance policy).
        pool: an externally owned :class:`FaultTolerantPool` to dispatch
            on instead of creating one.  The daemon uses this to share
            one warm pool (live workers, parsed tables) across
            every request's orchestrator; a borrowed pool is never
            closed by :meth:`close`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ArtifactCache | None = None,
        config: PipelineConfig | None = None,
        pool: FaultTolerantPool | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.config = config if config is not None else PipelineConfig()
        #: Cooperative cancellation: checked when a run starts and at
        #: every unit boundary inside the pool/inline runner.  The daemon
        #: sets this to the request's deadline token; a cancelled run
        #: raises :class:`RunCancelled` without poisoning the shared pool
        #: (idle workers stay warm, busy ones are respawned).
        self.cancel = cancel
        self.fault_ledger = FaultLedger()
        self._pool: FaultTolerantPool | None = pool
        self._owns_pool = pool is None
        if pool is not None:
            self.jobs = max(1, pool.jobs)
        if cache is not None:
            cache.fault_injector = self.config.injector()

    # -- lifecycle -----------------------------------------------------

    def _executor(self) -> FaultTolerantPool:
        if self._pool is None:
            self._pool = FaultTolerantPool(
                self.jobs,
                self.config.retry_policy(),
                self.fault_ledger,
            )
        else:
            # One warm pool serves every run, wave, and (under the
            # daemon) request: point it at the current run's ledger and
            # retry policy without touching its live workers.
            self._pool.ledger = self.fault_ledger
            self._pool.policy = self.config.retry_policy()
        return self._pool

    def close(self) -> None:
        if self._pool is not None and self._owns_pool:
            self._pool.close()
        self._pool = None
        self._owns_pool = True

    def __enter__(self) -> "PipelineOrchestrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- cache plumbing ------------------------------------------------

    def _get_decoded(self, stage: str, key: str, decoder):
        """Cached ``(entry, decoded)`` or None; bad entries quarantine.

        The cache layer already quarantines unreadable JSON; this adds
        the same treatment for entries that parse but fail to *decode*
        (a structurally valid payload from a semantically incompatible
        writer, or a detection entry naming a test its synthesis lacks)
        — recompute, never crash.
        """
        data = None if self.cache is None else self.cache.get(stage, key)
        if data is None:
            return None
        try:
            return data, decoder(data)
        except Exception as error:  # noqa: BLE001 — quarantined below
            self.cache.reject(stage, key, f"decode failure: {error!r}")
            return None

    def _put_report(self, stage: str, key: str, data: dict) -> str:
        """Publish a synthesis or detection payload stamped with its
        report digest, which a later hit hands back; the digest."""
        digest = report_digest(data)
        self.cache.put(stage, key, {**data, "digest": digest})
        return digest

    # -- fault plumbing ------------------------------------------------

    def _run_units(
        self,
        units: list[PoolUnit],
        inline_fn,
        on_complete=None,
    ) -> dict[str, object]:
        """Execute units under the fault policy; ``{key: payload}``.

        ``on_complete(unit, payload)`` fires in the parent as each unit
        finishes — publication happens there, per unit, so a kill
        mid-batch leaves everything already completed in the cache.
        """
        if not units:
            return {}
        if self.jobs == 1:
            runner = InlineRunner(
                self.config.retry_policy(),
                self.fault_ledger,
                injector=self.config.injector(),
                on_complete=on_complete,
            )
            return runner.run(units, inline_fn, cancel=self.cancel)
        pool = self._executor()
        pool.on_complete = on_complete
        try:
            return pool.run(units, cancel=self.cancel)
        finally:
            pool.on_complete = None

    # -- the subject phase ---------------------------------------------

    def _run_subjects(
        self,
        specs: list[SubjectSpec],
        programs: list[ProgramSource],
        detect: bool,
        given: list[SynthesisReport] | None = None,
    ) -> list[SubjectOutcome]:
        """Per spec, its outcome: one unit per subject the cache lacks.

        A subject's synthesis comes from ``given``, else from its cache
        entry.  A detection decodes against its synthesis's tests, so
        when the synthesis misses, the unit receives the raw detection
        entry and replays it once it has synthesized; the entry is
        quarantined, and the tests fuzzed, only when it fails to
        decode.  A unit runs whatever the subject still lacks, and its
        reply publishes the synthesis it computed and a detection that
        every budgeted test completed.  A partial detection is never
        cached, so a later clean run recomputes it.
        """
        outcomes = [
            SubjectOutcome(spec=spec, program=programs[i], synthesis=None)
            for i, spec in enumerate(specs)
        ]
        config_dict = self.config.to_dict()
        units: list[PoolUnit] = []
        # Unit key -> (spec index, synthesis key, detection key or None,
        # the raw detection entry the unit replays or None).
        slots: dict[str, tuple[int, str, str | None, dict | None]] = {}
        # A spec whose key an earlier spec already has (one subject
        # named twice) gets that spec's outcome instead of its own unit.
        first_by_key: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []
        for i, spec in enumerate(specs):
            digest = programs[i].digest
            synth_key = stage_key(
                digest, "synthesis", self.config.synthesis_config(spec.target_class)
            )
            detect_key = None
            if detect:
                detect_key = stage_key(
                    digest,
                    "detection",
                    self.config.detection_config(spec.target_class),
                )
            key = detect_key or synth_key
            if key in first_by_key:
                duplicates.append((i, first_by_key[key]))
                continue
            first_by_key[key] = i
            outcome = outcomes[i]
            entry = detection_entry = None
            if given is not None:
                outcome.synthesis = given[i]
            else:
                cached = self._get_decoded("synthesis", synth_key, decode_synthesis)
                if cached is not None:
                    entry, outcome.synthesis = cached
                    outcome.synthesis_cached = True
                    outcome._synthesis_digest = entry.get("digest")
            if outcome.synthesis is not None:
                if not detect:
                    continue
                tests = outcome.synthesis.tests
                cached = self._get_decoded(
                    "detection", detect_key, lambda data: decode_detection(data, tests)
                )
                if cached is not None:
                    data, outcome.detection = cached
                    outcome.detection_cached = True
                    outcome._detection_digest = data.get("digest")
                    continue
            elif detect and self.cache is not None:
                detection_entry = self.cache.get("detection", detect_key)
            unit = PoolUnit(
                key=key,
                stage="synthesis" if outcome.synthesis is None else "fuzz",
                subject=spec.name,
                name=spec.target_class,
            )
            if self.jobs > 1:
                if outcome.synthesis is not None and entry is None:
                    entry = encode_synthesis(outcome.synthesis)
                unit.fn = _subject_worker
                unit.args = (
                    spec.source,
                    spec.target_class,
                    config_dict,
                    entry,
                    detect,
                    detection_entry,
                )
            slots[key] = (i, synth_key, detect_key, detection_entry)
            units.append(unit)

        def inline_unit(unit: PoolUnit):
            i = slots[unit.key][0]
            return _subject_unit(
                programs[i].table,
                specs[i].target_class,
                self.config,
                outcomes[i].synthesis,
                detect,
                slots[unit.key][3],
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            i, synth_key, detect_key, detection_entry = slots[unit.key]
            outcome = outcomes[i]
            if isinstance(payload, dict):  # a pool worker's encoded reply
                synth_data = payload["synthesis"]
                detect_data = payload["detection"]
                failures = payload["failures"]
                replay_error = payload["replay_error"]
                synthesis = outcome.synthesis
                if synth_data is not None:
                    synthesis = decode_synthesis(synth_data)
                detection = None
                if detect_data is not None:
                    detection = decode_detection(detect_data, synthesis.tests)
                elif detection_entry is not None and replay_error is None:
                    detection = decode_detection(detection_entry, synthesis.tests)
            else:
                synthesis, detection, failures, replay_error = payload
                synth_data = detect_data = None
            if outcome.synthesis is None:
                outcome.synthesis = synthesis
                if self.cache is not None:
                    outcome._synthesis_digest = self._put_report(
                        "synthesis",
                        synth_key,
                        synth_data or encode_synthesis(synthesis),
                    )
            for name, error, trace in failures:
                self.fault_ledger.record(
                    UnitFailure(
                        stage="fuzz",
                        subject=unit.subject,
                        unit=name,
                        error=error,
                        trace=trace,
                        attempts=1,
                    )
                )
            outcome.detection = detection
            outcome.detection_partial = bool(failures)
            if detection_entry is not None:
                if replay_error is None:
                    outcome.detection_cached = True
                    outcome._detection_digest = detection_entry.get("digest")
                    return
                self.cache.reject(
                    "detection", detect_key, f"decode failure: {replay_error}"
                )
            if detection is not None and not failures and self.cache is not None:
                outcome._detection_digest = self._put_report(
                    "detection",
                    detect_key,
                    detect_data or encode_detection(detection),
                )

        self._run_units(units, inline_unit, on_complete)
        for i, first in duplicates:
            outcomes[i] = dataclasses.replace(outcomes[first], spec=specs[i])
        return outcomes

    def synthesize(self, spec: SubjectSpec) -> SynthesisReport:
        """Synthesis for one subject (inline, cache-backed).

        Single-subject callers want the old raise-on-failure contract:
        a permanently failed unit raises :class:`UnitExecutionError`
        carrying the structured failure.
        """
        outcome = self.run([spec], detect=False)[0]
        if outcome.synthesis is None:
            raise UnitExecutionError(outcome.failures[0])
        return outcome.synthesis

    def detect(
        self, spec: SubjectSpec, synthesis: SynthesisReport
    ) -> DetectionReport:
        """Detection for one already-synthesized subject.

        Like :meth:`synthesize`, the single-subject API keeps the
        raise-on-failure contract of the serial fuzz loop.
        """
        self.fault_ledger = FaultLedger()
        outcome = self._run_subjects(
            [spec], _parse_specs([spec]), True, given=[synthesis]
        )[0]
        if outcome.detection is None or outcome.detection_partial:
            raise UnitExecutionError(self.fault_ledger.failures[0])
        return outcome.detection

    # -- the whole pipeline --------------------------------------------

    def run(
        self, specs: list[SubjectSpec], detect: bool = True
    ) -> list[SubjectOutcome]:
        """Run the pipeline for every spec; results follow spec order.

        Unit failures do not abort the run: the returned outcomes carry
        whatever completed (``synthesis``/``detection`` may be None or
        partial) and :attr:`fault_ledger` carries the structured record
        of everything that failed, was retried, timed out, or was
        quarantined.
        """
        ledger = self.fault_ledger = FaultLedger()
        quarantined_before = (
            self.cache.stats.quarantined if self.cache is not None else 0
        )
        programs = _parse_specs(specs)
        try:
            if self.cancel is not None:
                self.cancel.check()
            outcomes = self._run_subjects(specs, programs, detect)
        finally:
            if self.cache is not None:
                ledger.quarantined += (
                    self.cache.stats.quarantined - quarantined_before
                )
        for outcome in outcomes:
            outcome.failures = [
                f for f in ledger.failures if f.subject == outcome.spec.name
            ]
        return outcomes

    def run_stream(
        self,
        specs: list[SubjectSpec],
        detect: bool = True,
        batch_size: int = 25,
    ):
        """Corpus-scale :meth:`run`: yield outcomes in spec order, in waves.

        ``run`` holds every subject's synthesis and fuzz artifacts alive
        until the whole list finishes — fine for nine subjects, hostile
        to hundreds.  This generator cuts the spec list into waves of
        ``batch_size``, runs each wave through the normal (cached,
        fault-tolerant, deterministic) ``run``, and yields outcomes as
        each wave completes, so a caller that scores-and-drops keeps at
        most one wave's reports in memory.

        Results are identical to one big ``run``: work units are pure
        functions of (source, target class, config), so batch boundaries
        cannot change what any unit computes — only when it runs.  The
        per-``run`` fault ledgers are absorbed into one aggregate, left
        on :attr:`fault_ledger` when the stream is exhausted.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        aggregate = FaultLedger()
        for start in range(0, len(specs), batch_size):
            yield from self.run(specs[start : start + batch_size], detect=detect)
            aggregate.absorb(self.fault_ledger)
        self.fault_ledger = aggregate


def subject_specs(subjects=None) -> list[SubjectSpec]:
    """Specs for the built-in paper subjects (all nine by default)."""
    from repro.subjects import all_subjects

    chosen = all_subjects() if subjects is None else list(subjects)
    return [
        SubjectSpec(name=s.key, source=s.source, target_class=s.class_name)
        for s in chosen
    ]
