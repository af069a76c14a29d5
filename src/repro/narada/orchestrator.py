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
artifacts are keyed by (source digest, stage config, code salt)
(:func:`spec_keys`), so a lookup needs no parse and a rerun with
unchanged subjects skips straight to the first invalidated stage.  A
subject uses its detection entry only behind a synthesis hit that
decodes; one whose synthesis misses, or is quarantined, runs its whole
unit and writes both entries.  Only entries a later run reads are
written: seed analysis and lockset facts are recomputed inside the
unit.  The parent parses a source only when one of its subjects needs
a unit, and then before any unit runs, so a source that does not
parse raises :class:`~repro._util.errors.ParseError` from
:meth:`PipelineOrchestrator.run` at any ``jobs``.

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
import traceback
from dataclasses import dataclass, field

from repro.lang import ClassTable, load
from repro.narada.cache import ArtifactCache, source_digest, stage_key
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
    VOLATILE_KEYS,
    decode_detection,
    decode_sites,
    decode_synthesis,
    encode_detection,
    encode_synthesis,
    detection_head,
    parse_body,
    report_bytes,
    report_digest,
    synthesis_head,
)


#: Subjects per wave of :meth:`PipelineOrchestrator.run_stream`: it
#: bounds how many subjects' reports a corpus run holds at once, and
#: wave boundaries never change a result.
WAVE_SIZE = 25


@dataclass(eq=False)
class ProgramSource:
    """One distinct program text: its :func:`source_digest` now, its
    class table and site map on first use.

    A run makes one holder per distinct text, so specs that share a
    source share its parse.  The site map is taken from the head of the
    first detection hit among those specs, and otherwise from the table.
    """

    text: str = field(repr=False)
    digest: str = field(init=False)
    _table: ClassTable | None = field(default=None, repr=False)
    _sites: dict[int, str] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.digest = source_digest(self.text)

    @property
    def table(self) -> ClassTable:
        if self._table is None:
            self._table = load(self.text)
        return self._table

    @property
    def sites(self) -> dict[int, str]:
        """node id -> name of the method whose body contains it
        (:meth:`ClassTable.site_methods`); scorers read it."""
        if self._sites is None:
            self._sites = self.table.site_methods()
        return self._sites


def _whole(entry) -> dict:
    """The payload of a two-part cache entry as one plain dict, which a
    pool worker can be sent: its body, the report, plus the head's
    digest and the volatile keys the body leaves out."""
    payload = parse_body(entry.text)
    payload.update(
        (key, entry[key]) for key in ("digest", *VOLATILE_KEYS) if key in entry
    )
    return payload


@dataclass(frozen=True)
class SubjectSpec:
    """One unit of per-subject work: a program and its analyzed class.

    ``program`` is the source as its creator already described it (the
    daemon does, to validate a request); a run uses it, and the table it
    may carry, instead of making its own.
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
        """The configured fault injector, if any."""
        return FaultInjector.from_spec(self.fault_inject, self.unit_timeout)

    def to_dict(self) -> dict:
        return {
            "vm_seed": self.vm_seed,
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


def spec_keys(
    digest: str, target_class: str, config: PipelineConfig
) -> tuple[str, str]:
    """The synthesis and detection cache keys of the subject
    ``target_class`` of the source whose
    :func:`~repro.narada.cache.source_digest` is ``digest``, under
    ``config``.  A detect run's unit key is the detection key, and a
    synthesis-only run's the synthesis key."""
    return (
        stage_key(digest, "synthesis", config.synthesis_config(target_class)),
        stage_key(digest, "detection", config.detection_config(target_class)),
    )


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
    #: same source text; scorers read its :attr:`~ProgramSource.sites`.
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
) -> tuple[SynthesisReport, DetectionReport | None, list]:
    """One subject's pipeline: synthesis unless given, then, when
    ``detect``, RaceFuzzer on every budgeted test.

    Returns ``(synthesis, detection or None, failures)``.  Seed
    analysis and the lockset facts are recomputed here rather than
    cached.  A test whose fuzz raises becomes a ``(test name, error
    repr, traceback)`` failure and the other tests still run: fuzzing
    is a pure function of content, so a retry would raise again.  A
    watchdog timeout is no test's fault, so it fails the whole unit.
    """
    narada = Narada(
        table, seed=config.vm_seed, static_filter=config.static_filter
    )
    if synthesis is None:
        synthesis = narada.synthesize_for_class(target_class)
    if not detect:
        return synthesis, None, []
    failures: list[tuple[str, str, str]] = []

    def test_failed(test, error: Exception) -> None:
        if isinstance(error, UnitTimeout):
            raise error
        failures.append((test.name, repr(error), traceback.format_exc()))

    detection = narada.detect(
        synthesis, config.random_runs, config.directed, on_error=test_failed
    )
    return synthesis, detection, failures


def _subject_worker(
    source: str,
    target_class: str,
    config: dict,
    synthesis: dict | None,
    detect: bool,
    unit_key: str = "",
    attempt: int = 0,
) -> dict:
    """:func:`_subject_unit` in a pool worker: ``synthesis`` is the
    encoded report when the parent already has one.  The reply carries
    encoded reports: the synthesis only when computed here, and the
    detection when ``detect``."""
    cfg = PipelineConfig.from_dict(config)
    injector = cfg.injector()
    if injector is not None:
        injector.before_unit(unit_key, attempt, in_worker=True)
    given = None if synthesis is None else decode_synthesis(synthesis)
    report, detection, failures = _subject_unit(
        _load_table(source), target_class, cfg, given, detect
    )
    return {
        "synthesis": encode_synthesis(report) if given is None else None,
        "detection": encode_detection(detection) if detect else None,
        "failures": failures,
    }


def _programs(specs: list[SubjectSpec]) -> list[ProgramSource]:
    """Per spec, its :class:`ProgramSource`: specs that share a source
    (one spec per class of one program) share one holder."""
    programs: dict[str, ProgramSource] = {}
    for spec in specs:
        if spec.source not in programs:
            programs[spec.source] = spec.program or ProgramSource(spec.source)
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

    def _synthesis_hit(self, key: str, entry, whole: bool):
        """``(payload, report)`` of a cached synthesis entry, or None
        when it fails to decode, quarantined: recompute, never crash.

        With ``whole``, the entry's body is parsed and decoded now, and
        the payload is :func:`_whole`'s dict, the one a pool worker is
        sent.
        Otherwise the head alone decodes, and the body waits for its
        first reader.
        """
        try:
            if whole:
                payload = _whole(entry)
                return payload, decode_synthesis(payload)
            return entry, decode_synthesis(
                entry, entry.text, self.cache.rejecter("synthesis", key)
            )
        except Exception as error:  # noqa: BLE001 — quarantined here
            self.cache.reject("synthesis", key, f"decode failure: {error!r}")
            return None

    def _put_report(
        self, stage: str, key: str, data: dict, sites: dict | None = None
    ) -> str:
        """Publish a synthesis or detection payload; its report digest,
        which a later hit hands back.  The entry's body is the report's
        canonical bytes, and its head, which a hit parses alone, stores
        their sha256 under ``digest``; a detection head also carries the
        source's site map ``sites``."""
        body = report_bytes(data)
        digest = hashlib.sha256(body).hexdigest()
        if stage == "synthesis":
            head = synthesis_head(data)
        else:
            head = detection_head(data, sites)
        self.cache.put(stage, key, {**head, "digest": digest}, body)
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
    ) -> list[SubjectOutcome]:
        """Per spec, its outcome: one unit per subject the cache lacks.

        A subject's synthesis comes from its cache entry when there is
        one, with its plans and summary bodies left to decode when first
        read.  Its detection entry is read only when the synthesis entry
        is there, and before that entry decodes: when the subject's
        tests will fuzz, the synthesis entry's body, the whole report,
        is parsed and decoded once, before its unit is built, so that a
        bad entry is still quarantined and its synthesis recomputed; a
        pool worker is sent that payload.  A detection hit decodes its
        head against the synthesis's tests, and each fuzz report's race
        records wait in the entry's body until first read.  A subject
        whose synthesis misses reads no detection entry, and one whose
        synthesis is quarantined ignores it: either runs its whole
        unit, synthesis then fuzz, and writes both entries.  A unit's
        reply publishes the synthesis it computed and a detection that
        every budgeted test completed.  A partial detection is never
        cached, so a later clean run recomputes it.  A source's site map
        comes from its first detection hit's head; a source that has a
        unit is parsed here, and its table supplies the map when no hit
        did.
        """
        outcomes = [
            SubjectOutcome(spec=spec, program=programs[i], synthesis=None)
            for i, spec in enumerate(specs)
        ]
        config_dict = self.config.to_dict()
        units: list[PoolUnit] = []
        # Unit key -> (spec index, synthesis key, detection key).
        slots: dict[str, tuple[int, str, str]] = {}
        # A spec whose key an earlier spec already has (one subject
        # named twice) gets that spec's outcome instead of its own unit.
        first_by_key: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []
        for i, spec in enumerate(specs):
            program = programs[i]
            synth_key, detect_key = spec_keys(
                program.digest, spec.target_class, self.config
            )
            key = detect_key if detect else synth_key
            if key in first_by_key:
                duplicates.append((i, first_by_key[key]))
                continue
            first_by_key[key] = i
            outcome = outcomes[i]
            entry = detection_entry = hit = None
            if self.cache is not None:
                entry = self.cache.get("synthesis", synth_key)
                if detect and entry is not None:
                    detection_entry = self.cache.get("detection", detect_key)
            if entry is not None:
                # Tests that fuzz read every plan: decode them now, while
                # a bad entry can still be recomputed.
                hit = self._synthesis_hit(
                    synth_key, entry, detect and detection_entry is None
                )
            if hit is not None and detection_entry is not None:
                try:
                    detection = decode_detection(
                        detection_entry,
                        hit[1].tests,
                        detection_entry.text,
                        self.cache.rejecter("detection", detect_key),
                    )
                    if program._sites is None:
                        program._sites = decode_sites(detection_entry)
                except Exception as error:  # noqa: BLE001 — quarantined here
                    self.cache.reject(
                        "detection", detect_key, f"decode failure: {error!r}"
                    )
                    hit = self._synthesis_hit(synth_key, entry, True)
                else:
                    outcome.detection = detection
                    outcome.detection_cached = True
                    outcome._detection_digest = detection_entry.get("digest")
            payload = None
            if hit is not None:
                payload, outcome.synthesis = hit
                outcome.synthesis_cached = True
                outcome._synthesis_digest = payload.get("digest")
                if not detect or outcome.detection_cached:
                    continue
            unit = PoolUnit(
                key=key,
                stage="synthesis" if outcome.synthesis is None else "fuzz",
                subject=spec.name,
                name=spec.target_class,
            )
            if self.jobs > 1:
                unit.fn = _subject_worker
                unit.args = (
                    spec.source,
                    spec.target_class,
                    config_dict,
                    payload,
                    detect,
                )
            slots[key] = (i, synth_key, detect_key)
            units.append(unit)
        for unit in units:
            # Parse in the parent, before any unit runs: a source that
            # does not parse raises here, and the parent holds the site
            # map of every detection it writes.
            programs[slots[unit.key][0]].table

        def inline_unit(unit: PoolUnit):
            i = slots[unit.key][0]
            return _subject_unit(
                programs[i].table,
                specs[i].target_class,
                self.config,
                outcomes[i].synthesis,
                detect,
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            i, synth_key, detect_key = slots[unit.key]
            outcome = outcomes[i]
            if isinstance(payload, dict):  # a pool worker's encoded reply
                synth_data = payload["synthesis"]
                detect_data = payload["detection"]
                failures = payload["failures"]
                synthesis = outcome.synthesis
                if synth_data is not None:
                    synthesis = decode_synthesis(synth_data)
                detection = None
                if detect_data is not None:
                    detection = decode_detection(detect_data, synthesis.tests)
            else:
                synthesis, detection, failures = payload
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
            if detection is not None and not failures and self.cache is not None:
                outcome._detection_digest = self._put_report(
                    "detection",
                    detect_key,
                    detect_data or encode_detection(detection),
                    programs[i].sites,
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
        programs = _programs(specs)
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

    def run_stream(self, specs: list[SubjectSpec]):
        """Corpus-scale :meth:`run`: yield outcomes in spec order, in waves.

        ``run`` holds every subject's synthesis and fuzz artifacts alive
        until the whole list finishes — fine for nine subjects, hostile
        to hundreds.  This generator cuts the spec list into waves of
        :data:`WAVE_SIZE`, runs each wave through the normal (cached,
        fault-tolerant, deterministic) ``run``, and yields outcomes as
        each wave completes, so a caller that scores-and-drops keeps at
        most one wave's reports in memory.

        Results are identical to one big ``run``: work units are pure
        functions of (source, target class, config), so wave boundaries
        cannot change what any unit computes — only when it runs.  The
        per-``run`` fault ledgers are absorbed into one aggregate, left
        on :attr:`fault_ledger` when the stream is exhausted.
        """
        aggregate = FaultLedger()
        for start in range(0, len(specs), WAVE_SIZE):
            yield from self.run(specs[start : start + WAVE_SIZE])
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
