"""Parallel pipeline orchestrator with stage caching and fault tolerance.

The Fig. 6 pipeline is embarrassingly parallel at two granularities:

* **per subject** — seed execution, analysis, pair generation, context
  derivation and synthesis of one program are independent of every other
  program, and
* **per test** — the RaceFuzzer loop treats each synthesized test as an
  independent work unit.

The orchestrator fans both out over a process pool while keeping
results **bit-identical to the serial order**:

* work units are pure functions of ``(source text, target class,
  config)`` — never of pool scheduling.  Every fuzz schedule seed is
  derived from ``(test name, run index)`` (see
  :func:`repro.fuzz.racefuzzer.schedule_seed`), and each run's detector
  stack is replayed as one engine sweep keyed by
  :func:`repro.analysis.sweep.memo_key`, so a test fuzzes the same way
  whichever worker picks it up — and the same way on a retry;
* results are assembled in deterministic (subject, test) order from a
  key-addressed result map, so completion order cannot reorder them;
* reports cross the process boundary in the canonical dict form of
  :mod:`repro.narada.serial`;
* ``jobs=1`` bypasses the pool entirely — no pickling, no subprocesses —
  which keeps single-job runs debuggable and exactly as cheap as the old
  serial pipeline.

The run is backed by the persistent content-addressed
:class:`~repro.narada.cache.ArtifactCache`: synthesis, per-test fuzz,
and detection artifacts are keyed by (table digest, stage config, code
salt), so a rerun with unchanged subjects skips straight to the first
invalidated stage.  Only entries a later run reads are written: seed
analysis and lockset facts are recomputed inside the synthesis unit.

Since the fault-tolerance PR the execution substrate is
:mod:`repro.narada.faults`: worker death, hung units, and unit
exceptions are isolated per unit, retried with backoff, and — when
retries are exhausted — recorded as :class:`UnitFailure` entries in the
run's :class:`FaultLedger` while every other unit proceeds.  ``run()``
therefore returns *partial* results on a bad day instead of raising on
the first casualty.  The cache is the run's checkpoint: a synthesis is
published the moment its unit completes, and a subject's detection the
moment its last fuzz unit does.  A subject the run leaves unfinished —
a failed unit, a cancelled or interrupted run — gets one ``fuzzunit``
entry per test it did fuzz, so rerunning the command recomputes only
the units that had not finished.  A SIGKILL skips that last write: it
loses the fuzzed tests of the subjects still in flight.
"""

from __future__ import annotations

import functools
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.fuzz import RaceFuzzer
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
)
from repro.narada.pipeline import DetectionReport, Narada, SynthesisReport
from repro.narada.serial import (
    decode_detection,
    decode_fuzz_bundle,
    decode_synthesis,
    encode_detection,
    encode_fuzz_bundle,
    encode_synthesis,
    encode_test_bundle,
    report_digest,
)
from repro.static.filter import allocate_budgets, verdict_index


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

    ``synthesis`` is None when the synthesis unit failed permanently
    (see :attr:`failures`); ``detection_partial`` marks a detection
    report that is missing the fuzz results of failed units but carries
    every successful one.
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
# Work units.  Module-level so they are picklable by the process pool;
# the inline (jobs=1) path calls the *_unit functions directly and never
# serializes anything.  The trailing ``(unit_key, attempt)`` pair is the
# pool's dispatch envelope: it keys the (test-only) fault injector.


@functools.lru_cache(maxsize=128)
def _load_table(source: str) -> ClassTable:
    """Per-process table cache for pool workers, which receive source
    text.  Workers are persistent across phases, waves, and daemon
    requests, so each worker parses a subject once however many tests
    it fuzzes.  Sized for corpus-scale waves — at 16 entries a
    200-subject corpus run thrashed the cache and re-parsed tables the
    worker had already paid for.  The inline path never calls this:
    its units read the run's :class:`ProgramSource` tables."""
    return load(source)


def _synthesize_unit(
    table: ClassTable, target_class: str, config: PipelineConfig
) -> SynthesisReport:
    """Stages 0-3 for one subject.

    Seed analysis and the lockset facts are recomputed here rather than
    cached: no run reads them back unless one source is synthesized
    again for another class or RNG seed.
    """
    narada = Narada(
        table,
        seed=config.vm_seed,
        rng_seed=config.rng_seed,
        static_filter=config.static_filter,
    )
    return narada.synthesize_for_class(target_class)


def _synthesize_worker(
    source: str,
    target_class: str,
    config: dict,
    unit_key: str = "",
    attempt: int = 0,
) -> dict:
    cfg = PipelineConfig.from_dict(config)
    injector = cfg.injector()
    if injector is not None:
        injector.before_unit(unit_key, attempt, in_worker=True)
    report = _synthesize_unit(_load_table(source), target_class, cfg)
    return encode_synthesis(report)


def _fuzz_unit(
    table: ClassTable,
    test,
    config: PipelineConfig,
    runs: int | None = None,
    rank_score: int = 0,
):
    fuzzer = RaceFuzzer(
        table,
        random_runs=config.random_runs,
        vm_seed=config.vm_seed,
        directed=config.directed,
    )
    return fuzzer.fuzz(test, runs=runs, rank_score=rank_score)


def _fuzz_worker(
    source: str,
    test_bundle: dict,
    config: dict,
    runs: int | None = None,
    rank_score: int = 0,
    unit_key: str = "",
    attempt: int = 0,
) -> dict:
    from repro.narada.serial import decode_test_bundle

    cfg = PipelineConfig.from_dict(config)
    injector = cfg.injector()
    if injector is not None:
        injector.before_unit(unit_key, attempt, in_worker=True)
    table = _load_table(source)
    test = decode_test_bundle(test_bundle)
    report = _fuzz_unit(table, test, cfg, runs=runs, rank_score=rank_score)
    return encode_fuzz_bundle(report)


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
        #: Cooperative cancellation: checked between phases and at every
        #: unit boundary inside the pool/inline runner.  The daemon sets
        #: this to the request's deadline token; a cancelled run raises
        #: :class:`RunCancelled` without poisoning the shared pool
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
            # One warm pool serves every phase, wave, and (under the
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

    def _get(self, stage: str, key: str) -> dict | None:
        return None if self.cache is None else self.cache.get(stage, key)

    def _get_decoded(self, stage: str, key: str, decoder):
        """Cached ``(decoded, stored report digest or None)`` or None;
        bad entries quarantine.

        The cache layer already quarantines unreadable JSON; this adds
        the same treatment for entries that parse but fail to *decode*
        (a structurally valid payload from a semantically incompatible
        writer, or a detection entry naming a test its synthesis lacks)
        — recompute, never crash.
        """
        data = self._get(stage, key)
        if data is None:
            return None
        try:
            return decoder(data), data.get("digest")
        except Exception as error:  # noqa: BLE001 — quarantined below
            self.cache.reject(stage, key, f"decode failure: {error!r}")
            return None

    def _put(self, stage: str, key: str, data: dict) -> None:
        if self.cache is not None:
            self.cache.put(stage, key, data)

    def _put_report(self, stage: str, key: str, data: dict) -> str:
        """Publish a synthesis or detection payload stamped with its
        report digest, which a later hit hands back; the digest."""
        digest = report_digest(data)
        self._put(stage, key, {**data, "digest": digest})
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

    # -- synthesis phase -----------------------------------------------

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

    def _synthesis_phase(
        self,
        specs: list[SubjectSpec],
        programs: list[ProgramSource],
        keys: list[str],
    ) -> list[tuple[SynthesisReport, str | None, bool] | None]:
        """Per spec: (report, its cache entry's digest or None, cache
        hit?), or None for a permanently failed synthesis unit."""
        results: list = [None] * len(specs)
        pending: list[tuple[int, PoolUnit]] = []
        # A spec whose key an earlier spec already has (one subject
        # named twice) gets that spec's result instead of its own unit.
        first_by_key: dict[str, int] = {}
        duplicates: list[tuple[int, int]] = []
        for i, spec in enumerate(specs):
            if keys[i] in first_by_key:
                duplicates.append((i, first_by_key[keys[i]]))
                continue
            first_by_key[keys[i]] = i
            cached = self._get_decoded("synthesis", keys[i], decode_synthesis)
            if cached is not None:
                results[i] = (cached[0], cached[1], True)
            else:
                pending.append(
                    (
                        i,
                        PoolUnit(
                            key=keys[i],
                            stage="synthesis",
                            subject=spec.name,
                            name=spec.target_class,
                            fn=_synthesize_worker,
                            args=(
                                spec.source,
                                spec.target_class,
                                self.config.to_dict(),
                            ),
                        ),
                    )
                )
        index_by_key = {unit.key: i for i, unit in pending}

        def inline_synthesis(unit: PoolUnit):
            i = index_by_key[unit.key]
            return _synthesize_unit(
                programs[i].table, specs[i].target_class, self.config
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            if isinstance(payload, dict):
                report, data = decode_synthesis(payload), payload
            else:
                report, data = payload, None
            digest = None
            if self.cache is not None:
                digest = self._put_report(
                    "synthesis", unit.key, data or encode_synthesis(report)
                )
            results[index_by_key[unit.key]] = (report, digest, False)

        self._run_units([u for _, u in pending], inline_synthesis, on_complete)
        for i, first in duplicates:
            results[i] = results[first]
        return results

    # -- detection phase -----------------------------------------------

    def _fuzzunit_key(
        self, digest: str, target_class: str, test_name: str, runs: int
    ) -> str:
        """Content address of one test's fuzz artifact.

        Finer-grained than the per-subject ``detection`` stage: these
        per-test entries are what lets an interrupted or partially
        failed detection phase's rerun skip the tests that finished.
        ``runs`` is the test's allocated fuzz budget — a budgeted fuzz
        computes a different artifact than a full one, so it must be
        part of the address.
        """
        config = dict(self.config.detection_config(target_class))
        config["test"] = test_name
        config["budget_runs"] = runs
        return stage_key(digest, "fuzzunit", config)

    def _detection_phase(
        self,
        specs: list[SubjectSpec],
        programs: list[ProgramSource],
        keys: list[str],
        syntheses: list[SynthesisReport | None],
    ) -> list[tuple[DetectionReport, str | None, bool, bool] | None]:
        """Per spec: (report, its cache entry's digest or None, cache
        hit?, partial?), or None when the subject had no synthesis to
        detect against.

        A subject's detection entry is published as soon as its last
        fuzz unit completes.  When the phase ends, however it ends, each
        subject still without one gets a ``fuzzunit`` entry for every
        test this run fuzzed for it; a healthy run writes none.
        """
        results: list = [None] * len(specs)
        config_dict = self.config.to_dict()
        pending: list[PoolUnit] = []
        # Unit key -> every (spec index, test) the unit's report fills.
        meta: dict[str, list[tuple[int, object]]] = {}
        reports: dict[int, dict[str, object]] = {}
        budgets_by_spec: dict[int, dict] = {}
        # Spec index -> its fuzz units that have not completed yet.
        waiting: dict[int, int] = {}
        # Keys of the units this run completed, in completion order.
        fuzzed: list[str] = []
        for i, spec in enumerate(specs):
            if syntheses[i] is None:
                continue  # synthesis failed; nothing to fuzz
            tests = syntheses[i].tests
            cached = self._get_decoded(
                "detection", keys[i], lambda data: decode_detection(data, tests)
            )
            if cached is not None:
                results[i] = (cached[0], cached[1], True, False)
                continue
            reports[i] = {}
            waiting[i] = 0
            budgets = allocate_budgets(
                tests, verdict_index(syntheses[i]), self.config.random_runs
            )
            budgets_by_spec[i] = budgets
            for test in tests:
                budget = budgets[test.name]
                if budget.runs == 0:
                    continue  # all covered pairs statically pruned
                ukey = self._fuzzunit_key(
                    programs[i].digest, spec.target_class, test.name, budget.runs
                )
                unit_cached = self._get_decoded(
                    "fuzzunit", ukey, lambda data: decode_fuzz_bundle(data, test)
                )
                if unit_cached is not None:
                    reports[i][test.name] = unit_cached[0]
                    continue
                waiting[i] += 1
                if ukey in meta:
                    # Same test of a subject named twice: one unit.
                    meta[ukey].append((i, test))
                    continue
                meta[ukey] = [(i, test)]
                unit = PoolUnit(
                    key=ukey,
                    stage="fuzz",
                    subject=spec.name,
                    name=test.name,
                )
                if self.jobs > 1:
                    unit.fn = _fuzz_worker
                    unit.args = (
                        spec.source,
                        encode_test_bundle(test),
                        config_dict,
                        budget.runs,
                        budget.score,
                    )
                pending.append(unit)

        def assemble(i: int) -> DetectionReport:
            """Subject ``i``'s report from the tests fuzzed so far."""
            detection = DetectionReport(class_name=specs[i].target_class)
            for test in syntheses[i].tests:
                if budgets_by_spec[i][test.name].runs == 0:
                    detection.pruned_tests += 1
                elif test.name in reports[i]:
                    detection.add(reports[i][test.name])
            return detection

        def publish(i: int) -> None:
            detection = assemble(i)
            digest = None
            if self.cache is not None:
                digest = self._put_report(
                    "detection", keys[i], encode_detection(detection)
                )
            results[i] = (detection, digest, False, False)

        def inline_fuzz(unit: PoolUnit):
            i, test = meta[unit.key][0]
            budget = budgets_by_spec[i][test.name]
            return _fuzz_unit(
                programs[i].table,
                test,
                self.config,
                runs=budget.runs,
                rank_score=budget.score,
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            if isinstance(payload, dict):
                fuzz = decode_fuzz_bundle(payload, meta[unit.key][0][1])
            else:
                fuzz = payload
            fuzzed.append(unit.key)
            for i, test in meta[unit.key]:
                reports[i][test.name] = fuzz
                waiting[i] -= 1
                if waiting[i] == 0:
                    publish(i)

        for i, count in waiting.items():
            if count == 0:
                publish(i)  # every test replayed or pruned
        try:
            self._run_units(pending, inline_fuzz, on_complete)
        finally:
            if self.cache is not None:
                for ukey in fuzzed:
                    if all(results[i] is not None for i, _ in meta[ukey]):
                        continue
                    i, test = meta[ukey][0]
                    fuzz = reports[i][test.name]
                    self._put("fuzzunit", ukey, encode_fuzz_bundle(fuzz))
        for i in reports:
            if results[i] is None:
                # Graceful degradation: every successful test's fuzz
                # report is kept; the subject-level artifact is NOT
                # cached, so a later clean run recomputes the holes
                # instead of replaying a partial result forever.
                results[i] = (assemble(i), None, False, True)
        return results

    def detect(
        self, spec: SubjectSpec, synthesis: SynthesisReport
    ) -> DetectionReport:
        """Detection for one already-synthesized subject.

        Like :meth:`synthesize`, the single-subject API keeps the
        raise-on-failure contract of the serial fuzz loop.
        """
        self.fault_ledger = FaultLedger()
        programs = _parse_specs([spec])
        key = stage_key(
            programs[0].digest,
            "detection",
            self.config.detection_config(spec.target_class),
        )
        result = self._detection_phase([spec], programs, [key], [synthesis])[0]
        if result is None or result[3]:
            mine = [
                f for f in self.fault_ledger.failures if f.subject == spec.name
            ]
            raise UnitExecutionError(mine[0])
        return result[0]

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
        digests = [program.digest for program in programs]
        try:
            if self.cancel is not None:
                self.cancel.check()  # phase boundary
            synth_keys = [
                stage_key(
                    digests[i],
                    "synthesis",
                    self.config.synthesis_config(spec.target_class),
                )
                for i, spec in enumerate(specs)
            ]
            synthesis = self._synthesis_phase(specs, programs, synth_keys)
            outcomes = [
                SubjectOutcome(
                    spec=spec,
                    program=programs[i],
                    synthesis=synthesis[i][0] if synthesis[i] else None,
                    synthesis_cached=bool(synthesis[i] and synthesis[i][2]),
                    _synthesis_digest=synthesis[i][1] if synthesis[i] else None,
                )
                for i, spec in enumerate(specs)
            ]
            if detect:
                if self.cancel is not None:
                    self.cancel.check()  # phase boundary
                detect_keys = [
                    stage_key(
                        digests[i],
                        "detection",
                        self.config.detection_config(spec.target_class),
                    )
                    for i, spec in enumerate(specs)
                ]
                detections = self._detection_phase(
                    specs,
                    programs,
                    detect_keys,
                    [o.synthesis for o in outcomes],
                )
                for outcome, result in zip(outcomes, detections):
                    if result is None:
                        continue
                    report, digest, hit, partial = result
                    outcome.detection = report
                    outcome.detection_cached = hit
                    outcome.detection_partial = partial
                    outcome._detection_digest = digest
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
