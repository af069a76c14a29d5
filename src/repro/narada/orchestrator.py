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

Every stage is backed by the persistent content-addressed
:class:`~repro.narada.cache.ArtifactCache`: analysis, synthesis,
per-test fuzz, and detection artifacts are keyed by (table digest,
stage config, code salt), so a rerun with unchanged subjects skips
straight to the first invalidated stage.

Since the fault-tolerance PR the execution substrate is
:mod:`repro.narada.faults`: worker death, hung units, and unit
exceptions are isolated per unit, retried with backoff, and — when
retries are exhausted — recorded as :class:`UnitFailure` entries in the
run's :class:`FaultLedger` while every other unit proceeds.  ``run()``
therefore returns *partial* results on a bad day instead of raising on
the first casualty; completed unit keys are journaled to a crash-safe
:class:`RunLedger` so an interrupted run can ``--resume`` past its
finished work.
"""

from __future__ import annotations

import functools
import hashlib
import pathlib
from dataclasses import dataclass, field

from repro.fuzz import RaceFuzzer
from repro.lang import ClassTable, load
from repro.narada.cache import ArtifactCache, stage_key, table_digest
from repro.narada.faults import (
    DEFAULT_BATCH_TARGET_MS,
    CancelToken,
    FaultInjector,
    FaultLedger,
    FaultTolerantPool,
    InlineRunner,
    PoolUnit,
    RetryPolicy,
    RunLedger,
    UnitExecutionError,
)
from repro.narada.pipeline import DetectionReport, Narada, SynthesisReport
from repro.narada.serial import (
    canonical_json,
    decode_analysis,
    decode_detection,
    decode_fuzz_bundle,
    decode_seed_traces,
    decode_synthesis,
    encode_analysis,
    encode_detection,
    encode_fuzz_bundle,
    decode_static_facts,
    encode_seed_traces,
    encode_static_facts,
    encode_synthesis,
    encode_test_bundle,
    report_digest,
)
from repro.static.filter import allocate_budgets, verdict_index


@dataclass(frozen=True)
class SubjectSpec:
    """One unit of per-subject work: a program and its analyzed class."""

    name: str
    source: str
    target_class: str


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a work unit's result may depend on (and nothing else).

    The fault-tolerance knobs (``unit_timeout``, ``max_retries``,
    ``retry_backoff``, ``fault_inject``) deliberately stay *out* of the
    per-stage cache-key configs below: how patiently a unit was babysat
    never changes what the unit computes, so toggling them must not
    invalidate artifacts.  ``batch_ms`` — the per-dispatch work target
    of the batched pool — stays out for the same reason: batch
    boundaries change when a unit runs, never what it computes.
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
    batch_ms: float = DEFAULT_BATCH_TARGET_MS

    def analysis_config(self) -> dict:
        return {"vm_seed": self.vm_seed}

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
            "batch_ms": self.batch_ms,
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
    #: The subject's parsed class table, shared by every spec of the run
    #: with the same source; scorers read it instead of parsing again.
    table: ClassTable | None = field(default=None, repr=False, compare=False)
    _synthesis_dict: dict | None = field(default=None, repr=False)
    _detection_dict: dict | None = field(default=None, repr=False)

    @property
    def synthesis_dict(self) -> dict | None:
        if self._synthesis_dict is None and self.synthesis is not None:
            self._synthesis_dict = encode_synthesis(self.synthesis)
        return self._synthesis_dict

    @property
    def detection_dict(self) -> dict | None:
        if self._detection_dict is None and self.detection is not None:
            self._detection_dict = encode_detection(self.detection)
        return self._detection_dict

    def digest(self) -> str:
        """Content digest of this subject's serialized reports."""
        if self.synthesis is None:
            return "failed"
        parts = [report_digest(self.synthesis_dict)]
        if self.detection is not None:
            parts.append(report_digest(self.detection_dict))
        return "/".join(parts)


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
    :meth:`PipelineOrchestrator.run` hands its units the tables it
    parsed."""
    return load(source)


def _synthesize_unit(
    table: ClassTable,
    target_class: str,
    config: PipelineConfig,
    cache_root: str | None,
) -> SynthesisReport:
    """Stages 0-3 for one subject, reusing cached stage-0/1 artifacts.

    Two cached stages feed this unit: ``seedtrace`` (the packed seed
    traces — stage 0) and ``analysis`` (the method summaries — stage 1).
    Both key on the analysis config since traces depend only on the VM
    seed.  A cached analysis skips seed execution entirely; a cached
    seedtrace alone still skips the (interpreter-bound) seed runs while
    the analyzer streams the restored columns.
    """
    narada = Narada(
        table,
        seed=config.vm_seed,
        rng_seed=config.rng_seed,
        static_filter=config.static_filter,
    )
    cache = (
        ArtifactCache(cache_root, fault_injector=config.injector())
        if cache_root is not None
        else None
    )
    if cache is not None:
        dig = table_digest(table)
        analysis_key = stage_key(dig, "analysis", config.analysis_config())
        trace_key = stage_key(dig, "seedtrace", config.analysis_config())
        cached = cache.get("analysis", analysis_key)
        if cached is not None:
            narada.use_analysis(decode_analysis(cached))
        else:
            cached_traces = cache.get("seedtrace", trace_key)
            if cached_traces is not None:
                narada.use_seed_traces(decode_seed_traces(cached_traces))
        facts_key = None
        if config.static_filter:
            # The lockset facts depend only on the program text, so the
            # staticfilter stage keys on the table digest alone.
            facts_key = stage_key(dig, "staticfilter", {})
            cached_facts = cache.get("staticfilter", facts_key)
            if cached_facts is not None:
                narada.use_static_facts(decode_static_facts(cached_facts))
        report = narada.synthesize_for_class(target_class)
        if cached is None:
            cache.put("analysis", analysis_key, encode_analysis(narada.analysis()))
            if cache.get("seedtrace", trace_key) is None:
                cache.put(
                    "seedtrace",
                    trace_key,
                    encode_seed_traces(narada.run_seed_suite()),
                )
        if facts_key is not None and cache.get("staticfilter", facts_key) is None:
            cache.put(
                "staticfilter",
                facts_key,
                encode_static_facts(narada.static_facts()),
            )
        return report
    return narada.synthesize_for_class(target_class)


def _synthesize_worker(
    source: str,
    target_class: str,
    config: dict,
    cache_root: str | None,
    unit_key: str = "",
    attempt: int = 0,
) -> dict:
    cfg = PipelineConfig.from_dict(config)
    injector = cfg.injector()
    if injector is not None:
        injector.before_unit(unit_key, attempt, in_worker=True)
    report = _synthesize_unit(
        _load_table(source), target_class, cfg, cache_root
    )
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


def _parse_specs(
    specs: list[SubjectSpec],
) -> tuple[list[ClassTable], list[str]]:
    """Per spec, its class table and table digest.

    Each distinct source is parsed once, so specs that share a source
    (one spec per class of one program) share one table.
    """
    parsed: dict[str, tuple[ClassTable, str]] = {}
    for spec in specs:
        if spec.source not in parsed:
            table = load(spec.source)
            parsed[spec.source] = (table, table_digest(table))
    pairs = [parsed[spec.source] for spec in specs]
    return [table for table, _ in pairs], [dig for _, dig in pairs]


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
        resume: skip units journaled as completed by a previous
            (interrupted) run of the same specs + config; requires a
            cache, since that is where the completed results live.
        run_dir: where the resume journal lives (default:
            ``<cache root>/runs``).
        pool: an externally owned :class:`FaultTolerantPool` to dispatch
            on instead of creating one.  The daemon uses this to share
            one warm pool (live workers, warm batch-cost model) across
            every request's orchestrator; a borrowed pool is never
            closed by :meth:`close`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ArtifactCache | None = None,
        config: PipelineConfig | None = None,
        resume: bool = False,
        run_dir: str | pathlib.Path | None = None,
        pool: FaultTolerantPool | None = None,
        cancel: CancelToken | None = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.config = config if config is not None else PipelineConfig()
        self.resume = resume
        self.run_dir = run_dir
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
        if resume and cache is None:
            raise ValueError(
                "resume requires the artifact cache: completed units are "
                "replayed from it (run without --no-cache)"
            )
        if cache is not None:
            cache.fault_injector = self.config.injector()

    # -- lifecycle -----------------------------------------------------

    def _executor(self) -> FaultTolerantPool:
        if self._pool is None:
            self._pool = FaultTolerantPool(
                self.jobs,
                self.config.retry_policy(),
                self.fault_ledger,
                batch_target_ms=self.config.batch_ms,
            )
        else:
            # One warm pool serves every phase, wave, and (under the
            # daemon) request: point it at the current run's ledger and
            # retry policy without touching its live workers or its
            # batch-cost model.
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

    @property
    def _cache_root(self) -> str | None:
        return None if self.cache is None else str(self.cache.root)

    def _get(self, stage: str, key: str) -> dict | None:
        return None if self.cache is None else self.cache.get(stage, key)

    def _get_decoded(self, stage: str, key: str, decoder):
        """Cached ``(decoded, raw dict)`` or None; bad entries quarantine.

        The cache layer already quarantines unreadable JSON; this adds
        the same treatment for entries that parse but fail to *decode*
        (a structurally valid payload from a semantically incompatible
        writer) — recompute, never crash.
        """
        data = self._get(stage, key)
        if data is None:
            return None
        try:
            return decoder(data), data
        except Exception as error:  # noqa: BLE001 — quarantined below
            if self.cache is not None:
                self.cache.quarantine(stage, key, f"decode failure: {error!r}")
            return None

    def _put(self, stage: str, key: str, data: dict) -> None:
        if self.cache is not None:
            self.cache.put(stage, key, data)

    # -- fault plumbing ------------------------------------------------

    def _run_units(
        self, units: list[PoolUnit], inline_fn, on_complete=None
    ) -> dict[str, object]:
        """Execute units under the fault policy; ``{key: payload}``.

        ``on_complete(unit, payload)`` fires in the parent as each unit
        finishes — publication and journaling happen there, per unit,
        so a kill mid-batch checkpoints everything already completed.
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

    def _open_journal(self, digests: list[str]) -> RunLedger | None:
        """The resume journal for this (specs, config) identity."""
        if self.cache is None:
            return None
        ident = canonical_json(
            {
                "digests": sorted(digests),
                "config": {
                    "vm_seed": self.config.vm_seed,
                    "rng_seed": self.config.rng_seed,
                    "random_runs": self.config.random_runs,
                    "directed": self.config.directed,
                },
            }
        )
        run_id = hashlib.sha256(ident.encode()).hexdigest()[:16]
        base = (
            pathlib.Path(self.run_dir)
            if self.run_dir is not None
            else self.cache.root / "runs"
        )
        return RunLedger(base / f"run-{run_id}.jsonl", resume=self.resume)

    def _mark_done(
        self,
        journal: RunLedger | None,
        key: str,
        stage: str,
        subject: str,
        from_cache: bool = False,
    ) -> None:
        if journal is None:
            return
        if from_cache and self.resume and journal.has(key):
            self.fault_ledger.resumed += 1
        journal.mark_done(key, stage, subject)

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
        tables: list[ClassTable],
        keys: list[str],
        journal: RunLedger | None,
    ) -> list[tuple[SynthesisReport, dict | None, bool] | None]:
        """Per spec: (report, encoded dict when one exists, cache hit?),
        or None for a permanently failed synthesis unit."""
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
                self._mark_done(
                    journal, keys[i], "synthesis", spec.name, from_cache=True
                )
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
                                self._cache_root,
                            ),
                        ),
                    )
                )
        index_by_key = {unit.key: i for i, unit in pending}

        def inline_synthesis(unit: PoolUnit):
            i = index_by_key[unit.key]
            return _synthesize_unit(
                tables[i], specs[i].target_class, self.config, self._cache_root
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            if isinstance(payload, dict):
                report, data = decode_synthesis(payload), payload
            else:
                report, data = payload, encode_synthesis(payload)
            self._put("synthesis", unit.key, data)
            self._mark_done(journal, unit.key, "synthesis", unit.subject)
            results[index_by_key[unit.key]] = (report, data, False)

        self._run_units(
            [u for _, u in pending], inline_synthesis, on_complete
        )
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
        failed detection phase resume without re-fuzzing finished tests.
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
        tables: list[ClassTable],
        keys: list[str],
        syntheses: list[SynthesisReport | None],
        digests: list[str],
        journal: RunLedger | None,
    ) -> list[tuple[DetectionReport, dict | None, bool, bool] | None]:
        """Per spec: (report, encoded dict, cache hit?, partial?), or
        None when the subject had no synthesis to detect against."""
        results: list = [None] * len(specs)
        config_dict = self.config.to_dict()
        pending: list[PoolUnit] = []
        # Unit key -> every (spec index, test) the unit's report fills.
        meta: dict[str, list[tuple[int, object]]] = {}
        reports: dict[int, dict[str, object]] = {}
        budgets_by_spec: dict[int, dict] = {}
        for i, spec in enumerate(specs):
            if syntheses[i] is None:
                continue  # synthesis failed; nothing to fuzz
            cached = self._get_decoded("detection", keys[i], decode_detection)
            if cached is not None:
                results[i] = (cached[0], cached[1], True, False)
                self._mark_done(
                    journal, keys[i], "detection", spec.name, from_cache=True
                )
                continue
            reports[i] = {}
            budgets = allocate_budgets(
                syntheses[i].tests,
                verdict_index(syntheses[i]),
                self.config.random_runs,
            )
            budgets_by_spec[i] = budgets
            for test in syntheses[i].tests:
                budget = budgets[test.name]
                if budget.runs == 0:
                    continue  # all covered pairs statically pruned
                ukey = self._fuzzunit_key(
                    digests[i], spec.target_class, test.name, budget.runs
                )
                unit_cached = self._get_decoded(
                    "fuzzunit", ukey, decode_fuzz_bundle
                )
                if unit_cached is not None:
                    reports[i][test.name] = unit_cached[0]
                    self._mark_done(
                        journal, ukey, "fuzz", spec.name, from_cache=True
                    )
                    continue
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

        def inline_fuzz(unit: PoolUnit):
            i, test = meta[unit.key][0]
            budget = budgets_by_spec[i][test.name]
            return _fuzz_unit(
                tables[i],
                test,
                self.config,
                runs=budget.runs,
                rank_score=budget.score,
            )

        def on_complete(unit: PoolUnit, payload) -> None:
            if isinstance(payload, dict):
                fuzz, data = decode_fuzz_bundle(payload), payload
            else:
                fuzz, data = payload, None
            if self.cache is not None:
                self._put(
                    "fuzzunit", unit.key, data or encode_fuzz_bundle(fuzz)
                )
            self._mark_done(journal, unit.key, "fuzz", unit.subject)
            for i, test in meta[unit.key]:
                reports[i][test.name] = fuzz

        self._run_units(pending, inline_fuzz, on_complete)
        for i, per_test in reports.items():
            detection = DetectionReport(class_name=specs[i].target_class)
            complete = True
            for test in syntheses[i].tests:
                if budgets_by_spec[i][test.name].runs == 0:
                    detection.pruned_tests += 1
                    continue
                fuzz = per_test.get(test.name)
                if fuzz is None:
                    complete = False
                    continue
                detection.add(fuzz)
            if complete:
                data = (
                    encode_detection(detection)
                    if self.cache is not None
                    else None
                )
                if data is not None:
                    self._put("detection", keys[i], data)
                self._mark_done(journal, keys[i], "detection", specs[i].name)
                results[i] = (detection, data, False, False)
            else:
                # Graceful degradation: every successful test's fuzz
                # report is kept; the subject-level artifact is NOT
                # cached, so a later clean run recomputes the holes
                # instead of replaying a partial result forever.
                results[i] = (detection, None, False, True)
        return results

    def detect(
        self, spec: SubjectSpec, synthesis: SynthesisReport
    ) -> DetectionReport:
        """Detection for one already-synthesized subject.

        Like :meth:`synthesize`, the single-subject API keeps the
        raise-on-failure contract of the serial fuzz loop.
        """
        self.fault_ledger = FaultLedger()
        tables, digests = _parse_specs([spec])
        key = stage_key(
            digests[0],
            "detection",
            self.config.detection_config(spec.target_class),
        )
        journal = self._open_journal(digests)
        try:
            result = self._detection_phase(
                [spec], tables, [key], [synthesis], digests, journal
            )[0]
        finally:
            if journal is not None:
                journal.close()
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
        of everything that failed, was retried, timed out, was
        quarantined, or was skipped via ``resume``.
        """
        ledger = self.fault_ledger = FaultLedger()
        quarantined_before = (
            self.cache.stats.quarantined if self.cache is not None else 0
        )
        tables, digests = _parse_specs(specs)
        journal = self._open_journal(digests)
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
            synthesis = self._synthesis_phase(
                specs, tables, synth_keys, journal
            )
            outcomes = [
                SubjectOutcome(
                    spec=spec,
                    table=tables[i],
                    synthesis=synthesis[i][0] if synthesis[i] else None,
                    synthesis_cached=bool(synthesis[i] and synthesis[i][2]),
                    _synthesis_dict=synthesis[i][1] if synthesis[i] else None,
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
                    tables,
                    detect_keys,
                    [o.synthesis for o in outcomes],
                    digests,
                    journal,
                )
                for outcome, result in zip(outcomes, detections):
                    if result is None:
                        continue
                    report, data, hit, partial = result
                    outcome.detection = report
                    outcome.detection_cached = hit
                    outcome.detection_partial = partial
                    outcome._detection_dict = data
        finally:
            if journal is not None:
                journal.close()
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
