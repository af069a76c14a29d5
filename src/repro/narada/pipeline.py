"""The end-to-end Narada pipeline (Fig. 6 of the paper).

    sequential seed tests ──► Access Analyzer ──► Pair Generator
                                   │                   │
                                   ▼                   ▼
                             Context Deriver ──► Test Synthesizer ──► racy tests

plus the integration with the RaceFuzzer-style detector backend that the
paper's Table 5 evaluates.  The detector backend runs its whole stack
(FastTrack + Eraser + adjacency probe) as one sweep of the
analysis engine (:mod:`repro.analysis.sweep`); recorder interest sets
and fuzz memo digests are both derived there, so the pipeline layers
never hard-code per-detector event lists.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.analysis import AnalysisResult, analyze_traces
from repro.context import derive_plans
from repro.context.plan import TestPlan
from repro.fuzz import FuzzReport, RaceFuzzer
from repro.lang import ClassTable, load, pretty_class
from repro.pairs import RacyPair, generate_pairs
from repro.runtime import VM
from repro.synth import SynthesizedTest, TestSynthesizer
from repro.trace import ColumnarRecorder, PackedTrace


@dataclass
class SynthesisReport:
    """Table-4 shaped output for one analyzed class."""

    class_name: str
    method_count: int
    loc: int
    pairs: list[RacyPair]
    plans: list[TestPlan]
    tests: list[SynthesizedTest]
    seconds: float
    verdicts: list = field(default_factory=list)
    """Per-pair :class:`repro.static.filter.PairVerdict`, aligned with
    ``pairs``.  Empty when the static pre-filter was off."""

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def pruned_pair_count(self) -> int:
        return sum(1 for v in self.verdicts if v.pruned)

    @property
    def test_count(self) -> int:
        return len(self.tests)

    def full_context_tests(self) -> list[SynthesizedTest]:
        return [t for t in self.tests if t.plan.full_context]

    def to_dict(self) -> dict:
        """Canonical dict form (see :mod:`repro.narada.serial`)."""
        from repro.narada.serial import encode_synthesis

        return encode_synthesis(self)


@dataclass
class DetectionReport:
    """Table-5 shaped output for one analyzed class.

    The merged per-race view backing every aggregate property is
    memoized: building it walks every record of every fuzz report, and
    the table/CLI layers read several properties back to back.  Add fuzz
    reports through :meth:`add` (or call :meth:`invalidate` after
    mutating :attr:`fuzz_reports` directly) so the memo is dropped at
    the mutation point rather than silently serving stale counts.
    """

    class_name: str
    fuzz_reports: list[FuzzReport] = field(default_factory=list)
    pruned_tests: int = 0
    """Synthesized tests skipped because every covered pair was
    statically pruned (zero fuzz budget)."""
    _union_memo: dict | None = field(
        default=None, repr=False, compare=False
    )

    def add(self, report: FuzzReport) -> None:
        """Append a fuzz report and invalidate the merged-race memo."""
        self.fuzz_reports.append(report)
        self.invalidate()

    def invalidate(self) -> None:
        """Drop the memoized union after out-of-band mutation."""
        self._union_memo = None

    def _union_records(self):
        if self._union_memo is not None:
            return self._union_memo
        merged: dict[tuple, tuple] = {}
        for report in self.fuzz_reports:
            for record in report.detected:
                key = record.static_key()
                if key not in merged:
                    reproduced = key in report.reproduced
                    merged[key] = (record, reproduced, report.constant_sites)
                elif key in report.reproduced and not merged[key][1]:
                    merged[key] = (record, True, report.constant_sites)
        self._union_memo = merged
        return merged

    @property
    def detected(self) -> int:
        return len(self._union_records())

    @property
    def reproduced(self) -> int:
        return sum(1 for _, repro, _ in self._union_records().values() if repro)

    @property
    def harmful(self) -> int:
        return sum(
            1
            for record, repro, sites in self._union_records().values()
            if repro and not record.is_benign(sites)
        )

    @property
    def benign(self) -> int:
        return sum(
            1
            for record, repro, sites in self._union_records().values()
            if repro and record.is_benign(sites)
        )

    @property
    def manual_tp(self) -> int:
        """Unreproduced races flagged by the precise HB detector: races a
        human triage would confirm (the paper found 44/48 such)."""
        return sum(
            1
            for record, repro, _ in self._union_records().values()
            if not repro and record.detector == "fasttrack"
        )

    @property
    def manual_fp(self) -> int:
        """Unreproduced lockset-only reports: detector imprecision."""
        return sum(
            1
            for record, repro, _ in self._union_records().values()
            if not repro and record.detector != "fasttrack"
        )

    def races_per_test(self) -> list[int]:
        """Race count of each test (Figure 14's distribution input)."""
        return [len(report.detected) for report in self.fuzz_reports]

    def to_dict(self) -> dict:
        """Canonical dict form (see :mod:`repro.narada.serial`)."""
        from repro.narada.serial import encode_detection

        return encode_detection(self)


class Narada:
    """The complete tool: library + seed suite in, racy tests out."""

    def __init__(
        self,
        source_or_table: str | ClassTable,
        seed: int = 0,
        rng_seed: int | None = None,
        static_filter: bool = True,
    ) -> None:
        self.table = (
            load(source_or_table)
            if isinstance(source_or_table, str)
            else source_or_table
        )
        self.seed = seed
        self.rng_seed = rng_seed
        self.static_filter = static_filter
        self._rng = random.Random(rng_seed) if rng_seed is not None else None
        self._analysis: AnalysisResult | None = None
        self._traces: list[PackedTrace] | None = None
        self._static_facts = None

    # ------------------------------------------------------------------
    # Stage 0/1: seed execution + trace analysis.

    def seed_test_names(self) -> list[str]:
        return [t.name for t in self.table.program.tests]

    def run_seed_suite(self) -> list[PackedTrace]:
        """Execute every seed test sequentially, recording packed traces.

        Recording goes straight into columnar storage — no intermediate
        ``Trace`` event list exists; downstream consumers either stream
        the columns or use the lazy object view.
        """
        if self._traces is not None:
            return self._traces
        traces: list[PackedTrace] = []
        for name in self.seed_test_names():
            vm = VM(self.table, seed=self.seed)
            recorder = ColumnarRecorder(name)
            vm.run_test(name, listeners=(recorder,))
            traces.append(recorder.packed)
        self._traces = traces
        return traces

    def analysis(self) -> AnalysisResult:
        if self._analysis is None:
            self._analysis = analyze_traces(self.run_seed_suite())
        return self._analysis

    def use_analysis(self, analysis: AnalysisResult) -> None:
        """Adopt a precomputed (e.g. cache-restored) analysis result."""
        self._analysis = analysis

    # ------------------------------------------------------------------
    # Stage 2b: static lockset pre-filter.

    def static_facts(self):
        """Lockset facts for the program (computed on first use)."""
        if self._static_facts is None:
            from repro.static.facts import analyze_program

            self._static_facts = analyze_program(self.table)
        return self._static_facts

    # ------------------------------------------------------------------
    # Stages 2+3: pairs, context, synthesis.

    def synthesize_for_class(self, class_name: str) -> SynthesisReport:
        """Run the full synthesis pipeline for one analyzed class."""
        start = time.perf_counter()
        analysis = self.analysis()
        pairs = generate_pairs(
            analysis,
            target_class=class_name,
            facts=self.static_facts() if self.static_filter else None,
            static_filter=self.static_filter,
        )
        plans = derive_plans(pairs, analysis, self.table, rng=self._rng)
        tests = TestSynthesizer(
            self.table, name_prefix=f"{class_name}Racy"
        ).synthesize(plans)
        seconds = time.perf_counter() - start
        decl = self.table.program.class_decl(class_name)
        method_count = len(decl.methods) if decl else 0
        loc = len(pretty_class(decl).splitlines()) if decl else 0
        return SynthesisReport(
            class_name=class_name,
            method_count=method_count,
            loc=loc,
            pairs=list(pairs),
            plans=plans,
            tests=tests,
            seconds=seconds,
            verdicts=list(getattr(pairs, "verdicts", ())),
        )

    def synthesize_all(self) -> list[SynthesisReport]:
        """Synthesize every seeded class, in class-name order."""
        classes = sorted(
            {s.class_name for s in self.analysis() if not self.table.is_builtin(s.class_name)}
        )
        return [self.synthesize_for_class(name) for name in classes]

    # ------------------------------------------------------------------
    # Detector integration (Table 5).

    def detect(
        self,
        report: SynthesisReport,
        random_runs: int = 8,
        directed: bool = True,
        on_error=None,
    ) -> DetectionReport:
        """Fuzz every synthesized test of a class with detectors attached.

        Tests the static filter pruned outright get no fuzz runs.  A test
        whose fuzz raises propagates the error, unless ``on_error`` is
        given: then ``on_error(test, error)`` is called inside the
        ``except`` (it may re-raise) and the report leaves that test out.
        The orchestrator's subject unit runs this loop.
        """
        from repro.static.filter import allocate_budgets, verdict_index

        budgets = allocate_budgets(
            report.tests, verdict_index(report), random_runs
        )
        fuzzer = RaceFuzzer(
            self.table,
            random_runs=random_runs,
            vm_seed=self.seed,
            directed=directed,
        )
        detection = DetectionReport(class_name=report.class_name)
        for test in report.tests:
            budget = budgets[test.name]
            if budget.runs == 0:
                detection.pruned_tests += 1
                continue
            try:
                fuzz = fuzzer.fuzz(test, runs=budget.runs, rank_score=budget.score)
            except Exception as error:
                if on_error is None:
                    raise
                on_error(test, error)
                continue
            detection.add(fuzz)
        return detection
