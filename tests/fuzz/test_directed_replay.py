"""Directed attempts whose run is already decided are replayed, not run.

A directed run is a function of the test, the leader and where its two
drives stop, so within one ``fuzz()`` call an attempt that resolves to
an executed run folds that run's record instead of preparing, driving
and finishing it again.  The reference here makes every attempt run by
resolving none (``_decided`` patched to None); its reports must equal
the replayed ones field by field.
"""

import dataclasses

import pytest

from repro.corpus import CorpusConfig, run_corpus
from repro.fuzz import FuzzReport, RaceFuzzer, racefuzzer
from repro.narada import PipelineConfig, PipelineOrchestrator, subject_specs
from repro.subjects import get_subject
from repro.synth import TestRunner
from repro.synth.runner import TemplateSource

from tests.fuzz.test_racefuzzer import build
from tests.synth.test_failure_injection import pipeline

#: Node ids in COUNTER's ``inc``: the read and the write of ``count``.
READ, WRITE = 2, 9
#: Node ids in ``safeInc``, which no thread of the inc/inc test runs.
NEVER, NEVER_EITHER = 12, 13

#: The seed calls ``set`` once, but a synthesized setup that shares one
#: Node between two Holders calls it twice and divides by zero.
UNPREPARABLE = """
class Node { int v; }
class Holder {
  Node n;
  int ratio;
  void set(Node x) { this.ratio = 10 / x.v; x.v = x.v - 1; this.n = x; }
  void bump() { this.n.v = this.n.v + 1; }
}
test Seed {
  Holder h = new Holder();
  Node x = new Node();
  x.v = 1;
  h.set(x);
  h.bump();
}
"""


@pytest.fixture
def prepares(monkeypatch):
    """A counter of ``TestRunner.prepare`` calls from now on."""
    calls = {"n": 0}
    real = TestRunner.prepare

    def counting(self, test):
        calls["n"] += 1
        return real(self, test)

    monkeypatch.setattr(TestRunner, "prepare", counting)
    return calls


def run_everything(monkeypatch):
    """Make every directed attempt execute: the reference path."""
    monkeypatch.setattr(racefuzzer, "_decided", lambda *args: None)


def report_fields(report: FuzzReport) -> dict:
    values = {
        f.name: getattr(report, f.name) for f in dataclasses.fields(FuzzReport)
    }
    values["test"] = report.test.name
    return values


def attempts(test, table, sequence) -> tuple[FuzzReport, list[bool]]:
    """Make the directed attempts ``sequence`` of (first, second, leader)
    in one fuzz call's scope; returns the report and what each confirmed."""
    fuzzer = RaceFuzzer(table, random_runs=0)
    template = TemplateSource(table).template(test)
    report = FuzzReport(test=test)
    memo, drives = {}, {}
    confirmed = [
        fuzzer._directed_attempt(
            test, template, report, first, second, leader, memo, drives
        )
        for first, second, leader in sequence
    ]
    return report, confirmed


@pytest.fixture(scope="module")
def counter():
    table, tests = build()
    (test,) = tests
    assert (READ, WRITE) in test.target_sites()
    return table, test


@pytest.mark.parametrize(
    "sequence, confirms",
    [
        # The lead never reaches either site: one run, replayed once.
        ([(NEVER, READ, 0), (NEVER_EITHER, WRITE, 0)], [False, False]),
        # The lead stops at the read; the chase reaches neither site.
        ([(READ, NEVER, 0), (READ, NEVER_EITHER, 0)], [False, False]),
        # The same attempt, confirmed both times.
        ([(READ, WRITE, 1), (READ, WRITE, 1)], [True, True]),
    ],
    ids=["repeated-lead-miss", "chase-miss", "repeated-hit"],
)
def test_an_attempt_with_a_decided_run_is_replayed(
    monkeypatch, counter, prepares, sequence, confirms
):
    table, test = counter
    replayed, confirmed = attempts(test, table, sequence)
    assert prepares["n"] == 1
    assert confirmed == confirms
    assert (replayed.directed_attempts, replayed.memo_hits) == (2, 1)

    run_everything(monkeypatch)
    prepares["n"] = 0
    reference, confirmed = attempts(test, table, sequence)
    assert prepares["n"] == 2
    assert confirmed == confirms
    assert report_fields(replayed) == report_fields(reference)


def test_a_lead_miss_tells_apart_the_sites_it_stepped_past(counter, prepares):
    # The first attempt misses, so the lead ran to its end past both
    # accesses of inc; a later attempt at the read stops there instead.
    table, test = counter
    report, confirmed = attempts(
        test, table, [(NEVER, READ, 0), (READ, WRITE, 0), (NEVER_EITHER, WRITE, 0)]
    )
    assert prepares["n"] == 2
    assert confirmed == [False, True, False]
    assert (report.directed_attempts, report.memo_hits) == (3, 1)


def test_a_failed_prepare_is_made_once_per_fuzz_call(monkeypatch, prepares):
    table, tests = pipeline(UNPREPARABLE)
    unprepared = [t for t in tests if not TestRunner(table).prepare(t).ok]
    assert unprepared
    reports = []
    for test in unprepared:
        prepares["n"] = 0
        reports.append(RaceFuzzer(table, random_runs=2).fuzz(test))
        assert reports[-1].directed_attempts > 1
        assert prepares["n"] == 2 + 1

    run_everything(monkeypatch)
    for test, report in zip(unprepared, reports):
        prepares["n"] = 0
        reference = RaceFuzzer(table, random_runs=2).fuzz(test)
        assert prepares["n"] == 2 + reference.directed_attempts
        assert report_fields(reference) == report_fields(report)


class _Tee:
    """Orchestrator stand-in that keeps each streamed subject's reports."""

    def __init__(self, orchestrator) -> None:
        self.orchestrator = orchestrator
        self.reports: dict[str, list] = {}

    def run_stream(self, specs):
        for outcome in self.orchestrator.run_stream(specs):
            self.reports[outcome.spec.name] = outcome.detection.fuzz_reports
            yield outcome


def paper_reports() -> dict[str, list]:
    config = PipelineConfig(random_runs=1)
    with PipelineOrchestrator(jobs=1, config=config) as orch:
        outcomes = orch.run(subject_specs())
    return {o.spec.name: o.detection.fuzz_reports for o in outcomes}


def corpus_reports() -> dict[str, list]:
    with PipelineOrchestrator(jobs=1) as orch:
        tee = _Tee(orch)
        run_corpus(CorpusConfig(seed=0, count=20), tee)
    return tee.reports


@pytest.mark.parametrize(
    "reports", [paper_reports, corpus_reports], ids=["C1..C9", "corpus-pin"]
)
def test_replayed_reports_equal_the_reference_field_by_field(
    monkeypatch, reports
):
    # The workloads of PAPER_PINS and CORPUS_PIN (tests/integration/
    # test_pipeline_pins.py), inline so that the patch applies.
    replayed = reports()
    run_everything(monkeypatch)
    reference = reports()
    assert replayed.keys() == reference.keys()
    for name in replayed:
        assert [report_fields(r) for r in replayed[name]] == [
            report_fields(r) for r in reference[name]
        ], name


def test_paper_fuzz_executes_476_of_774_directed_attempts(prepares):
    specs = subject_specs([get_subject(k) for k in ("C1", "C3", "C6", "C7", "C9")])
    with PipelineOrchestrator(jobs=1, config=PipelineConfig(random_runs=2)) as orch:
        outcomes = orch.run(specs)
    reports = [r for o in outcomes for r in o.detection.fuzz_reports]
    random_runs = sum(r.random_runs for r in reports)
    assert sum(r.directed_attempts for r in reports) == 774
    assert random_runs == 480
    assert prepares["n"] == 956
    assert prepares["n"] - random_runs == 476
