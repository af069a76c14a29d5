"""Pipeline-level behaviour pins.

Digests of what the pipeline detects on the nine paper subjects and on a
generated corpus slice, computed from public report fields.  They are
deliberately independent of the serialized report format (no
``report_digest``), so a schema bump leaves them in place while any
change to detection, reproduction, fuzz accounting or recorded traces
moves them.  A change that is meant to keep behaviour identical must
keep every value here unchanged.
"""

import hashlib

import pytest

from repro.corpus import CorpusConfig, run_corpus
from repro.narada import PipelineConfig, PipelineOrchestrator, subject_specs

#: Payload digest per paper subject, ``PipelineConfig(random_runs=1)``.
PAPER_PINS = {
    "C1": "530b5744f258af4196f9498408aceeecd9e4373354f58bf7e6124c29a283fe8d",
    "C2": "c19fb84dbc4f46a18c9cc555b16a14fd7c9d12776d5e7f33bea34d4c7cb6993c",
    "C3": "081f3934fac18889913958b3efa35ba5e62927eb7e68b2da98170775840856f4",
    "C4": "0c6cb7c41e4de4ff5dd04a105f008e1fff3e2a11c81e1d874803e7c9bc3ee648",
    "C5": "4499ebdaa221cba4d88ad46ed538d985b595b0c96c9045481267aa2910450862",
    "C6": "f40b4376c78f6fd01aaf67f7af32d69b0abb3c32c78ba037e843ba74324c21ee",
    "C7": "649aa25b2a9fb7432a3c1f2fdc4f89edd5045b3d0451f3ea9eba7453416d5948",
    "C8": "e19b592fe1646ca0be4ffa7cfb940a46ffd0e4fd2c9a8ceb4aea5054db4e19a3",
    "C9": "217e07852d5ee83f593b561d719fd22d835678b2b0a0d58e86571b8d36c30a4a",
}

#: Combined digest over ``CorpusConfig(seed=0, count=20)``.
CORPUS_PIN = "6ce29a1d1f4937f0200e4535376155dd6e5f1c124fae64c75f6afbaf170bd46c"


def _record_line(record) -> str:
    return repr(
        (
            record.detector,
            record.class_name,
            record.field_name,
            record.address,
            record.first,
            record.second,
        )
    )


def _fuzz_lines(report) -> list[str]:
    lines = [report.test.name]
    lines.extend(_record_line(r) for r in report.detected)
    lines.append(repr((report.detected.dynamic_count, sorted(report.reproduced))))
    lines.append(
        repr(
            (
                report.random_runs,
                report.directed_attempts,
                report.deadlocks,
                report.faults,
                report.timeouts,
            )
        )
    )
    lines.append(
        repr(
            (
                report.trace_events,
                report.packed_bytes,
                report.memo_hits,
                report.memo_misses,
            )
        )
    )
    return lines


def payload_digest(outcome) -> str:
    """sha256 over every fuzz report of one subject outcome, in order."""
    assert outcome.detection is not None, outcome.spec.name
    h = hashlib.sha256()
    for report in outcome.detection.fuzz_reports:
        for line in _fuzz_lines(report):
            h.update(line.encode())
            h.update(b"\n")
    return h.hexdigest()


class _Tee:
    """Orchestrator stand-in that remembers each streamed outcome's payload."""

    def __init__(self, orchestrator) -> None:
        self.orchestrator = orchestrator
        self.payloads: dict[str, str] = {}

    def run_stream(self, *args, **kwargs):
        for outcome in self.orchestrator.run_stream(*args, **kwargs):
            self.payloads[outcome.spec.name] = payload_digest(outcome)
            yield outcome


@pytest.fixture(scope="module")
def paper_payloads():
    config = PipelineConfig(random_runs=1)
    with PipelineOrchestrator(jobs=2, config=config) as orch:
        outcomes = orch.run(subject_specs())
    return {o.spec.name: payload_digest(o) for o in outcomes}


@pytest.mark.parametrize("key", sorted(PAPER_PINS))
def test_paper_subject_payload_pinned(paper_payloads, key):
    assert paper_payloads[key] == PAPER_PINS[key]


def test_corpus_slice_pinned():
    with PipelineOrchestrator(jobs=2) as orch:
        tee = _Tee(orch)
        result = run_corpus(CorpusConfig(seed=0, count=20), tee)
    h = hashlib.sha256()
    for score in sorted(result.scores, key=lambda s: s.key):
        h.update(score.key.encode())
        h.update(tee.payloads[score.key].encode())
        h.update(repr(sorted(score.detected)).encode())
        h.update(repr(sorted(score.pruned_pairs)).encode())
    assert h.hexdigest() == CORPUS_PIN
