"""Each subject's source is parsed once per orchestrator run.

The orchestrator parses every distinct source once, derives the table
digest from that table, hands the table to its inline units, and leaves
it on ``SubjectOutcome.table`` for the corpus scorer.  These tests count
parser entries, so a new re-parse anywhere on the path fails them.
"""

import pytest

from repro.corpus import CorpusConfig, generate_corpus, run_corpus
from repro.lang.parser import Parser
from repro.narada import (
    ArtifactCache,
    PipelineConfig,
    PipelineOrchestrator,
)
from repro.narada.orchestrator import SubjectSpec
from repro.subjects import get_subject

CONFIG = PipelineConfig(random_runs=2)


@pytest.fixture
def parses(monkeypatch):
    """A counter of ``Parser.parse_program`` calls from now on."""
    calls = {"n": 0}
    real = Parser.parse_program

    def counting(self):
        calls["n"] += 1
        return real(self)

    monkeypatch.setattr(Parser, "parse_program", counting)
    return calls


def test_corpus_run_parses_each_subject_once_cold_and_warm(
    tmp_path, parses
):
    config = CorpusConfig(count=10)
    subjects = generate_corpus(config)
    cache = ArtifactCache(tmp_path / "cache")

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        cold = run_corpus(config, orch, subjects=subjects)
    assert parses["n"] == 10

    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, cache=cache, config=CONFIG) as orch:
        warm = run_corpus(config, orch, subjects=subjects)
    assert parses["n"] == 10

    assert cold.recall == warm.recall == 1.0
    assert warm.digests == cold.digests


def test_specs_sharing_a_source_share_one_parse(parses):
    # One spec per class of one program, as Narada.synthesize_all
    # builds them for a fanned-out run.
    source = get_subject("C2").source
    specs = [
        SubjectSpec(name=name, source=source, target_class=name)
        for name in ("ArrayCollection", "SynchronizedCollection")
    ]
    parses["n"] = 0
    with PipelineOrchestrator(jobs=1, config=CONFIG) as orch:
        outcomes = orch.run(specs)
    assert parses["n"] == 1
    assert outcomes[0].table is outcomes[1].table
    assert all(o.detection is not None for o in outcomes)
