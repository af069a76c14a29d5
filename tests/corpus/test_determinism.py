"""Determinism: same seed + config => byte-identical corpus and results.

The generator's contract (see ``repro.corpus.generator``) is that
subject ``i`` of seed ``s`` depends only on ``(s, i)`` — regeneration,
count extension, and pipeline parallelism must all be invisible.
"""

import repro.narada.orchestrator as orch_mod
from repro.corpus import CorpusConfig, generate_corpus, run_corpus
from repro.narada import PipelineConfig, PipelineOrchestrator


def _fingerprint(config: CorpusConfig):
    return [
        (s.key, s.source, s.verdict.to_dict())
        for s in generate_corpus(config)
    ]


class TestGenerationDeterminism:
    def test_regeneration_is_byte_identical(self):
        config = CorpusConfig(seed=7, count=30)
        assert _fingerprint(config) == _fingerprint(config)

    def test_count_extension_preserves_the_prefix(self):
        """Growing --count never perturbs already-generated subjects."""
        short = generate_corpus(CorpusConfig(seed=7, count=10))
        long = generate_corpus(CorpusConfig(seed=7, count=30))
        assert [(s.key, s.source) for s in short] == [
            (s.key, s.source) for s in long[:10]
        ]

    def test_different_seeds_produce_different_corpora(self):
        a = generate_corpus(CorpusConfig(seed=0, count=5))
        b = generate_corpus(CorpusConfig(seed=1, count=5))
        assert [s.source for s in a] != [s.source for s in b]


class TestPipelineDeterminism:
    def test_outcome_digests_identical_across_jobs(self, monkeypatch):
        """--jobs 2 must be bit-identical to inline execution."""
        monkeypatch.setattr(orch_mod, "WAVE_SIZE", 2)
        config = CorpusConfig(seed=3, count=3)
        results = {}
        for jobs in (1, 2):
            with PipelineOrchestrator(
                jobs=jobs,
                cache=None,
                config=PipelineConfig(random_runs=2),
            ) as orch:
                results[jobs] = run_corpus(config, orch)
        assert results[1].digests == results[2].digests
        assert results[1].recall == results[2].recall == 1.0

    def test_batch_size_does_not_change_results(self, monkeypatch):
        """Wave boundaries (one wave per subject, or one for all four)
        never change a result."""
        config = CorpusConfig(seed=3, count=4)
        digests = {}
        for wave_size in (1, 4):
            monkeypatch.setattr(orch_mod, "WAVE_SIZE", wave_size)
            with PipelineOrchestrator(
                jobs=1,
                cache=None,
                config=PipelineConfig(random_runs=2),
            ) as orch:
                digests[wave_size] = run_corpus(config, orch).digests
        assert digests[1] == digests[4]
