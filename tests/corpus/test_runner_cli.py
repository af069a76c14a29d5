"""End-to-end harness + CLI smoke for the generated corpus."""

import json

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, run_corpus
from repro.narada import PipelineConfig, PipelineOrchestrator


class TestRunCorpus:
    def test_small_corpus_scores_perfect_recall(self):
        config = CorpusConfig(seed=5, count=4)
        with PipelineOrchestrator(
            jobs=1, cache=None, config=PipelineConfig(random_runs=2)
        ) as orch:
            result = run_corpus(config, orch)
        assert result.subjects == 4
        assert result.recall == 1.0
        assert result.missed_races == 0
        assert result.problems() == []
        assert sorted(result.digests) == [s.key for s in result.scores]


class TestCorpusCli:
    def test_generate_writes_source_and_oracle_files(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code = main(["corpus", "generate", "--count", "2", "--out", str(out)])
        assert code == 0
        assert "wrote 2 subject(s)" in capsys.readouterr().out
        source = (out / "G000.minij").read_text()
        assert "class Gen000" in source
        oracle = json.loads((out / "G000.oracle.json").read_text())
        assert oracle["class_name"] == "Gen000"
        assert isinstance(oracle["races"], list)

    def test_run_exits_zero_and_reports_recall(self, capsys):
        code = main(
            ["corpus", "run", "--count", "2", "--runs", "2", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recall 1.000" in out

    def test_generate_rejects_unknown_template(self, capsys):
        with pytest.raises(SystemExit, match="unknown template"):
            main(["corpus", "generate", "--count", "1", "--templates", "nope"])
