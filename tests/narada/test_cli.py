"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

COUNTER_SRC = """
class Counter {
  int count;
  void inc() { int t = this.count; this.count = t + 1; }
  int get() { return this.count; }
}
test Seed { Counter c = new Counter(); c.inc(); int n = c.get(); }
"""


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "counter.minij"
    path.write_text(COUNTER_SRC)
    return str(path)


class TestSubjectsCommand:
    def test_lists_nine_subjects(self, capsys):
        assert main(["subjects"]) == 0
        out = capsys.readouterr().out
        for key in [f"C{i}" for i in range(1, 10)]:
            assert f"{key}:" in out

    def test_json_output(self, capsys):
        assert main(["subjects", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 9
        assert rows[0]["key"] == "C1"


class TestAnalyzeCommand:
    def test_analyze_file(self, capsys, counter_file):
        assert main(["analyze", counter_file]) == 0
        out = capsys.readouterr().out
        assert "Counter.inc" in out
        assert "unprot" in out

    def test_analyze_json(self, capsys, counter_file):
        assert main(["analyze", counter_file, "--json"]) == 0
        summaries = json.loads(capsys.readouterr().out)
        methods = {s["method"] for s in summaries}
        assert {"inc", "get"} <= methods

    def test_analyze_subject(self, capsys):
        assert main(["analyze", "--subject", "C9"]) == 0
        assert "CharArrayReader" in capsys.readouterr().out


class TestPairsCommand:
    def test_pairs_file(self, capsys, counter_file):
        assert main(["pairs", counter_file]) == 0
        out = capsys.readouterr().out
        assert "Counter.count" in out
        assert "racing pair(s)" in out

    def test_pairs_json(self, capsys, counter_file):
        assert main(["pairs", counter_file, "--json"]) == 0
        pairs = json.loads(capsys.readouterr().out)
        assert pairs
        assert all(p["field"] == "Counter.count" for p in pairs)


class TestSynthCommand:
    def test_synth_renders_tests(self, capsys, counter_file):
        assert main(["synth", counter_file]) == 0
        out = capsys.readouterr().out
        assert "Thread t1" in out
        assert "t1.start(); t2.start();" in out

    def test_synth_json(self, capsys, counter_file):
        assert main(["synth", counter_file, "--json", "--all"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class"] == "Counter"
        assert data["tests"] == len(data["rendered"])
        assert data["cached"] is False

    def test_synth_replay_says_so(self, capsys, counter_file):
        assert main(["synth", counter_file, "--all"]) == 0
        cold = capsys.readouterr().out
        assert main(["synth", counter_file, "--all"]) == 0
        warm = capsys.readouterr().out
        cold_header, cold_rest = cold.split("\n", 1)
        warm_header, warm_rest = warm.split("\n", 1)
        assert "replayed" not in cold_header
        seconds = cold_header.rsplit(" in ", 1)[1]
        assert warm_header.endswith(
            f"(replayed from the cache; synthesized in {seconds})"
        )
        assert warm_rest == cold_rest
        assert main(["synth", counter_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cached"] is True


class TestFuzzCommand:
    def test_fuzz_finds_counter_race(self, capsys, counter_file):
        assert main(["fuzz", counter_file, "--runs", "3"]) == 0
        out = capsys.readouterr().out
        assert "race(s) detected" in out
        assert "harmful" in out

    def test_fuzz_json(self, capsys, counter_file):
        assert main(["fuzz", counter_file, "--runs", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["detected"] >= 1
        assert data["harmful"] >= 1


class TestPipelineFlags:
    def test_fuzz_jobs_matches_serial(self, capsys, counter_file):
        assert main(["fuzz", counter_file, "--runs", "3", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(
                ["fuzz", counter_file, "--runs", "3", "--json", "--jobs", "2"]
            )
            == 0
        )
        parallel = json.loads(capsys.readouterr().out)
        assert parallel == serial

    def test_no_cache_skips_cache_dir(self, capsys, counter_file, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        assert (
            main(
                [
                    "fuzz",
                    counter_file,
                    "--runs",
                    "2",
                    "--no-cache",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert not cache_dir.exists()

    def test_cache_dir_populated_and_reused(self, capsys, counter_file, tmp_path):
        cache_dir = tmp_path / "cli-cache"
        args = [
            "fuzz",
            counter_file,
            "--runs",
            "2",
            "--json",
            "--cache-dir",
            str(cache_dir),
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert list(cache_dir.rglob("*.json"))
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first


class TestChessCommand:
    def test_chess_exhausts_and_certifies(self, capsys, counter_file):
        assert main(["chess", counter_file, "--tests", "2"]) == 0
        out = capsys.readouterr().out
        assert "exhausted" in out
        assert "certificate=" in out


class TestConTeGeCommand:
    def test_contege_runs(self, capsys, counter_file):
        assert main(["contege", counter_file, "--budget", "30"]) == 0
        out = capsys.readouterr().out
        assert "random tests" in out


class TestErrors:
    def test_missing_target(self):
        with pytest.raises(SystemExit):
            main(["pairs"])

    def test_ambiguous_class(self, tmp_path):
        path = tmp_path / "two.minij"
        path.write_text("class A { } class B { } test T { A a = new A(); }")
        with pytest.raises(SystemExit):
            main(["pairs", str(path)])


_ORCHESTRATION = (
    "--jobs", "--no-cache", "--cache-dir", "--no-static-filter",
    "--unit-timeout", "--max-retries", "--retry-backoff", "--fault-inject",
)

#: Every (command, flag) pair a command accepted without reading it, or
#: that had one value in use and became a constant.
_REMOVED = [
    *((("analyze",), flag) for flag in (*_ORCHESTRATION, "--static-stats")),
    *(
        ((command,), flag)
        for command in ("deadlock", "contege")
        for flag in (*_ORCHESTRATION, "--trace-stats", "--static-stats", "--json")
    ),
    (("synth",), "--static-stats"),
    *(
        ((command,), flag)
        for command in ("chess", "emit")
        for flag in ("--static-stats", "--json")
    ),
    *(
        (command, flag)
        for command in (("corpus", "run"), ("serve",))
        for flag in ("--trace-stats", "--static-stats")
    ),
    (("corpus", "run"), "--batch-size"),
    (("client", "corpus"), "--batch-size"),
    *(
        (("corpus", sub), flag)
        for sub in ("generate", "run")
        for flag in ("--min-templates", "--max-templates")
    ),
]

#: A value for each removed flag that took one.
_VALUES = {
    "--jobs": "2", "--cache-dir": "cache", "--unit-timeout": "1",
    "--max-retries": "1", "--retry-backoff": "0", "--fault-inject": "crash:0",
    "--batch-size": "5", "--min-templates": "2", "--max-templates": "4",
}

_TARGET = ("analyze", "deadlock", "contege", "synth", "chess", "emit")


class TestRemovedFlags:
    @pytest.mark.parametrize(
        "command, flag", _REMOVED, ids=[f"{' '.join(c)} {f}" for c, f in _REMOVED]
    )
    def test_removed_flag_is_a_usage_error(self, command, flag, capsys):
        argv = [*command, *(["--subject", "C8"] if command[0] in _TARGET else [])]
        argv += [flag, *([_VALUES[flag]] if flag in _VALUES else [])]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", [*_ORCHESTRATION, "--static-stats"], ids=lambda f: f"run FILE {f}"
    )
    def test_run_file_mode_refuses_a_subjects_mode_flag(
        self, flag, counter_file, capsys
    ):
        # --jobs 1 is the default value, and is refused all the same.
        value = {**_VALUES, "--jobs": "1"}.get(flag)
        argv = ["run", counter_file, "--runs", "1", flag]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ([value] if value is not None else []))
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: only the --subjects mode takes this flag" in err

    def test_run_file_mode_keeps_trace_stats(self, counter_file, capsys):
        main(["run", counter_file, "--runs", "1", "--trace-stats"])
        assert "-- trace stats --" in capsys.readouterr().out

    def test_run_subjects_mode_keeps_every_flag(self, tmp_path, capsys):
        argv = ["run", "--subjects", "C8", "--runs", "1", "--static-stats"]
        argv += ["--jobs", "1", "--cache-dir", str(tmp_path / "cache")]
        argv += ["--max-retries", "1", "--retry-backoff", "0", "--trace-stats"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "C8:" in out and "-- fault ledger --" in out
        assert (tmp_path / "cache").is_dir()

    def test_analyze_keeps_what_it_reads(self):
        args = build_parser().parse_args(
            ["analyze", "--subject", "C8", "--trace-stats", "--json"]
        )
        assert args.trace_stats and args.json
