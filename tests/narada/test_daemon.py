"""Daemon tests: framing, request isolation, warm-cache reuse across
requests, graceful drain, and client reconnect after a restart.

Most tests drive an in-process :class:`ReproDaemon` on a unix socket in
a tmp dir (serve_forever on a thread, clients on the test thread); the
SIGTERM drain test exercises the real ``repro serve`` subprocess the
way an operator would.
"""

import contextlib
import json
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.lang.parser import Parser
from repro.narada import (
    ArtifactCache,
    DaemonClient,
    PipelineConfig,
    PipelineOrchestrator,
    ReproDaemon,
    SubjectSpec,
    default_socket_path,
    subject_specs,
)
from repro.narada.daemon import (
    MAX_FRAME_BYTES,
    ProtocolError,
    parse_tcp,
    recv_frame,
    send_frame,
)
from repro.subjects import get_subject
from tests.narada.test_cache_format import put_parts

RUNS = 2


@contextlib.contextmanager
def _serving(socket_path, cache):
    """An in-process daemon on a unix socket, drained on exit."""
    d = ReproDaemon(socket_path=str(socket_path), jobs=1, cache=cache)
    d.bind()
    server = threading.Thread(target=d.serve_forever, daemon=True)
    server.start()
    try:
        yield d
    finally:
        d.initiate_drain()
        server.join(timeout=30)
    assert not server.is_alive()


@pytest.fixture
def daemon(tmp_path):
    """In-process daemon on a unix socket; drained at teardown."""
    with _serving(tmp_path / "daemon.sock", ArtifactCache(tmp_path / "cache")) as d:
        yield d


def _client(d: ReproDaemon, **kwargs) -> DaemonClient:
    return DaemonClient(socket_path=d.socket_path, **kwargs)


def _source_request(subject) -> dict:
    """A ``detect`` request carrying a generated subject's source."""
    return {
        "op": "detect",
        "source": subject.source,
        "target_class": subject.class_name,
        "runs": RUNS,
    }


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"op": "ping", "n": 1})
            assert recv_frame(b) == {"op": "ping", "n": 1}

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_mid_frame_eof_is_protocol_error(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(struct.pack(">I", 100) + b"short")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)

    def test_oversized_length_is_protocol_error(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="exceeds limit"):
                recv_frame(b)

    def test_non_object_payload_is_protocol_error(self):
        a, b = socket.socketpair()
        with a, b:
            body = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(body)) + body)
            with pytest.raises(ProtocolError, match="not an object"):
                recv_frame(b)

    def test_undecodable_body_is_protocol_error(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack(">I", 3) + b"\xff{{")
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_frame(b)

    def test_parse_tcp(self):
        assert parse_tcp("127.0.0.1:7777") == ("127.0.0.1", 7777)
        with pytest.raises(ValueError, match="expected HOST:PORT"):
            parse_tcp("no-port")

    def test_default_socket_path_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", "/tmp/custom.sock")
        assert default_socket_path() == "/tmp/custom.sock"


class TestRequestHandling:
    def test_ping(self, daemon):
        with _client(daemon) as client:
            response = client.request({"op": "ping"})
        assert response["ok"]
        assert response["protocol"] == 1
        assert response["pid"] == os.getpid()

    def test_unknown_op_is_an_error_response(self, daemon):
        with _client(daemon) as client:
            response = client.request({"op": "explode"})
        assert not response["ok"]
        assert "unknown op" in response["error"]
        # The connection survives an error response.
        with _client(daemon) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_requests_get_isolated_ids_and_ledgers(self, daemon):
        with _client(daemon) as client:
            first = client.request(
                {"op": "detect", "subjects": ["C1"], "runs": RUNS}
            )
            second = client.request(
                {"op": "detect", "subjects": ["C8"], "runs": RUNS}
            )
        assert first["ok"] and second["ok"]
        assert first["request_id"] != second["request_id"]
        # Per-request ledgers: each counts only its own run's units.
        assert first["ledger"] is not second["ledger"]
        assert first["ledger"]["counters"]["completed"] > 0
        assert set(first["subjects"]) == {"C1"}
        assert set(second["subjects"]) == {"C8"}

    def test_warm_cache_hits_across_requests(self, daemon):
        request = {"op": "detect", "subjects": ["C8"], "runs": RUNS}
        with _client(daemon) as client:
            cold = client.request(request)
            warm = client.request(request)
        entry_cold = cold["subjects"]["C8"]
        entry_warm = warm["subjects"]["C8"]
        assert not entry_cold["synthesis_cached"]
        assert entry_warm["synthesis_cached"]
        assert entry_warm["detection_cached"]
        assert entry_warm["digest"] == entry_cold["digest"]
        assert daemon.cache.stats.hits > 0

    def test_digests_match_direct_orchestrator(self, daemon):
        with _client(daemon) as client:
            response = client.request(
                {"op": "detect", "subjects": ["C8"], "runs": RUNS}
            )
        config = PipelineConfig(random_runs=RUNS)
        specs = subject_specs([get_subject("C8")])
        with PipelineOrchestrator(jobs=1, config=config) as orch:
            direct = orch.run(specs)[0].digest()
        assert response["subjects"]["C8"]["digest"] == direct

    def test_adhoc_source_request(self, daemon):
        source = get_subject("C8").source
        with _client(daemon) as client:
            response = client.request(
                {"op": "synthesize", "source": source, "runs": RUNS}
            )
        assert response["ok"]
        (entry,) = response["subjects"].values()
        assert entry["tests"] > 0

    @pytest.mark.parametrize(
        "source,error",
        [
            ("class A { int f; void m() { this.f = ²; } }", "LexError("),
            ("class A { int f = " + "7" * 5000 + "; }", "ParseError("),
        ],
        ids=["non-ascii-digit", "oversized-int-literal"],
    )
    def test_malformed_source_answers_a_source_error(self, daemon, source, error):
        with _client(daemon) as client:
            response = client.request({"op": "synthesize", "source": source})
        assert not response["ok"]
        assert response["error"].startswith(error)

    def test_request_error_reports_not_crashes(self, daemon):
        with _client(daemon) as client:
            response = client.request(
                {"op": "detect", "subjects": ["NOPE99"]}
            )
        assert not response["ok"]
        assert "NOPE99" in response["error"]
        assert daemon.stats.errors == 1

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "synthesize", "source": "class A { int f = ²; }"},
            {"op": "detect", "source": "class A { int f = ; }"},
            {
                "op": "detect",
                "source": "class A { int f = ; }",
                "target_class": "A",
            },
            {"op": "detect", "source": 42},
            {"op": "detect", "subjects": ["NOPE99"]},
            {"op": "detect"},
            {"op": "explode"},
            {"op": "detect", "subjects": ["C8"], "deadline_s": "soon"},
            {"op": "corpus", "count": "many"},
            {"op": "detect", "subjects": ["C8"], "random_runs": "4"},
            {"op": "detect", "subjects": ["C8"], "runs": [1]},
            {"op": "detect", "subjects": ["C8"], "random_runs": -3},
            {"op": "detect", "subjects": ["C8"], "vm_seed": "x"},
            {"op": "detect", "subjects": ["C8"], "vm_seed": 1.5},
            {"op": "detect", "subjects": ["C8"], "rng_seed": "s"},
            {"op": "detect", "subjects": ["C8"], "directed": "no"},
            {"op": "corpus", "count": 1, "batch_size": 0},
            # Fields the op does not read, with well-typed values.
            {"op": "detect", "subjects": ["C8"], "random_runs": 2},
            {"op": "synthesize", "subjects": ["C8"], "rng_seed": 1},
            {"op": "corpus", "count": 1, "batch_size": 25},
            {"op": "corpus", "count": 1, "min_templates": 2},
            {"op": "detect", "subjects": ["C8"], "runz": 2},
            {"op": "ping", "verbose": True},
            # Durations must be numbers of seconds from 0 up: a NaN sleep
            # would hold the run lock for good, and a 1e300 deadline
            # overflows the lock's timeout.
            {"op": "sleep", "seconds": float("nan")},
            {"op": "sleep", "seconds": float("inf")},
            {"op": "sleep", "seconds": -5},
            {"op": "sleep", "seconds": True},
            {"op": "sleep", "seconds": "1"},
            {"op": "sleep", "seconds": 0.01, "deadline_s": float("nan")},
            {"op": "sleep", "seconds": 0.01, "deadline_s": 1e300},
            {"op": "sleep", "seconds": 0.01, "deadline_s": -1},
            {"op": "sleep", "seconds": 0.01, "deadline_s": False},
            {"op": "detect", "subjects": ["C8"], "deadline_s": float("inf")},
            {"op": "corpus", "count": True},
            {"op": "corpus", "count": -5},
            {"op": "corpus", "count": 1, "seed": "3"},
            {"op": "corpus", "count": 1, "seed": 1.9},
        ],
        ids=[
            "lex-error",
            "parse-error",
            "parse-error-with-target",
            "non-string-source",
            "unknown-subject",
            "no-subjects-or-source",
            "unknown-op",
            "bad-deadline",
            "bad-corpus-count",
            "string-random-runs",
            "list-runs",
            "negative-random-runs",
            "string-vm-seed",
            "float-vm-seed",
            "string-rng-seed",
            "string-directed",
            "zero-batch-size",
            "random-runs-field",
            "rng-seed-field",
            "batch-size-field",
            "min-templates-field",
            "unknown-field",
            "ping-extra-field",
            "nan-sleep",
            "infinite-sleep",
            "negative-sleep",
            "bool-sleep",
            "string-sleep",
            "nan-deadline",
            "huge-deadline",
            "negative-deadline",
            "bool-deadline",
            "infinite-deadline",
            "bool-corpus-count",
            "negative-corpus-count",
            "string-corpus-seed",
            "float-corpus-seed",
        ],
    )
    def test_invalid_request_answers_bad_request(self, daemon, request_):
        # A timeout, so that a request which holds the daemon fails the
        # test instead of hanging it.
        with _client(daemon, timeout=30) as client:
            response = client.request(request_)
            assert client.request({"op": "ping"})["ok"]
        assert response["ok"] is False
        assert response["error_code"] == "bad_request"
        assert response["error"]

    def test_sleep_takes_whole_seconds_and_deadline(self, daemon):
        with _client(daemon, timeout=30) as client:
            response = client.request(
                {"op": "sleep", "seconds": 0, "deadline_s": 5}
            )
        assert response["ok"] and response["slept_s"] == 0

    def test_budget_counts_writes_of_other_processes(self, tmp_path):
        """A budgeted daemon's root is back within budget after its next
        request, whatever another cache on the root wrote meanwhile,
        even when that request writes nothing itself."""
        root = tmp_path / "shared"
        budget = 200_000
        cache = ArtifactCache(root, max_bytes=budget)
        request = {"op": "detect", "subjects": ["C8"], "runs": RUNS}
        with _serving(tmp_path / "b.sock", cache) as d:
            with _client(d) as client:
                assert client.request(request)["ok"]
                other = ArtifactCache(root)
                for i in range(40):
                    put_parts(
                        other, "detection", f"{i:064x}", {"pad": "x" * 10_000}
                    )
                assert cache.total_bytes() > budget
                response = client.request(request)
        assert response["subjects"]["C8"]["detection_cached"]
        assert cache.total_bytes() <= budget

    def test_source_requests_leave_only_cache_entries(self, tmp_path):
        """New sources grow the cache root by stage entries alone, which
        the byte budget governs: no request leaves a file of its own."""
        root = tmp_path / "budgeted"
        cache = ArtifactCache(root, max_bytes=60_000)
        with _serving(tmp_path / "b.sock", cache) as d:
            with _client(d) as client:
                for subject in generate_corpus(CorpusConfig(count=4)):
                    response = client.request(
                        {
                            "op": "detect",
                            "source": subject.source,
                            "target_class": subject.class_name,
                            "runs": RUNS,
                        }
                    )
                    assert response["ok"]
        allowed = {"synthesis", "detection", "quarantine"}
        assert {path.name for path in root.iterdir()} <= allowed
        assert cache.stats.evictions > 0

    def test_failure_inside_a_run_answers_internal(self, daemon, monkeypatch):
        def explode(self, specs, detect=True):
            raise RuntimeError("run exploded")

        monkeypatch.setattr(PipelineOrchestrator, "run", explode)
        with _client(daemon) as client:
            response = client.request({"op": "detect", "subjects": ["C8"]})
            assert client.request({"op": "ping"})["ok"]
        assert response["ok"] is False
        assert response["error_code"] == "internal"
        assert response["error"] == "RuntimeError('run exploded')"

    @pytest.mark.parametrize(
        "with_target", [False, True], ids=["source-only", "named-class"]
    )
    def test_repeated_source_requests_parse_once(
        self, daemon, monkeypatch, with_target
    ):
        calls = {"n": 0}
        real = Parser.parse_program

        def counting(parser):
            calls["n"] += 1
            return real(parser)

        monkeypatch.setattr(Parser, "parse_program", counting)
        subject = get_subject("C8")
        request = {"op": "detect", "source": subject.source, "runs": RUNS}
        if with_target:
            request["target_class"] = subject.class_name
        parses, digests = [], []
        with _client(daemon) as client:
            for _ in range(3):
                before = calls["n"]
                response = client.request(request)
                parses.append(calls["n"] - before)
                (entry,) = response["subjects"].values()
                digests.append(entry["digest"])
        assert parses == [1, 0, 0]
        assert digests[0] == digests[1] == digests[2]

    def test_a_new_source_writes_its_two_entries(self, daemon):
        """The request parses the new source and writes the subject's
        synthesis and detection entries; a repeat parses nothing and
        writes nothing."""
        subject = generate_corpus(CorpusConfig(count=1))[0]
        with _client(daemon) as client:
            response = client.request(_source_request(subject))
            writes = daemon.cache.stats.writes
            repeat = client.request(_source_request(subject))
        assert response["ok"] and repeat["ok"]
        entry = response["subjects"][subject.class_name]
        assert not entry["synthesis_cached"]
        assert writes == 2
        assert sorted(p.name for p in daemon.cache.root.iterdir()) == [
            "detection",
            "synthesis",
        ]
        assert repeat["subjects"][subject.class_name]["detection_cached"]
        assert daemon.cache.stats.writes == writes

    def test_fresh_daemon_replays_a_filled_root_with_no_parse(
        self, tmp_path, monkeypatch
    ):
        """One earlier process fills the root: a cold run writes the
        reports.  A restarted daemon then validates and replays every
        request, each naming its class, from the cache alone."""
        root = tmp_path / "cache"
        subjects = generate_corpus(CorpusConfig(count=3))
        specs = [
            SubjectSpec(name=s.class_name, source=s.source, target_class=s.class_name)
            for s in subjects
        ]
        config = PipelineConfig(random_runs=RUNS)
        with PipelineOrchestrator(
            jobs=1, cache=ArtifactCache(root), config=config
        ) as orch:
            digests = [outcome.digest() for outcome in orch.run(specs)]

        calls = {"n": 0}
        real = Parser.parse_program

        def counting(parser):
            calls["n"] += 1
            return real(parser)

        monkeypatch.setattr(Parser, "parse_program", counting)
        cache = ArtifactCache(root)
        with _serving(tmp_path / "f.sock", cache) as d:
            with _client(d) as client:
                responses = [
                    client.request(_source_request(s)) for s in subjects
                ]
        assert calls["n"] == 0
        entries = [r["subjects"][s.class_name] for r, s in zip(responses, subjects)]
        assert all(e["synthesis_cached"] and e["detection_cached"] for e in entries)
        assert [e["digest"] for e in entries] == digests
        assert cache.stats.writes == 0

    def test_concurrent_clients_are_both_served(self, daemon):
        responses = {}

        def call(name, subject):
            with _client(daemon) as client:
                responses[name] = client.request(
                    {"op": "detect", "subjects": [subject], "runs": RUNS}
                )

        threads = [
            threading.Thread(target=call, args=("a", "C1")),
            threading.Thread(target=call, args=("b", "C8")),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert responses["a"]["ok"] and responses["b"]["ok"]
        assert responses["a"]["request_id"] != responses["b"]["request_id"]
        assert set(responses["a"]["subjects"]) == {"C1"}
        assert set(responses["b"]["subjects"]) == {"C8"}

    def test_stats_records_recent_requests(self, daemon):
        with _client(daemon) as client:
            client.request({"op": "detect", "subjects": ["C1"], "runs": RUNS})
            stats = client.request({"op": "stats"})
        assert stats["ok"]
        assert stats["totals"]["requests"] >= 2
        ops = [r["op"] for r in stats["recent_requests"]]
        assert "detect" in ops


class TestDrainAndRestart:
    def test_shutdown_op_drains(self, tmp_path):
        d = ReproDaemon(socket_path=str(tmp_path / "d.sock"), jobs=1)
        d.bind()
        server = threading.Thread(target=d.serve_forever)
        server.start()
        with DaemonClient(socket_path=d.socket_path) as client:
            response = client.request({"op": "shutdown"})
        assert response["ok"] and response["draining"]
        server.join(timeout=30)
        assert not server.is_alive()
        assert not pathlib.Path(d.socket_path).exists()  # unlinked

    def test_client_reconnects_after_daemon_restart(self, tmp_path):
        path = str(tmp_path / "d.sock")

        def serve_once():
            d = ReproDaemon(socket_path=path, jobs=1)
            d.bind()
            thread = threading.Thread(target=d.serve_forever)
            thread.start()
            return d, thread

        first, thread = serve_once()
        with DaemonClient(socket_path=path) as client:
            pid_request = client.request({"op": "ping"})
        first.initiate_drain()
        thread.join(timeout=30)

        second, thread = serve_once()
        try:
            # A fresh client with retries rides out the restart window.
            with DaemonClient(socket_path=path, retries=10) as client:
                again = client.request({"op": "ping"})
            assert again["ok"]
            assert again["uptime_s"] <= pid_request["uptime_s"] + 60
        finally:
            second.initiate_drain()
            thread.join(timeout=30)

    def test_sigterm_drains_inflight_request(self, tmp_path):
        """Operator path: real ``repro serve`` subprocess, SIGTERM lands
        mid-request, the response still arrives and exit is clean."""
        path = str(tmp_path / "d.sock")
        env = dict(os.environ)
        root = pathlib.Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = str(root / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", path,
                "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            result = {}

            def detect():
                with DaemonClient(socket_path=path, retries=25) as client:
                    result["response"] = client.request(
                        {"op": "detect", "subjects": ["C8"], "runs": RUNS}
                    )

            worker = threading.Thread(target=detect)
            worker.start()
            # Let the request get in flight, then ask for shutdown.
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            worker.join(timeout=60)
            assert not worker.is_alive()
            stdout = proc.communicate(timeout=60)[0]
            assert proc.returncode == 0, stdout
            assert "drained after" in stdout
            response = result["response"]
            assert response["ok"], response
            assert response["subjects"]["C8"]["digest"]
            assert not pathlib.Path(path).exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
