"""Protocol hardening: slow-loris recv deadlines, torn/oversize/empty
frames, disconnect mid-response, and structured admission shedding.

These are the daemon-layer failure modes — a handler thread must never
be pinned by a hostile or broken client, and every shed path must
answer with a structured error frame a client can branch on.
"""

import socket
import struct
import threading
import time

import pytest

from repro.narada import ArtifactCache, DaemonClient, ReproDaemon
from repro.narada.daemon import (
    MAX_FRAME_BYTES,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.narada.serial import ERROR_CODES, encode_error_frame


@pytest.fixture
def daemon(tmp_path):
    """Hardened in-process daemon: tight recv deadline, tiny queue."""
    d = ReproDaemon(
        socket_path=str(tmp_path / "daemon.sock"),
        jobs=1,
        cache=ArtifactCache(tmp_path / "cache"),
        max_queue_depth=2,
        recv_timeout_s=1.0,
    )
    d.bind()
    server = threading.Thread(target=d.serve_forever, daemon=True)
    server.start()
    yield d
    d.initiate_drain()
    server.join(timeout=30)
    assert not server.is_alive()


def _raw_connect(d: ReproDaemon) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(d.socket_path)
    return sock


class TestErrorFrameCodec:
    def test_shape(self):
        frame = encode_error_frame("busy", "queue full", retry_after_s=1.2345)
        assert frame["ok"] is False
        assert frame["kind"] == "error"
        assert frame["error_code"] == "busy"
        assert frame["error"] == "queue full"
        assert frame["retry_after_s"] == 1.234

    def test_no_retry_hint_key_when_absent(self):
        frame = encode_error_frame("protocol", "torn frame")
        assert "retry_after_s" not in frame

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            encode_error_frame("nope", "x")

    def test_codes_sorted_and_stable(self):
        assert list(ERROR_CODES) == sorted(ERROR_CODES)


class TestRecvDeadline:
    def test_slow_loris_partial_prefix_torn_down(self, daemon):
        """A partial length prefix must not pin the handler forever."""
        with _raw_connect(daemon) as sock:
            sock.sendall(b"\x00")  # 1 of 4 header bytes, then stall
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            assert frame["ok"] is False
            assert frame["error_code"] == "protocol"
            assert "deadline" in frame["error"]
            # The daemon closes the connection after the error frame.
            assert sock.recv(1) == b""
        assert daemon.stats.protocol_errors == 1

    def test_slow_loris_partial_body_torn_down(self, daemon):
        with _raw_connect(daemon) as sock:
            sock.sendall(struct.pack(">I", 64) + b'{"op":')  # stall mid-body
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            assert frame["error_code"] == "protocol"

    def test_recv_frame_without_timeout_unchanged(self):
        """Client-side recv_frame (no deadline) still blocks mid-frame."""
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(0.05)
            payload = b'{"x":1}'
            a.sendall(struct.pack(">I", len(payload)))

            def finish():
                time.sleep(0.2)  # several client-side poll timeouts
                a.sendall(payload)

            t = threading.Thread(target=finish)
            t.start()
            try:
                assert recv_frame(b) == {"x": 1}
            finally:
                t.join()


class TestFrameEdgeCases:
    def test_oversize_frame_gets_structured_error(self, daemon):
        with _raw_connect(daemon) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            assert frame["ok"] is False
            assert frame["error_code"] == "protocol"
            assert "exceeds limit" in frame["error"]

    def test_empty_payload_is_protocol_error(self, daemon):
        with _raw_connect(daemon) as sock:
            sock.sendall(struct.pack(">I", 0))
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            assert frame["error_code"] == "protocol"
            assert "undecodable" in frame["error"]

    def test_non_object_payload_is_protocol_error(self, daemon):
        with _raw_connect(daemon) as sock:
            payload = b"[1,2,3]"
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            sock.settimeout(10.0)
            frame = recv_frame(sock)
            assert frame["error_code"] == "protocol"

    def test_torn_frame_eof_counts_protocol_error(self, daemon):
        before = daemon.stats.protocol_errors
        sock = _raw_connect(daemon)
        sock.sendall(struct.pack(">I", 100) + b"partial")
        sock.close()  # EOF mid-frame
        deadline = time.monotonic() + 10
        while (
            daemon.stats.protocol_errors == before
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        assert daemon.stats.protocol_errors == before + 1

    def test_disconnect_mid_response_leaves_daemon_serving(self, daemon):
        """A client vanishing before reading its response hurts nobody."""
        sock = _raw_connect(daemon)
        send_frame(sock, {"op": "ping"})
        sock.close()  # gone before the response lands
        with DaemonClient(socket_path=daemon.socket_path) as client:
            response = client.request({"op": "ping"})
            assert response["ok"] is True

    def test_reset_while_idle_closes_quietly(self, daemon):
        """A peer reset during the idle wait for a frame ends the
        handler without an exception, and the daemon keeps serving."""

        class ResetConnection:
            closed = False

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.closed = True

            def settimeout(self, seconds):
                pass

            def recv(self, count):
                raise ConnectionResetError("reset by peer")

        conn = ResetConnection()
        daemon._handle_connection(conn)
        assert conn.closed
        assert daemon.stats.protocol_errors == 0
        with DaemonClient(socket_path=daemon.socket_path) as client:
            assert client.request({"op": "ping"})["ok"] is True


class TestAdmissionShedding:
    def test_queue_full_sheds_busy_with_retry_hint(self, daemon):
        """Clients beyond the queue bound get `busy`, never a hang."""
        holders = [DaemonClient(socket_path=daemon.socket_path) for _ in range(2)]
        results: list[dict] = []

        def park(client, seconds):
            results.append(client.request({"op": "sleep", "seconds": seconds}))

        threads = [
            threading.Thread(target=park, args=(c, 1.0)) for c in holders
        ]
        for t in threads:
            t.start()
        # Wait until both requests occupy the admission queue (one
        # running, one waiting on the run lock).
        deadline = time.monotonic() + 10
        while daemon.admission.occupancy < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert daemon.admission.occupancy == 2
        with DaemonClient(socket_path=daemon.socket_path) as extra:
            shed = extra.request({"op": "sleep", "seconds": 0.1})
        assert shed["ok"] is False
        assert shed["error_code"] == "busy"
        assert shed["retry_after_s"] > 0
        for t in threads:
            t.join()
        for c in holders:
            c.close()
        assert all(r["ok"] for r in results)
        assert daemon.admission.shed_busy == 1

    def test_deadline_exceeded_while_queued(self, daemon):
        with DaemonClient(socket_path=daemon.socket_path) as holder:
            result: list[dict] = []
            t = threading.Thread(
                target=lambda: result.append(
                    holder.request({"op": "sleep", "seconds": 1.0})
                )
            )
            t.start()
            deadline = time.monotonic() + 10
            while (
                daemon.admission.occupancy < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            with DaemonClient(socket_path=daemon.socket_path) as hurried:
                shed = hurried.request(
                    {"op": "sleep", "seconds": 0.1, "deadline_s": 0.05}
                )
            t.join()
        assert shed["ok"] is False
        assert shed["error_code"] == "deadline_exceeded"
        assert result[0]["ok"] is True
        assert daemon.admission.deadlines_exceeded == 1

    def test_deadline_cancels_running_request(self, daemon):
        """A deadline mid-run cancels at the next check, not at the end."""
        started = time.monotonic()
        with DaemonClient(socket_path=daemon.socket_path) as client:
            response = client.request(
                {"op": "sleep", "seconds": 30.0, "deadline_s": 0.2}
            )
        elapsed = time.monotonic() - started
        assert response["ok"] is False
        assert response["error_code"] == "deadline_exceeded"
        assert elapsed < 10  # nowhere near the 30s sleep

    def test_draining_daemon_sheds_structured(self, tmp_path):
        # Unserved instance: toggling the live daemon's drain flag would
        # race its accept loop into a real shutdown.
        d = ReproDaemon(socket_path=str(tmp_path / "x.sock"), jobs=1)
        d._draining.set()
        response = d.handle_request({"op": "sleep", "seconds": 0.1})
        assert response["ok"] is False
        assert response["error_code"] == "draining"
        assert d.admission.shed_draining == 1

    def test_stats_reports_admission_section(self, daemon):
        with DaemonClient(socket_path=daemon.socket_path) as client:
            stats = client.request({"op": "stats"})
        assert stats["admission"]["max_queue_depth"] == 2
        assert stats["totals"]["protocol_errors"] == 0
        assert stats["governor"] is None
