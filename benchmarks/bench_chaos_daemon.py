"""Deterministic daemon chaos harness: writes BENCH_chaos.json.

Every scenario spins up an in-process :class:`ReproDaemon` and injects
one failure mode — sha-keyed worker SIGKILLs mid-request, ENOSPC on
cache writes, torn and oversize protocol frames, slow-client stalls,
admission floods, expired deadlines, an RSS budget breach, and a fully
wedged pool — then gates that:

* the daemon never crashes or deadlocks (every scenario ends with a
  successful ``ping`` on a fresh connection);
* every shed/deadline/protocol response is a *structured* error frame
  (``error_code`` from :data:`repro.narada.serial.ERROR_CODES`), never
  a hang or a bare connection reset;
* post-recovery pipeline results are digest-identical to a clean
  one-shot direct :class:`PipelineOrchestrator` run — injected faults
  may cost retries, never answers;
* the armed watchdogs (recv deadlines, admission, deadline tokens, the
  RSS governor) cost < 5% per-request service latency (min-of-many
  no-op round-trips) versus a disarmed daemon.

All injection is deterministic: worker kills and ENOSPC are sha-keyed
draws from :class:`repro.narada.faults.FaultPlan`, and the wire
scenarios send fixed hand-built frames, so a failing scenario replays
bit-identically under a debugger.

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos_daemon.py [--quick]
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import pathlib
import platform
import shutil
import socket
import struct
import sys
import tempfile
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.narada import (  # noqa: E402
    ArtifactCache,
    DaemonClient,
    PipelineConfig,
    PipelineOrchestrator,
    ReproDaemon,
    subject_specs,
)
from repro.narada.daemon import MAX_FRAME_BYTES, recv_frame  # noqa: E402
from repro.subjects import get_subject  # noqa: E402

from _crash_rate import crash_draws, recoverable_rate, show  # noqa: E402

OUT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_chaos.json"

#: Payload schema; bump on any shape change so stale reports are caught
#: by ``perf_regression.py --check``.
SCHEMA_VERSION = 1

DEFAULT_SUBJECTS = ["C1", "C8"]
DEFAULT_RUNS = 2

#: Armed watchdogs must cost < this fraction of warm-path latency.
MAX_OVERHEAD_PCT = 5.0
#: ... with this absolute slack, so micro-latency noise cannot fail the
#: gate on a machine where a warm request is a handful of milliseconds.
OVERHEAD_EPSILON_S = 0.002

_SOCKET_COUNTER = itertools.count()


@contextlib.contextmanager
def _daemon(workdir: str, **kwargs):
    """A served in-process daemon on a fresh unix socket; drained after."""
    socket_path = os.path.join(
        workdir, f"daemon-{next(_SOCKET_COUNTER)}.sock"
    )
    daemon = ReproDaemon(socket_path=socket_path, **kwargs)
    daemon.bind()
    server = threading.Thread(target=daemon.serve_forever, daemon=True)
    server.start()
    try:
        yield daemon
    finally:
        daemon.initiate_drain()
        server.join(timeout=30)
        if server.is_alive():
            raise RuntimeError("daemon failed to drain (deadlock?)")


def _request(daemon: ReproDaemon, payload: dict) -> dict:
    with DaemonClient(socket_path=daemon.socket_path) as client:
        return client.request(payload)


def _ping_ok(daemon: ReproDaemon) -> bool:
    """The liveness gate every scenario ends with: a fresh connection."""
    try:
        return _request(daemon, {"op": "ping"}).get("ok") is True
    except (ConnectionError, OSError):
        return False


def _raw_connect(daemon: ReproDaemon) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(daemon.socket_path)
    return sock


def _digests(response: dict) -> dict:
    return {
        name: entry["digest"]
        for name, entry in response["subjects"].items()
    }


def _direct_digests(subjects, runs) -> dict:
    """Clean one-shot ground truth: inline, no cache, no daemon."""
    config = PipelineConfig(random_runs=runs)
    specs = subject_specs([get_subject(k) for k in subjects])
    with PipelineOrchestrator(jobs=1, cache=None, config=config) as orch:
        return {o.spec.name: o.digest() for o in orch.run(specs)}


# ----------------------------------------------------------------------
# Scenarios.  Each returns {"pass": bool, "failures": [...], ...detail}.


def _scenario(name, failures, **detail) -> dict:
    return {"name": name, "pass": not failures, "failures": failures, **detail}


def scenario_clean_and_overhead(workdir, subjects, runs, repeats, direct):
    """Digest identity through a fully-armed daemon + the < 5% gate.

    The overhead gate is measured on no-op requests (``sleep 0``),
    min-of-many: that round-trip is exactly what arming the watchdogs
    can slow — framing, admission, token creation, governor check,
    post-run maintenance — with none of the pipeline work whose cache
    replay adds tens of milliseconds of scheduling noise per sample.
    Warm ``detect`` latency is recorded alongside for the trend line.
    """
    failures = []
    cache_dir = os.path.join(workdir, "cache-clean")
    warm_mins = {}
    noop_mins = {}
    digests = None
    for mode, kwargs in (
        ("disarmed", dict(recv_timeout_s=None)),
        (
            "armed",
            dict(
                recv_timeout_s=30.0,
                default_deadline_s=300.0,
                memory_budget_mb=1e6,  # governor thread armed, never trips
            ),
        ),
    ):
        with _daemon(
            workdir,
            jobs=2,
            cache=ArtifactCache(cache_dir),
            base_config=PipelineConfig(random_runs=runs),
            **kwargs,
        ) as daemon:
            request = {"op": "detect", "subjects": subjects, "runs": runs}
            warmup = _request(daemon, request)  # cold (or disk-warm) run
            if not warmup.get("ok"):
                failures.append(f"{mode}: detect failed: {warmup.get('error')}")
                continue
            if mode == "armed":
                digests = _digests(warmup)
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                response = _request(daemon, request)
                times.append(time.perf_counter() - start)
                if not response.get("ok"):
                    failures.append(f"{mode}: warm request failed")
                    break
            warm_mins[mode] = min(times)
            noop = []
            with DaemonClient(socket_path=daemon.socket_path) as client:
                for _ in range(max(50, repeats * 20)):
                    start = time.perf_counter()
                    client.request({"op": "sleep", "seconds": 0.0})
                    noop.append(time.perf_counter() - start)
            noop_mins[mode] = min(noop)
            if not _ping_ok(daemon):
                failures.append(f"{mode}: daemon unresponsive after run")
    if digests is not None and digests != direct:
        failures.append(
            "digest identity: armed daemon differs from direct run"
        )
    overhead_pct = None
    if "armed" in noop_mins and "disarmed" in noop_mins:
        delta = noop_mins["armed"] - noop_mins["disarmed"]
        overhead_pct = 100.0 * delta / noop_mins["disarmed"]
        if overhead_pct >= MAX_OVERHEAD_PCT and delta >= OVERHEAD_EPSILON_S:
            failures.append(
                f"armed overhead {overhead_pct:.1f}% >= {MAX_OVERHEAD_PCT}%"
                f" (disarmed {noop_mins['disarmed']:.6f}s,"
                f" armed {noop_mins['armed']:.6f}s per no-op request)"
            )
    return _scenario(
        "clean_and_overhead",
        failures,
        warm_detect_min_s={k: round(v, 4) for k, v in warm_mins.items()},
        noop_min_s={k: round(v, 6) for k, v in noop_mins.items()},
        overhead_pct=(
            None if overhead_pct is None else round(overhead_pct, 1)
        ),
        digests=digests,
    )


#: Retries the worker-kills daemon allows a unit (attempts 0..6).
KILL_MAX_RETRIES = 6


def _kill_plan(subjects, runs):
    """The first (subject, run count, rate), ``runs`` tried first, at
    which the subject's unit crashes its first attempt and passes a
    later one, and every draw looked at on the way."""
    seen = {}
    for candidate in dict.fromkeys([runs, *range(1, 9)]):
        config = PipelineConfig(random_runs=candidate)
        for key in subjects:
            draws = crash_draws(
                subject_specs([get_subject(key)]), config, KILL_MAX_RETRIES
            )
            for name, row in draws.items():
                seen[f"{name}@runs={candidate}"] = row
            rate = recoverable_rate(draws)
            if rate is not None:
                return (key, candidate, rate), seen
    return None, seen


def scenario_worker_kills(workdir, subjects, runs):
    """sha-keyed SIGKILL-grade worker deaths mid-request; answers hold.

    A unit is a whole subject, so a request draws once per subject and
    attempt.  The scenario computes those draws and requests one subject
    at a run count and crash rate (:func:`_kill_plan`) where the first
    attempt crashes and a later one passes, so the retry path runs.
    """
    failures = []
    plan, seen = _kill_plan(subjects, runs)
    if plan is None:
        failures.append(f"no recoverable crash rate; draws: {show(seen)}")
        return _scenario("worker_kills", failures)
    key, kill_runs, rate = plan
    fault_inject = f"crash:{rate!r}"
    direct = _direct_digests([key], kill_runs)
    with _daemon(
        workdir,
        jobs=2,
        cache=None,
        base_config=PipelineConfig(
            random_runs=kill_runs,
            fault_inject=fault_inject,
            max_retries=KILL_MAX_RETRIES,
            retry_backoff=0.0,
        ),
    ) as daemon:
        response = _request(
            daemon, {"op": "detect", "subjects": [key], "runs": kill_runs}
        )
        if not response.get("ok"):
            failures.append(f"detect failed under crashes: {response.get('error')}")
        else:
            if _digests(response) != direct:
                failures.append("digests drifted under injected worker kills")
            counters = response["ledger"]["counters"]
            if counters["retries"] == 0 and counters["pool_respawns"] == 0:
                failures.append(
                    "injection inert: no retries or respawns recorded"
                )
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after worker kills")
        respawns = (
            response.get("ledger", {}).get("counters", {}).get("pool_respawns")
        )
    return _scenario(
        "worker_kills",
        failures,
        subject=key,
        random_runs=kill_runs,
        fault_inject=fault_inject,
        pool_respawns=respawns,
    )


def scenario_enospc(workdir, subjects, runs, direct):
    """ENOSPC on every cache write: results unchanged, writes shed.

    A run writes two entries per subject, so a partial rate could draw
    no failure at all for a one- or two-subject request.
    """
    failures = []
    cache = ArtifactCache(os.path.join(workdir, "cache-enospc"))
    with _daemon(
        workdir,
        jobs=2,
        cache=cache,
        base_config=PipelineConfig(
            random_runs=runs, fault_inject="enospc:1.0", retry_backoff=0.0
        ),
    ) as daemon:
        response = _request(
            daemon, {"op": "detect", "subjects": subjects, "runs": runs}
        )
        if not response.get("ok"):
            failures.append(f"detect failed under ENOSPC: {response.get('error')}")
        elif _digests(response) != direct:
            failures.append("digests drifted under injected ENOSPC")
        if cache.stats.write_errors == 0:
            failures.append("injection inert: no cache write errors recorded")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after ENOSPC")
    return _scenario(
        "enospc", failures, cache_write_errors=cache.stats.write_errors
    )


def scenario_torn_frame(workdir):
    """A frame truncated by disconnect is counted and contained."""
    failures = []
    with _daemon(workdir, jobs=1, recv_timeout_s=2.0) as daemon:
        sock = _raw_connect(daemon)
        sock.sendall(struct.pack(">I", 512) + b"only-a-fragment")
        sock.close()
        deadline = time.monotonic() + 10
        while (
            daemon.stats.protocol_errors == 0 and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        if daemon.stats.protocol_errors != 1:
            failures.append("torn frame not recorded as a protocol error")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after torn frame")
    return _scenario("torn_frame", failures)


def scenario_oversize_frame(workdir):
    """A length prefix beyond 64MB draws a structured protocol frame."""
    failures = []
    with _daemon(workdir, jobs=1, recv_timeout_s=2.0) as daemon:
        with _raw_connect(daemon) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            sock.settimeout(10.0)
            try:
                frame = recv_frame(sock)
            except Exception as error:  # noqa: BLE001 - any escape fails the gate
                frame = None
                failures.append(f"no structured reply to oversize frame: {error!r}")
            if frame is not None and frame.get("error_code") != "protocol":
                failures.append(f"expected protocol error frame, got {frame}")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after oversize frame")
    return _scenario("oversize_frame", failures)


def scenario_slow_client(workdir):
    """A stalled sender is torn down on deadline; others are served."""
    failures = []
    with _daemon(workdir, jobs=1, recv_timeout_s=1.0) as daemon:
        stalled = _raw_connect(daemon)
        stalled.sendall(b"\x00")  # 1 of 4 header bytes, then nothing
        # A concurrent healthy client must be served while the stall is
        # still inside its recv window.
        start = time.perf_counter()
        if not _ping_ok(daemon):
            failures.append("healthy client starved by a slow client")
        healthy_latency = time.perf_counter() - start
        stalled.settimeout(10.0)
        torn_down_at = time.monotonic()
        try:
            frame = recv_frame(stalled)
            if frame.get("error_code") != "protocol":
                failures.append(f"expected protocol frame, got {frame}")
        except Exception as error:  # noqa: BLE001 - any escape fails the gate
            failures.append(f"stalled connection not answered: {error!r}")
        finally:
            stalled.close()
        if time.monotonic() - torn_down_at > 8.0:
            failures.append("slow-loris teardown exceeded the recv deadline")
    return _scenario(
        "slow_client", failures, healthy_latency_s=round(healthy_latency, 4)
    )


def scenario_admission_shed(workdir):
    """Beyond the queue bound: structured `busy` + retry hint, no hangs."""
    failures = []
    with _daemon(workdir, jobs=1, max_queue_depth=2) as daemon:
        holders = [
            DaemonClient(socket_path=daemon.socket_path) for _ in range(2)
        ]
        parked: list[dict] = []
        threads = [
            threading.Thread(
                target=lambda c=c: parked.append(
                    c.request({"op": "sleep", "seconds": 1.0})
                )
            )
            for c in holders
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while (
            daemon.admission.occupancy < 2 and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        shed = _request(daemon, {"op": "sleep", "seconds": 0.1})
        for t in threads:
            t.join()
        for c in holders:
            c.close()
        if shed.get("error_code") != "busy":
            failures.append(f"expected busy shed, got {shed}")
        elif shed.get("retry_after_s") is None or shed["retry_after_s"] <= 0:
            failures.append("busy shed carries no retry-after hint")
        if not all(r.get("ok") for r in parked):
            failures.append("queued requests lost while shedding")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after admission flood")
    return _scenario(
        "admission_shed", failures, shed_busy=daemon.admission.shed_busy
    )


def scenario_deadline(workdir):
    """A deadline cancels a 30s op in well under a second of overrun."""
    failures = []
    with _daemon(workdir, jobs=1) as daemon:
        start = time.perf_counter()
        response = _request(
            daemon, {"op": "sleep", "seconds": 30.0, "deadline_s": 0.3}
        )
        elapsed = time.perf_counter() - start
        if response.get("error_code") != "deadline_exceeded":
            failures.append(f"expected deadline_exceeded, got {response}")
        if elapsed > 5.0:
            failures.append(f"cancellation took {elapsed:.1f}s (deadline 0.3s)")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after deadline cancel")
    return _scenario("deadline", failures, elapsed_s=round(elapsed, 3))


def scenario_rss_shed(workdir):
    """Over RSS budget: overloaded sheds; under it: recycle + recover."""
    failures = []
    with _daemon(workdir, jobs=1, memory_budget_mb=1.0) as daemon:
        daemon.governor.poll_once()  # deterministic: don't wait 2s
        shed = _request(daemon, {"op": "sleep", "seconds": 0.01})
        if shed.get("error_code") != "overloaded":
            failures.append(f"expected overloaded shed, got {shed}")
        daemon.governor.budget_mb = 1e9
        daemon.governor.poll_once()
        recovered = _request(daemon, {"op": "sleep", "seconds": 0.01})
        if not recovered.get("ok"):
            failures.append(f"no recovery after budget raise: {recovered}")
        if daemon.governor.recycles == 0:
            failures.append("pool recycle never applied after the breach")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after RSS shed")
    return _scenario(
        "rss_shed", failures, recycles=daemon.governor.recycles
    )


def scenario_wedged_pool(workdir, runs):
    """Every unit crashes every attempt: rebuild fires, daemon survives."""
    failures = []
    with _daemon(
        workdir,
        jobs=2,
        cache=None,
        base_config=PipelineConfig(
            random_runs=runs,
            fault_inject="crash:1.0",
            max_retries=2,
            retry_backoff=0.0,
        ),
        max_consecutive_worker_deaths=3,
    ) as daemon:
        response = _request(
            daemon, {"op": "detect", "subjects": ["C1", "C8"], "runs": runs}
        )
        if not response.get("ok"):
            failures.append(f"wedged run did not answer: {response.get('error')}")
        elif not response["ledger"]["failures"]:
            failures.append("crash:1.0 produced no recorded failures")
        rebuilds = daemon._pool.rebuilds if daemon._pool is not None else 0
        if rebuilds == 0:
            failures.append("wedge detector never rebuilt the pool")
        if not _ping_ok(daemon):
            failures.append("daemon unresponsive after wedged pool")
    return _scenario("wedged_pool", failures, rebuilds=rebuilds)


# ----------------------------------------------------------------------
# Driver.


def run_bench(
    subjects=None,
    runs: int = DEFAULT_RUNS,
    repeats: int = 5,
    out_path: pathlib.Path = OUT_PATH,
) -> dict:
    subjects = subjects or DEFAULT_SUBJECTS
    workdir = tempfile.mkdtemp(prefix="repro-bench-chaos-")
    try:
        direct = _direct_digests(subjects, runs)
        scenarios = [
            scenario_clean_and_overhead(
                workdir, subjects, runs, repeats, direct
            ),
            scenario_worker_kills(workdir, subjects, runs),
            scenario_enospc(workdir, subjects, runs, direct),
            scenario_torn_frame(workdir),
            scenario_oversize_frame(workdir),
            scenario_slow_client(workdir),
            scenario_admission_shed(workdir),
            scenario_deadline(workdir),
            scenario_rss_shed(workdir),
            scenario_wedged_pool(workdir, runs),
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = [
        f"{s['name']}: {failure}" for s in scenarios for failure in s["failures"]
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": {
            "subjects": subjects,
            "random_runs": runs,
            "overhead_repeats": repeats,
        },
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "required": {
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "overhead_epsilon_s": OVERHEAD_EPSILON_S,
        },
        "scenarios": {s["name"]: s for s in scenarios},
        "failures": failures,
        "pass": not failures,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _summarize(payload: dict) -> str:
    lines = [
        "daemon chaos harness ({}; runs={})".format(
            ",".join(payload["scenario"]["subjects"]),
            payload["scenario"]["random_runs"],
        )
    ]
    for name, scenario in sorted(payload["scenarios"].items()):
        verdict = "ok" if scenario["pass"] else "FAIL"
        extra = ""
        if name == "clean_and_overhead" and scenario.get("overhead_pct") is not None:
            extra = f"  (armed overhead {scenario['overhead_pct']}%)"
        lines.append(f"  {name:20s} {verdict}{extra}")
    for failure in payload["failures"]:
        lines.append(f"  GATE FAILED: {failure}")
    return "\n".join(lines)


def test_chaos_smoke(tmp_path):
    """Reduced chaos sweep: every scenario must pass."""
    payload = run_bench(
        subjects=["C1"],
        repeats=3,
        out_path=tmp_path / "BENCH_chaos_smoke.json",
    )
    try:
        from conftest import report_table

        report_table("chaos_daemon_smoke", _summarize(payload))
    except ImportError:  # standalone collection
        pass
    assert payload["pass"], "; ".join(payload["failures"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="single subject, fewer overhead repeats (the CI smoke run)",
    )
    parser.add_argument("--subjects", metavar="C1,C8", default=None)
    parser.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    parser.add_argument("--out", default=str(OUT_PATH))
    args = parser.parse_args(argv)
    subjects = (
        [k.strip() for k in args.subjects.split(",") if k.strip()]
        if args.subjects
        else (["C1"] if args.quick else None)
    )
    payload = run_bench(
        subjects=subjects,
        runs=args.runs,
        repeats=3 if args.quick else 5,
        out_path=pathlib.Path(args.out),
    )
    print(_summarize(payload))
    print(f"report: {args.out}")
    if not payload["pass"]:
        print("CHAOS GATE FAILED")
        return 1
    print("chaos gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
