"""Workloads of the end-to-end benchmark: inputs, timed passes, output checks.

Every workload fuzzes each synthesized test with ``random_runs=2``:

* ``corpus-cold`` — ``run_corpus`` over ``CorpusConfig(count=100)``, a
  fresh empty cache per pass;
* ``corpus-warm`` — the same over ``CorpusConfig(count=300)``; set-up
  fills the cache once and every pass replays it;
* ``paper-fuzz`` — paper subjects through one orchestrator run, a fresh
  empty cache per pass;
* ``serve-mixed`` — a ``repro serve --jobs 2`` subprocess driven over one
  connection in a closed loop: a fixed plan of request segments.

The corpus is the stock generator's seed-0 corpus, the one
``repro corpus run`` runs by default: the fixed corpus the ROADMAP's
headline numbers name.  The benchmark seed orders the serve-mixed
requests and is the VM seed of the batch workloads, which on these
subjects changes no output and no amount of work.  Drawing the corpus
from the seed instead moved the fuzz runs of a 100-subject corpus by 19%
and its pass time by 13-26% (quartile spread over ten seeds): more than
any bound a regression check could use.

A batch pass runs in a fresh child process — this file run as a script —
so no process-level memo carries over between passes and each pass costs
what a one-shot run costs.

The child is pinned to one CPU, and while it runs a :class:`SpeedProbe`
times a fixed reference loop on that same CPU.  Each CPU of the shared
VM the benchmark was built on runs 1.3-1.6x slower in stretches of
seconds to minutes, independently of the other CPU, so the median raw
pass time of a run spread by 16-31% over ten runs (quartile distance
over the median).  Scaled by the probe (:data:`REFERENCE_CHUNK_S` over
the probe's mean chunk time), it spread by 5-10%.  serve-mixed uses both
CPUs, so its probe runs unpinned in the client's process.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.corpus import CorpusConfig, generate_corpus, run_corpus  # noqa: E402
from repro.corpus import runner as corpus_runner  # noqa: E402
from repro.narada import (  # noqa: E402
    ArtifactCache,
    DaemonClient,
    PipelineConfig,
    PipelineOrchestrator,
    subject_specs,
)
from repro.subjects import get_subject  # noqa: E402
from spans import Tracer, read_spans  # noqa: E402

WORKLOADS = ("corpus-cold", "corpus-warm", "paper-fuzz", "serve-mixed")

RANDOM_RUNS = 2

#: Paper subjects of ``paper-fuzz``.  C2, C4 and C5 each take 4-9 s alone
#: on a two-CPU VM, so all nine (19-26 s a pass) leave no room for a
#: median of passes inside one run.
PAPER_SUBJECTS = ("C1", "C3", "C6", "C7", "C9")

#: Digests the outputs must reproduce at the default sizes, whatever the
#: seed: the race digest of every batch pass, and for serve-mixed the
#: digest of every served subject's counts.
PINNED = {
    "corpus-cold": "3387ae72270c6bc88176688cfa84962522351ff407bfd3b91fd205f2b8508bd6",
    "corpus-warm": "fe3ddfeae8befbc1679459f7c91e5215a524b763b14ed080beb3308416d0f252",
    "paper-fuzz": "da72675734c9834baa7e3fbfdb3191d066156c61a27386b94ff4c9b8608f0502",
    "serve-mixed": "2763ad9efe251ac0f98c08c4e86198641d889fb77a08e04bf0e6e015d20f7651",
}

#: Upper bound on one child pass; a hung pass fails the run instead of
#: stalling it.
CHILD_TIMEOUT_S = 150.0

#: Times serve-mixed starts and primes each daemon in set-up.
SERVE_STARTS = 3

#: Reference-loop chunk time at which a scaled time equals the measured
#: one: about the chunk time in a fast stretch of the two-CPU VM the
#: baselines come from.  It only sets the unit of scaled times.
REFERENCE_CHUNK_S = 0.0007

#: Pause between two probe chunks: the probe takes about 4% of the CPU.
PROBE_INTERVAL_S = 0.02


@dataclass(frozen=True)
class Sizes:
    """How much work set-up and each pass do (the tests shrink these)."""

    cold_subjects: int = 100
    warm_subjects: int = 300
    paper_subjects: tuple[str, ...] = PAPER_SUBJECTS
    serve_prime: int = 20
    serve_segments: int = 4
    serve_segment: int = 500
    serve_misses: int = 125
    min_passes: int = 3


def pinned_digest(name: str, sizes: Sizes) -> str | None:
    """The digest ``name`` must reproduce, or None where none is pinned."""
    return PINNED[name] if sizes == Sizes() else None


# ----------------------------------------------------------------------
# Output digests.


def races_of(outcome) -> list:
    """Sorted static keys of a subject's detected and reproduced races."""
    detected: set = set()
    reproduced: set = set()
    for fuzz in outcome.detection.fuzz_reports:
        detected |= fuzz.detected.static_keys()
        reproduced |= fuzz.reproduced
    return [sorted(detected), sorted(reproduced)]


def race_digest(rows: dict) -> str:
    """sha256 over sorted ``(subject, *row)``.

    A row holds race identities (:func:`races_of`) or, for the daemon,
    whose responses carry no race keys, counts; neither depends on the
    report serialization, so a change of that format leaves it unchanged.
    """
    ordered = sorted([name, *row] for name, row in rows.items())
    return hashlib.sha256(json.dumps(ordered).encode()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ----------------------------------------------------------------------
# Batch passes (child side).


def batch_pass(spec: dict) -> dict:
    """One timed pass; ``spec`` is built by :meth:`BatchWorkload._spec`."""
    config = PipelineConfig(random_runs=RANDOM_RUNS, vm_seed=spec["seed"])
    orch = PipelineOrchestrator(
        jobs=1, cache=ArtifactCache(spec["cache"]), config=config
    )
    paper = spec["paper"] is not None
    if paper:
        specs = subject_specs([get_subject(key) for key in spec["paper"]])
    else:
        corpus_config = CorpusConfig(count=spec["count"])
        subjects = generate_corpus(corpus_config)
    if spec["span_dir"]:
        Tracer(spec["span_dir"]).install()

    races, problems, bad = {}, [], set()

    def observe(outcome) -> None:
        name = outcome.spec.name
        if outcome.detection is None or outcome.detection_partial:
            bad.add(name)
            problems.append(f"{name}: pipeline failed or partial")
        else:
            races[name] = races_of(outcome)
        cached = outcome.synthesis_cached and outcome.detection_cached
        if spec["expect_cached"] and not cached:
            bad.add(name)
            problems.append(f"{name}: not replayed from the cache")

    # run_corpus keeps only scores; see each outcome as it is scored.
    score_outcome = corpus_runner.score_outcome

    def scored(subject, outcome):
        observe(outcome)
        return score_outcome(subject, outcome)

    corpus_runner.score_outcome = scored
    print("ready", flush=True)

    start = time.perf_counter()
    cpu_start = time.process_time()
    with orch:
        if paper:
            outcomes = orch.run(specs, detect=True)
        else:
            result = run_corpus(corpus_config, orch, subjects=subjects)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start

    if paper:
        for outcome in outcomes:
            observe(outcome)
    else:
        # Lost and statically pruned oracle races (recall below 1.0).
        bad.update(s.key for s in result.scores if not s.complete)
        problems.extend(result.problems())
    ledger = orch.fault_ledger
    return {
        "pid": os.getpid(),
        "items": len(specs) if paper else len(subjects),
        "wall_s": wall,
        "cpu_s": cpu,
        "failed": len(bad),
        "problems": problems,
        "race_digest": race_digest(races),
        # Not ru_maxrss: Linux keeps it across exec, so it would count the
        # parent this child was forked from.
        "rss_mb": _vm_hwm_mb(os.getpid()),
        "ledger": {
            "completed": ledger.completed,
            "batches": ledger.batches,
            "retries": ledger.retries,
        },
    }


# ----------------------------------------------------------------------
# Workloads (parent side).


def reference_chunk(table: array) -> float:
    """CPU seconds this thread takes for one fixed pure-Python loop.

    The loop is arithmetic, then reads at pseudo-random places in
    ``table``, which is larger than a CPU cache.  A slow stretch slows
    the passes more than it slows arithmetic alone; with the reads, the
    probe's mean chunk time tracked the pass times more closely on each
    batch workload (per-pass spread of scaled times 3.8-7.3%, against
    4.6-9.6% for arithmetic alone).
    """
    start = time.thread_time()
    total = 0
    for i in range(5_000):
        total += i * i
    index, mask = 1, len(table) - 1
    for _ in range(1_500):
        index = (index * 1103515245 + 12345) & mask
        total += table[index]
    return time.thread_time() - start


class SpeedProbe(threading.Thread):
    """Times :func:`reference_chunk` on one CPU (any, if ``cpu`` is None)
    until stopped.

    A chunk is timed in thread CPU time, so the probe waiting for the CPU
    (which the pass holds) does not count; what counts is how fast the CPU
    runs while the probe has it.
    """

    def __init__(self, cpu: int | None = None) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.chunks: list[float] = []
        self._done = threading.Event()
        # 8 MB, every page written, so that reads miss the caches.
        self._table = array("q", [1]) * (1 << 20)

    def run(self) -> None:
        if self.cpu is not None:
            # Pins this thread only; the caller's other threads keep theirs.
            os.sched_setaffinity(0, {self.cpu})
        self.chunks.append(reference_chunk(self._table))
        while not self._done.wait(PROBE_INTERVAL_S):
            self.chunks.append(reference_chunk(self._table))

    def stop(self) -> float:
        """Stop the probe; return the scale: reference over mean chunk."""
        self._done.set()
        self.join()
        return REFERENCE_CHUNK_S / statistics.mean(self.chunks)


def pass_cpu(index: int) -> int:
    """The CPU pass ``index`` runs on: the allowed CPUs in turn."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[index % len(cpus)]


def run_child(spec: dict, cpu: int) -> dict:
    """Run :func:`batch_pass` in a fresh interpreter pinned to ``cpu``.

    Adds ``setup_s``: the time from spawning the child until it is ready
    to start the pass (interpreter start, imports, input generation); and
    ``scale``, what the :class:`SpeedProbe` on ``cpu`` measured meanwhile.
    """
    probe = SpeedProbe(cpu)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    probe.start()
    try:
        os.sched_setaffinity(proc.pid, {cpu})
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        scale = probe.stop()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"pass child exited with code {proc.returncode}")
    result = json.loads(output.splitlines()[-1])
    result.update(setup_s=setup_s, scale=scale, cpu=cpu)
    return result


def check_digests(name: str, sizes: Sizes, digests: set) -> list[str]:
    """Problems with the output digests a workload produced."""
    problems = []
    if len(digests) > 1:
        problems.append(f"output digests differ: {sorted(digests)}")
    pin = pinned_digest(name, sizes)
    if pin is not None and digests != {pin}:
        problems.append(f"output digest {sorted(digests)} != pinned {pin}")
    return problems


class BatchWorkload:
    """corpus-cold, corpus-warm or paper-fuzz: one child process per pass."""

    def __init__(
        self, name: str, seed: int, sizes: Sizes, work_dir, trace: bool
    ) -> None:
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.work_dir = pathlib.Path(work_dir)
        self.kinds = (False, True) if trace else (False,)
        self.problems: list[str] = []
        #: Race digest every pass must reproduce (the cache fill's).
        self.reference_digest: str | None = None
        self._passes = 0

    def _spec(self, cache, span_dir=None, expect_cached=False) -> dict:
        paper = self.name == "paper-fuzz"
        warm = self.name == "corpus-warm"
        return {
            "seed": self.seed,
            "count": self.sizes.warm_subjects if warm else self.sizes.cold_subjects,
            "paper": list(self.sizes.paper_subjects) if paper else None,
            "cache": str(cache),
            "span_dir": None if span_dir is None else str(span_dir),
            "expect_cached": expect_cached,
        }

    def setup(self) -> tuple[float, float]:
        """One-time set-up: ``(seconds, scale)``; corpus-warm fills its cache."""
        if self.name != "corpus-warm":
            return 0.0, 1.0
        start = time.perf_counter()
        fill = run_child(self._spec(self.work_dir / "cache"), pass_cpu(0))
        self.reference_digest = fill["race_digest"]
        self.problems.extend(f"cache fill: {p}" for p in fill["problems"])
        return time.perf_counter() - start, fill["scale"]

    def wants_pass(self, done: int, spent: float, seconds: float) -> bool:
        """Passes run until ``seconds`` are measured, at least
        ``min_passes`` of each kind (untraced, traced)."""
        return spent < seconds or done < self.sizes.min_passes * len(self.kinds)

    def run_pass(self, traced: bool) -> dict:
        index = self._passes
        self._passes += 1
        warm = self.name == "corpus-warm"
        cache = self.work_dir / ("cache" if warm else f"cache-{index}")
        span_dir = self.work_dir / f"spans-{index}" if traced else None
        spec = self._spec(cache, span_dir, expect_cached=warm)
        result = run_child(spec, pass_cpu(index))
        if not warm:
            shutil.rmtree(cache, ignore_errors=True)
        if traced:
            result["spans"] = read_spans(span_dir)
            result["root_pid"] = result["pid"]
        return result

    def check(self, passes: list[dict]) -> list[str]:
        """Problems beyond the per-pass ones: every pass (and the warm
        fill) must produce the same race digest, the pinned one."""
        digests = {p["race_digest"] for p in passes}
        if self.reference_digest is not None:
            digests.add(self.reference_digest)
        return self.problems + check_digests(self.name, self.sizes, digests)

    def close(self) -> None:
        pass


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MB, 0.0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _children(pid: int) -> list[int]:
    """Pids whose parent is ``pid``, from ``/proc/<pid>/stat``."""
    found = []
    for path in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            # Fields after the parenthesised command: state, ppid, ...
            ppid = int(path.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            found.append(int(path.parent.name))
    return found


def serve_plan(seed: int, sizes: Sizes, subjects: list) -> list[list[tuple]]:
    """The fixed serve-mixed traffic: ``serve_segments`` segments of
    ``(subject, miss)`` requests.

    Set-up primes the first ``serve_prime`` subjects.  Each segment then
    asks for ``serve_misses`` new subjects, in corpus order, at positions
    the seed shuffles; every other request repeats a subject already
    served, chosen by the seed.
    """
    rng = random.Random(f"e2e-serve/{seed}")
    served = list(subjects[: sizes.serve_prime])
    fresh = iter(subjects[sizes.serve_prime :])
    segments = []
    for _ in range(sizes.serve_segments):
        miss_at = set(rng.sample(range(sizes.serve_segment), sizes.serve_misses))
        segment = []
        for position in range(sizes.serve_segment):
            if position in miss_at:
                subject = next(fresh)
                served.append(subject)
                segment.append((subject, True))
            else:
                segment.append((rng.choice(served), False))
        segments.append(segment)
    return segments


class _Daemon:
    """One ``repro serve`` subprocess and the client session driving it."""

    def __init__(self, work_dir, traced: bool) -> None:
        self.work_dir = pathlib.Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.span_dir = self.work_dir / "spans" if traced else None
        self.segments = 0
        #: Per subject: the digest and counts of its first response.
        self.first: dict[str, tuple[str, list]] = {}
        self._span_offsets: dict[pathlib.Path, int] = {}
        self._cache_counts = {"hits": 0, "misses": 0}
        cmd = [sys.executable]
        cmd += [str(HERE / "spans.py"), "spans"] if traced else ["-m", "repro"]
        cmd += ["serve", "--jobs", "2", "--socket", "d.sock", "--cache-dir", "cache"]
        self._log = open(self.work_dir / "daemon.log", "w")
        # A relative socket path keeps clear of the 108-byte limit on
        # unix socket paths, whatever the checkout's location.
        self.proc = subprocess.Popen(
            cmd,
            cwd=self.work_dir,
            env=child_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.client = DaemonClient(
            socket_path=os.path.relpath(self.work_dir / "d.sock"),
            timeout=60.0,
            retries=60,
            retry_delay=0.01,
        )

    def request(self, subject) -> tuple[float, dict]:
        start = time.perf_counter()
        response = self.client.request(
            {
                "op": "detect",
                "source": subject.source,
                "target_class": subject.class_name,
                "name": subject.key,
                "runs": RANDOM_RUNS,
            }
        )
        return time.perf_counter() - start, response

    def check(self, subject, response: dict, miss: bool) -> str | None:
        """What is wrong with one response, or None."""
        if not response.get("ok"):
            return f"{subject.key}: error response {response.get('error')!r}"
        entry = response["subjects"].get(subject.key, {})
        if "detected" not in entry or entry.get("partial") or entry.get("failures"):
            return f"{subject.key}: pipeline failed or partial"
        cached = entry["synthesis_cached"] and entry["detection_cached"]
        if cached == miss:
            return f"{subject.key}: {'miss' if miss else 'hit'} had cached={cached}"
        counts = [entry[k] for k in ("tests", "pairs", "detected", "reproduced")]
        first = self.first.setdefault(subject.key, (entry["digest"], counts))
        if (entry["digest"], counts) != first:
            return f"{subject.key}: repeated request changed the result"
        return None

    def counts_digest(self) -> str:
        return race_digest({key: counts for key, (_, counts) in self.first.items()})

    def cache_counts(self) -> dict:
        """Daemon cache hits and misses since the previous call."""
        stats = self.client.request({"op": "stats"})["cache"]
        delta = {k: stats[k] - self._cache_counts[k] for k in self._cache_counts}
        self._cache_counts = {k: stats[k] for k in self._cache_counts}
        return delta

    def new_spans(self, start: float, end: float) -> list[dict]:
        """Spans written since the last call that started in the window."""
        spans = []
        for path in sorted(self.span_dir.glob("*.jsonl")):
            offset = self._span_offsets.get(path, 0)
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
            data = data[: data.rfind(b"\n") + 1]
            self._span_offsets[path] = offset + len(data)
            spans.extend(json.loads(line) for line in data.splitlines())
        return [s for s in spans if start <= s["start"] <= end]

    def rss_mb(self) -> float:
        pids = [self.proc.pid, *_children(self.proc.pid)]
        return sum(_vm_hwm_mb(pid) for pid in pids)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.client.request({"op": "shutdown"})
        except (OSError, ConnectionError):
            pass
        self.client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


class ServeWorkload:
    """serve-mixed: a daemon per pass kind, each fed the same segments."""

    name = "serve-mixed"

    def __init__(self, seed: int, sizes: Sizes, work_dir, trace: bool) -> None:
        self.seed = seed
        self.sizes = sizes
        self.work_dir = pathlib.Path(work_dir)
        self.kinds = (False, True) if trace else (False,)
        self.problems: list[str] = []
        self.plan: list[list[tuple]] = []
        self._daemons: dict[bool, _Daemon] = {}

    def setup(self) -> tuple[float, float]:
        """Generate the subjects, then start each daemon and prime it.

        A single start and priming spread by a third across runs, so each
        daemon is started :data:`SERVE_STARTS` times, each with a fresh
        cache; the last one serves the passes, and the untraced starts'
        median counts.  An unpinned probe runs meanwhile: see
        :meth:`run_pass`.
        """
        probe = SpeedProbe()
        probe.start()
        try:
            seconds = self._setup()
        finally:
            scale = probe.stop()
        return seconds, scale

    def _setup(self) -> float:
        start = time.perf_counter()
        sizes = self.sizes
        count = sizes.serve_prime + sizes.serve_segments * sizes.serve_misses
        subjects = generate_corpus(CorpusConfig(count=count))
        self.plan = serve_plan(self.seed, sizes, subjects)
        generate_s = time.perf_counter() - start
        starts = []
        for traced in self.kinds:
            for attempt in range(SERVE_STARTS):
                previous = self._daemons.pop(traced, None)
                if previous is not None:
                    previous.close()
                start = time.perf_counter()
                kind = "traced" if traced else "plain"
                daemon = _Daemon(self.work_dir / f"{kind}-{attempt}", traced)
                self._daemons[traced] = daemon
                daemon.client.request({"op": "ping"})
                for subject in subjects[: sizes.serve_prime]:
                    _, response = daemon.request(subject)
                    problem = daemon.check(subject, response, miss=True)
                    if problem is not None:
                        self.problems.append(f"priming: {problem}")
                if not traced:
                    starts.append(time.perf_counter() - start)
                daemon.cache_counts()
        return generate_s + statistics.median(starts)

    def wants_pass(self, done: int, spent: float, seconds: float) -> bool:
        """The plan's segments, once per kind, whatever ``seconds`` is: a
        faster commit must serve the same traffic, not more of it."""
        return done < len(self.plan) * len(self.kinds)

    def run_pass(self, traced: bool) -> dict:
        """Serve the next segment of the plan.

        The daemon and its two workers use both CPUs, so no CPU is free to
        pin the segment to; the probe runs unpinned and so samples both.
        """
        daemon = self._daemons[traced]
        plan = self.plan[daemon.segments]
        daemon.segments += 1
        latencies, server, hits, misses, problems = [], [], [], [], []
        ledger = {"completed": 0, "batches": 0, "retries": 0}
        probe = SpeedProbe()
        probe.start()
        start = time.perf_counter()
        try:
            for subject, miss in plan:
                latency, response = daemon.request(subject)
                latencies.append(latency)
                (misses if miss else hits).append(latency)
                server.append(response.get("elapsed_s"))
                counters = response.get("ledger", {}).get("counters", {})
                for key in ledger:
                    ledger[key] += counters.get(key, 0)
                problem = daemon.check(subject, response, miss)
                if problem is not None:
                    problems.append(problem)
            end = time.perf_counter()
        finally:
            scale = probe.stop()
        result = {
            "items": len(plan),
            "wall_s": end - start,
            "setup_s": 0.0,
            "scale": scale,
            "latency_p50_s": statistics.median(latencies),
            "latencies_s": latencies,
            "server_s": server,
            "hit_latencies_s": hits,
            "miss_latencies_s": misses,
            "failed": len(problems),
            "problems": problems,
            "rss_mb": daemon.rss_mb(),
            "ledger": ledger,
            "daemon_cache": daemon.cache_counts(),
        }
        if traced:
            result["spans"] = daemon.new_spans(start, end)
            result["root_pid"] = daemon.proc.pid
        return result

    def check(self, passes: list[dict]) -> list[str]:
        """Problems beyond the per-request ones: every daemon must give
        every subject the same counts, the pinned ones at default sizes."""
        digests = {d.counts_digest() for d in self._daemons.values()}
        return self.problems + check_digests(self.name, self.sizes, digests)

    def close(self) -> None:
        for daemon in self._daemons.values():
            daemon.close()


def make_workload(name: str, seed: int, sizes: Sizes, work_dir, trace: bool):
    if name == "serve-mixed":
        return ServeWorkload(seed, sizes, work_dir, trace)
    return BatchWorkload(name, seed, sizes, work_dir, trace)


if __name__ == "__main__":
    print(json.dumps(batch_pass(json.loads(sys.argv[1]))))
