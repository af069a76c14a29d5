"""RaceFuzzer-style schedule fuzzing over synthesized tests.

The paper feeds Narada's tests to RaceFuzzer (Sen, PLDI 2008), which
(1) detects candidate races with a hybrid detector and (2) *confirms*
them by steering the scheduler so the two accesses execute back to back.
Our analogue does the same over the MiniJ VM:

* **random phase** — run the synthesized test under several seeded
  random schedules with the FastTrack and Eraser detectors attached;
  union the reported races.  An :class:`AdjacencyProbe` marks races that
  already manifested as adjacent conflicting accesses.
* **directed phase** — for every candidate race not yet confirmed, take
  a fresh prepared run and drive one racy thread until it performs the
  first access of the pair, then drive the other thread toward the
  second access on the *same address*.  Success means the race was
  reproduced in a concrete execution (the paper's "Reproduced" column);
  candidates that never confirm correspond to the "Manual" column.

The detectors are decoupled from execution: each run records its
detector-relevant event stream into a :class:`PackedTrace` (one
listener, columnar storage, recorder interests derived from the pass
stack) and the detectors consume it afterwards, in one sweep of the
analysis engine (analysis/sweep.py) that hands each row to the
FastTrack, Eraser and adjacency-probe handlers.  That split enables
**interleaving-digest memoization**: runs of one test whose packed
streams digest equal would feed the detectors bit-identical input, so
the detector replay is skipped and the memoized race sets are unioned
instead.  See DESIGN.md §8 for why a digest match is sound.

**Directed replay.**  A directed run is a function of the test, the
leader and where its two drives stop: until the lead drive reaches
its site, no step depends on that site, and likewise for the chase.
So every attempt whose lead misses its site makes the same run, as
does every attempt whose chase misses after the same lead stop.  Each
``fuzz()`` call keeps, per leader, the accesses its lead stepped past
when it missed (and per lead stop, the chase's), resolves an
attempt's stops from them before preparing it, and replays the record
of an already executed run instead of executing it again: the same
counters and the same memo hit the run would have produced.  So most
memo hits are replays, which skip execution as well as the sweep: on
C1 C3 C6 C7 C9 at ``random_runs=2``, 17 of the 315 hits come from
executed runs.  See DESIGN.md §8 for why a replay is sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.analysis.sweep import interest_union, memo_key, run_sweep
from repro.detect.eraser import EraserDetector
from repro.detect.fasttrack import FastTrackDetector
from repro.detect.report import RaceRecord, RaceSet, constant_write_sites
from repro.fuzz.probes import AdjacencyProbe
from repro.lang.classtable import ClassTable
from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler
from repro.runtime.vm import ThreadStatus
from repro.synth.runner import PreparedRun, TemplateSource, TestRunner
from repro.synth.synthesizer import MaterializedTest, SynthesizedTest
from repro.trace.columnar import ColumnarRecorder, PackedTrace

#: Step budget for each phase of a directed confirmation attempt.
DIRECTED_PHASE_STEPS = 20_000

#: The fuzz analysis stack, swept together over each recorded run.
_FUZZ_PASSES = (FastTrackDetector, EraserDetector, AdjacencyProbe)
_FUZZ_PASS_NAMES = tuple(p.name for p in _FUZZ_PASSES)

#: Recorder interest set: the union of the stack's declared interests,
#: so the recording holds every row the passes handle (see
#: interest_union in analysis/sweep.py).
_FUZZ_INTERESTS = interest_union(_FUZZ_PASSES)

#: Key of the directed-drive record of a failed ``prepare``.
_UNPREPARED = "unprepared"


def schedule_seed(test_name: str, run_index: int) -> int:
    """Deterministic schedule seed for one fuzz run of one test.

    Derived purely from content — never from loop position, process
    identity, or pool scheduling — so a test fuzzes identically whether
    the run happens serially or on any worker of a process pool.  (A
    plain ``hash()`` would not do: Python randomizes string hashing per
    process.)
    """
    digest = hashlib.sha256(
        f"{test_name}\x1f{run_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class FuzzReport:
    """Outcome of fuzzing one synthesized test."""

    test: SynthesizedTest
    detected: RaceSet = field(default_factory=RaceSet)
    reproduced: set[tuple] = field(default_factory=set)
    confirmed_raw: set[tuple] = field(default_factory=set)
    """Adjacency confirmations, including ones whose race record only
    appears in a later run; intersected with detections after each run."""
    random_runs: int = 0
    directed_attempts: int = 0
    deadlocks: int = 0
    faults: int = 0
    timeouts: int = 0
    synthesis_failed: bool = False
    failure_trace: str | None = None
    """Full traceback of the synthesis/collection failure, when one was
    swallowed into ``synthesis_failed`` — triage evidence, not debris."""
    constant_sites: set[int] = field(default_factory=set)
    """Constant-RHS write sites of the program (benign classification)."""
    trace_events: int = 0
    """Total packed events recorded across every run of this test."""
    packed_bytes: int = 0
    """Total packed-trace bytes across every run (columns + tables)."""
    memo_hits: int = 0
    """Runs whose interleaving digest matched a prior run: detector
    replay skipped, races unioned from the memo."""
    memo_misses: int = 0
    """Runs that actually replayed the detectors (first-seen digests)."""
    budget_runs: int = 0
    """Random-phase runs this test was budgeted (the static pre-filter
    halves the budget for deadlock-watch tests; equals the configured
    ``random_runs`` when no budget was applied)."""
    rank_score: int = 0
    """Max static risk score of the ranked pairs this test covers (0
    when the static pre-filter was off)."""

    def reproduced_records(self) -> list[RaceRecord]:
        return [r for r in self.detected if r.static_key() in self.reproduced]

    def harmful(self) -> list[RaceRecord]:
        return [
            r
            for r in self.reproduced_records()
            if not r.is_benign(self.constant_sites)
        ]

    def benign(self) -> list[RaceRecord]:
        return [
            r for r in self.reproduced_records() if r.is_benign(self.constant_sites)
        ]

    @property
    def race_count(self) -> int:
        return len(self.detected)

    def describe(self) -> str:
        lines = [
            f"{self.test.name}: {len(self.detected)} race(s) detected, "
            f"{len(self.reproduced)} reproduced "
            f"({len(self.harmful())} harmful, {len(self.benign())} benign)"
        ]
        for record in self.detected:
            marker = "*" if record.static_key() in self.reproduced else " "
            lines.append(f" {marker} {record.describe(self.constant_sites)}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Canonical dict form (see :mod:`repro.narada.serial`)."""
        from repro.narada.serial import encode_fuzz_bundle

        return encode_fuzz_bundle(self)


class _Run(NamedTuple):
    """What one executed run adds to a report: scalars only, so a
    directed record keeps neither the trace nor the VM alive."""

    events: int
    nbytes: int
    digest: str
    deadlocked: bool
    timed_out: bool
    faults: int


class RaceFuzzer:
    """Detects and confirms races in synthesized multithreaded tests."""

    def __init__(
        self,
        table: ClassTable,
        random_runs: int = 8,
        vm_seed: int = 0,
        directed: bool = True,
    ) -> None:
        self._table = table
        self._random_runs = random_runs
        self._vm_seed = vm_seed
        self._directed = directed

    def fuzz(
        self,
        test: SynthesizedTest,
        runs: int | None = None,
        rank_score: int = 0,
        templates: TemplateSource | None = None,
    ) -> FuzzReport:
        """Fuzz one test, optionally under a per-test run budget.

        ``runs`` overrides the configured random-phase run count for
        this call (the staged candidate pipeline allocates budgets per
        test from the static verdicts); schedule seeds still depend
        only on (test name, run index), so a budgeted prefix of runs is
        bit-identical to the same prefix of a full fuzz.  ``templates``
        shares seed collection with other tests' fuzz calls; it must
        have been built with this fuzzer's table and VM seed.
        """
        budget = self._random_runs if runs is None else runs
        report = FuzzReport(
            test=test,
            constant_sites=set(constant_write_sites(self._table)),
            budget_runs=budget,
            rank_score=rank_score,
        )
        # The interleaving-digest memo is scoped to this one fuzz()
        # call: sharing it across tests would make the hit counters
        # depend on which tests a worker happened to fuzz before this
        # one, breaking the bit-identical-to-serial contract.
        memo: dict[str, tuple] = {}
        # Materialized on the first run, inside the try below, and
        # forked by every run after that.
        if templates is None:
            templates = TemplateSource(self._table, self._vm_seed)
        template = templates.template(test)
        try:
            self._random_phase(test, template, report, memo, budget)
            if self._directed:
                self._directed_phase(test, template, report, memo)
        except Exception as error:  # synthesis/collection failures
            import traceback

            from repro._util.errors import SynthesisError

            if isinstance(error, SynthesisError):
                # Absorbed into the report, but with the evidence kept:
                # the stack is what a triage actually needs.
                report.synthesis_failed = True
                report.failure_trace = traceback.format_exc()
                return report
            raise
        return report

    # ------------------------------------------------------------------
    # Random phase.

    def _random_phase(
        self,
        test: SynthesizedTest,
        template: Callable[[], MaterializedTest],
        report: FuzzReport,
        memo: dict,
        runs: int,
    ) -> None:
        for run_index in range(runs):
            recorder = ColumnarRecorder(test.name, interests=_FUZZ_INTERESTS)
            runner = TestRunner(self._table, listeners=(recorder,))
            outcome = runner.run(
                template(),
                RandomScheduler(seed=schedule_seed(test.name, run_index)),
            )
            report.random_runs += 1
            self._absorb(report, outcome, recorder.packed, memo)

    def _absorb(
        self, report: FuzzReport, outcome, packed: PackedTrace, memo: dict
    ) -> _Run:
        """Measure one executed run, fold it into the report and return
        its measurement, memoizing by interleaving digest.

        A digest hit means this run's detector-relevant event stream is
        byte-identical to an earlier run's, so replaying the (pure)
        detectors would reproduce exactly the memoized race sets —
        union those instead of feeding the detectors again.
        """
        digest = memo_key(_FUZZ_PASS_NAMES, packed)
        hit = digest in memo
        if not hit:
            fasttrack = FastTrackDetector()
            eraser = EraserDetector()
            probe = AdjacencyProbe()
            run_sweep((fasttrack, eraser, probe), packed)
            memo[digest] = (fasttrack.races, eraser.races, probe.confirmed)
        result = outcome.concurrent_result
        run = _Run(
            events=len(packed),
            nbytes=packed.nbytes(),
            digest=digest,
            deadlocked=result is not None and result.deadlocked,
            timed_out=result is not None and result.timed_out,
            faults=0 if result is None else len(result.faults),
        )
        self._fold(report, run, memo, hit)
        return run

    @staticmethod
    def _fold(report: FuzzReport, run: _Run, memo: dict, hit: bool) -> None:
        """Fold a measured run into the report.  A replayed run is a
        hit: its digest entered ``memo`` when it executed."""
        report.trace_events += run.events
        report.packed_bytes += run.nbytes
        if hit:
            report.memo_hits += 1
        else:
            report.memo_misses += 1
        fasttrack_races, eraser_races, confirmed = memo[run.digest]
        report.detected.merge(fasttrack_races)
        report.detected.merge(eraser_races)
        report.confirmed_raw |= confirmed
        report.reproduced = report.confirmed_raw & report.detected.static_keys()
        if run.deadlocked:
            report.deadlocks += 1
        if run.timed_out:
            report.timeouts += 1
        report.faults += run.faults

    # ------------------------------------------------------------------
    # Directed phase.

    def _directed_phase(
        self,
        test: SynthesizedTest,
        template: Callable[[], MaterializedTest],
        report: FuzzReport,
        memo: dict,
    ) -> None:
        candidates = [
            record
            for record in report.detected
            if record.static_key() not in report.reproduced
        ]
        # Also target the pairs the synthesis aimed at, even if the
        # random phase missed them entirely.
        site_targets = {
            (record.first.node_id, record.second.node_id): record
            for record in candidates
        }
        # Sorted: set iteration order depends on insertion history, and a
        # test rebuilt from its serialized form inserts sites in a
        # different order than the synthesizer did.  Attempt order must be
        # a function of content only.
        for sites in sorted(test.target_sites()):
            site_targets.setdefault(sites, None)

        # This call's directed drives, keyed by what decides a run (see
        # _decided) and scoped to the call like the memo:
        # - ("lead", leader): the node ids the lead stepped past when it
        #   missed;
        # - ("chase", leader, first): the lead's address at ``first`` and
        #   the (node id, address) pairs the chase stepped past when it
        #   missed;
        # - ("run", leader, stop1, stop2): (run, confirmed) of the
        #   executed run whose drives stopped at those sites (None:
        #   never);
        # - _UNPREPARED: (None, False), once ``prepare`` has failed.
        drives: dict = {}

        def settled(sites: tuple[int, int], record) -> bool:
            if record is not None:
                return record.static_key() in report.reproduced
            return any(key[2] == sites for key in report.confirmed_raw)

        for (site_a, site_b), record in site_targets.items():
            sites = (min(site_a, site_b), max(site_a, site_b))
            if settled(sites, record):
                continue
            orders = [(site_a, site_b)]
            if site_a != site_b:
                orders.append((site_b, site_a))
            for first, second in orders:
                for leader in (0, 1):
                    self._directed_attempt(
                        test, template, report, first, second, leader, memo,
                        drives,
                    )
                    if settled(sites, record):
                        break
                else:
                    continue
                break

    def _directed_attempt(
        self,
        test: SynthesizedTest,
        template: Callable[[], MaterializedTest],
        report: FuzzReport,
        first_site: int,
        second_site: int,
        leader: int,
        memo: dict,
        drives: dict,
    ) -> bool:
        key = _decided(drives, leader, first_site, second_site)
        if key in drives:
            run, confirmed = drives[key]
            report.directed_attempts += 1
            if run is not None:
                self._fold(report, run, memo, hit=True)
            return confirmed
        recorder = ColumnarRecorder(test.name, interests=_FUZZ_INTERESTS)
        runner = TestRunner(self._table, listeners=(recorder,))
        prepared = runner.prepare(template())
        report.directed_attempts += 1
        if not prepared.ok:
            drives[_UNPREPARED] = (None, False)
            return False
        assert prepared.thread_ids is not None
        lead_tid = prepared.thread_ids[leader]
        chase_tid = prepared.thread_ids[1 - leader]

        packed = recorder.packed
        lead_seen: set = set()
        confirmed = False
        with prepared.execution.elide():
            address = self._drive_until(
                prepared, packed, lead_tid, chase_tid, first_site, None, lead_seen
            )
            if address is None:
                drives[("lead", leader)] = lead_seen
            else:
                chase_seen: set = set()
                hit = self._drive_until(
                    prepared, packed, chase_tid, lead_tid, second_site, address,
                    chase_seen,
                )
                confirmed = hit is not None
                if not confirmed:
                    drives[("chase", leader, first_site)] = (address, chase_seen)
        # Drain so detectors see a complete execution and threads finish.
        outcome = runner.finish(prepared, RoundRobinScheduler())
        run = self._absorb(report, outcome, packed, memo)
        stops = (
            first_site if address is not None else None,
            second_site if confirmed else None,
        )
        assert key is None or key == ("run", leader, *stops), key
        drives[("run", leader, *stops)] = (run, confirmed)
        return confirmed

    @staticmethod
    def _drive_until(
        prepared: PreparedRun,
        packed: PackedTrace,
        preferred: int,
        other: int,
        site: int,
        address: tuple | None,
        seen: set,
    ):
        """Step ``preferred`` until it performs an access at ``site``
        (optionally on ``address``); returns the address or None.

        Each access is read back from the row it adds to ``packed``,
        the run's recording, which records every read and write.
        ``seen`` collects the accesses of ``preferred`` that the drive
        stepped past: their node ids, or with an ``address`` their
        (node id, address) pairs.
        """
        execution = prepared.execution
        assert execution is not None
        for _ in range(DIRECTED_PHASE_STEPS):
            status = execution.thread(preferred).status
            if status in (ThreadStatus.DONE, ThreadStatus.FAULTED):
                return None
            if status is ThreadStatus.BLOCKED:
                # Let the other thread run one event to release monitors.
                other_status = execution.thread(other).status
                if other_status is ThreadStatus.RUNNABLE:
                    execution.step(other)
                    continue
                return None
            row = len(packed)
            execution.step(preferred)
            at = packed.access(row)
            if at is None:
                continue
            if address is None:
                node_id, at_address = at
                if node_id == site:
                    return at_address
                seen.add(node_id)
            else:
                if at == (site, address):
                    return address
                seen.add(at)
        return None


def _decided(drives: dict, leader: int, first: int, second: int):
    """The ``drives`` key of the run an attempt would make, or None
    while a drive it depends on has not missed yet.

    A drive stops at the first access of its site (and address), so a
    site among the accesses that a missed drive stepped past is where
    the drive stops, and any other site is a miss again.
    """
    if _UNPREPARED in drives:
        return _UNPREPARED
    both = ("run", leader, first, second)
    if both in drives:
        # The same attempt, executed before with both drives stopping.
        return both
    chase = drives.get(("chase", leader, first))
    if chase is None:
        lead = drives.get(("lead", leader))
        if lead is None or first in lead:
            return None
        return ("run", leader, None, None)
    # Only a lead that stopped at ``first`` has a chase.
    address, seen = chase
    return ("run", leader, first, second if (second, address) in seen else None)
