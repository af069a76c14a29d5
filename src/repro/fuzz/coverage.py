"""Maple-style interleaving coverage (Yu et al., OOPSLA 2012).

Maple — the last of the systematic-testing consumers the paper cites
(§6) — drives executions toward *untested interleavings*, modelled as
"iRoots": inter-thread dependencies between static sites.  We implement
the idea at the granularity our VM exposes: an interleaving unit is an
ordered pair of static sites ``(s1 -> s2)`` where the access at ``s2``
observed, on the same address and from a different thread, the access at
``s1`` as its immediate same-address predecessor, with at least one of
the two being a write.

:class:`CoverageGuidedFuzzer` keeps running fresh schedules until
``plateau`` consecutive runs add no new interleaving units — a
saturation-based stopping rule that adapts effort to each test instead
of a fixed run count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.analysis.sweep import interest_union, run_sweep
from repro.detect.fasttrack import FastTrackDetector
from repro.detect.report import RaceSet
from repro.lang.classtable import ClassTable
from repro.runtime.scheduler import RandomScheduler
from repro.synth.runner import TestRunner, lazy_template
from repro.synth.synthesizer import SynthesizedTest
from repro.trace.columnar import OP_READ, OP_WRITE, ColumnarRecorder
from repro.trace.events import AccessEvent

#: An interleaving unit: (class, field, predecessor site, succ site).
InterleavingUnit = tuple[str, str, int, int]


@dataclass
class InterleavingCoverageProbe:
    """Sweep pass collecting observed inter-thread dependency units."""

    name = "coverage"

    interests = (AccessEvent,)

    units: set[InterleavingUnit] = field(default_factory=set)
    #: Interned address id -> the row of its most recent access.
    _last_by_address: dict[int, int] = field(default_factory=dict)

    def handlers(self, packed) -> dict:
        """Row handlers for access rows (see analysis/sweep.py).  Units
        are *ordered* site pairs (predecessor -> successor) and, unlike
        the adjacency probe, there is no common-lock exclusion; a read
        only forms a unit when its predecessor was a write."""
        ops, tids, adrs, nodes = packed.op, packed.tid, packed.adr, packed.node
        clss, flds, strtab = packed.cls, packed.fld, packed.strtab
        last, add = self._last_by_address, self.units.add

        def on_access(is_write: bool, i: int) -> None:
            adr = adrs[i]
            previous = last.get(adr)
            last[adr] = i
            if previous is None or tids[previous] == tids[i]:
                return
            if is_write or ops[previous] == OP_WRITE:
                cls, fld = strtab[clss[i]], strtab[flds[i]]
                add((cls, fld, nodes[previous], nodes[i]))

        return {
            OP_READ: partial(on_access, False),
            OP_WRITE: partial(on_access, True),
        }


@dataclass
class CoverageReport:
    """Outcome of coverage-guided fuzzing of one synthesized test."""

    test_name: str
    runs: int = 0
    units: set[InterleavingUnit] = field(default_factory=set)
    races: RaceSet = field(default_factory=RaceSet)
    #: Coverage size after each run (monotone; flat tail = saturation).
    growth: list[int] = field(default_factory=list)

    @property
    def saturated(self) -> bool:
        return (
            len(self.growth) >= 2 and self.growth[-1] == self.growth[-2]
        )


class CoverageGuidedFuzzer:
    """Run schedules until interleaving coverage stops growing."""

    def __init__(
        self,
        table: ClassTable,
        plateau: int = 4,
        max_runs: int = 40,
        vm_seed: int = 0,
    ) -> None:
        """
        Args:
            plateau: stop after this many consecutive runs without new
                interleaving units.
            max_runs: hard cap on schedules per test.
        """
        self._table = table
        self._plateau = plateau
        self._max_runs = max_runs
        self._vm_seed = vm_seed

    def fuzz(self, test: SynthesizedTest) -> CoverageReport:
        report = CoverageReport(test_name=test.name)
        interests = interest_union((InterleavingCoverageProbe, FastTrackDetector))
        stale = 0
        # Materialized on the first run and forked by every run.
        template = lazy_template(self._table, test, self._vm_seed)
        for run_index in range(self._max_runs):
            probe = InterleavingCoverageProbe()
            detector = FastTrackDetector()
            recorder = ColumnarRecorder(test.name, interests=interests)
            runner = TestRunner(self._table, listeners=(recorder,))
            runner.run(
                template(),
                RandomScheduler(seed=run_index * 2_654_435_761 + 1,
                                switch_bias=0.5),
            )
            run_sweep((probe, detector), recorder.packed)
            report.runs += 1
            before = len(report.units)
            report.units |= probe.units
            report.races.merge(detector.races)
            report.growth.append(len(report.units))
            if len(report.units) == before:
                stale += 1
                if stale >= self._plateau:
                    break
            else:
                stale = 0
        return report
