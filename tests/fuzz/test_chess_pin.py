"""Behaviour pin for the bounded systematic explorer.

``BoundedExplorer`` records every schedule and sweeps FastTrack over the
packed trace afterwards.  This pins what it finds on the real workload:
for every synthesized test of C1 at preemption bound 2, the number of
schedules run, whether the bound was exhausted, and each race's static
key with the first schedule that exposed it.  A change that keeps
exploration identical keeps these values.
"""

import hashlib
import json

from repro.fuzz import BoundedExplorer
from repro.narada import Narada
from repro.subjects import get_subject

#: sha256 over the canonical JSON of :func:`_explore_c1`.
C1_PIN = "85e1f3648e0f1f0d05ffbebcc8a45451db66d8e4dece705490fea55629d2fe44"
#: Schedules run over all C1 tests at bound 2 (readable half of the pin).
C1_SCHEDULES = 14386
C1_TESTS = 46


def _explore_c1():
    subject = get_subject("C1")
    narada = Narada(subject.load())
    tests = narada.synthesize_for_class(subject.class_name).tests
    explorer = BoundedExplorer(narada.table, preemption_bound=2)
    rows = []
    for test in tests:
        result = explorer.explore(test)
        rows.append(
            [
                test.name,
                result.schedules_run,
                result.exhausted,
                sorted(
                    [[cls, fld, list(sites)], schedule]
                    for (cls, fld, sites), schedule in result.race_schedules.items()
                ),
            ]
        )
    return rows


def test_c1_bound_two_exploration_is_pinned():
    rows = _explore_c1()
    assert len(rows) == C1_TESTS
    assert all(exhausted for _, _, exhausted, _ in rows)
    assert sum(runs for _, runs, _, _ in rows) == C1_SCHEDULES
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == C1_PIN
