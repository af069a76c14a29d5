"""Oracle soundness: exhaustive exploration agrees with the ground truth.

For every template in isolation and for representative compositions,
synthesize tests through the real pipeline and explore *every* schedule
(within the preemption bound) with the chess machinery.  The union of
observed races must equal the oracle's race set exactly — no lost race
(the oracle never over-claims) and no extra race (it never
under-claims) — and deadlock potential must match observed deadlocks.
"""

import pytest

from repro.corpus import compose_subject, template_names
from repro.corpus.runner import race_keys_of
from repro.fuzz import explore_test
from repro.lang import load
from repro.narada import PipelineConfig, PipelineOrchestrator, SubjectSpec

COMPOSITIONS = [(name,) for name in template_names()] + [
    ("wrong_mutex", "double_checked_init"),
    ("unguarded_reader", "thread_local_receiver", "benign_constant_reset"),
    ("lock_order_inversion", "guarded_stale_publication"),
]


def _explore(subject):
    table = load(subject.source)
    spec = SubjectSpec(
        name=subject.key,
        source=subject.source,
        target_class=subject.class_name,
    )
    with PipelineOrchestrator(
        jobs=1, cache=None, config=PipelineConfig()
    ) as orch:
        report = orch.synthesize(spec)
    sites = table.site_methods()
    observed = set()
    deadlocked = False
    for test in report.tests:
        result = explore_test(table, test, preemption_bound=2)
        # The claim below is only meaningful over the *complete*
        # bounded schedule space.
        assert result.exhausted, f"{test.name}: schedule cap hit"
        observed |= race_keys_of(result.races.static_keys(), sites)
        deadlocked = deadlocked or bool(result.deadlock_schedules)
    pruned = set()
    assert len(report.verdicts) == len(report.pairs)
    for pair, verdict in zip(report.pairs, report.verdicts):
        if verdict.pruned:
            methods = tuple(
                sorted(
                    (pair.first.method_id()[1], pair.second.method_id()[1])
                )
            )
            pruned.add((pair.field[1], methods))
    return observed, deadlocked, pruned


@pytest.mark.parametrize(
    "keys", COMPOSITIONS, ids=["+".join(keys) for keys in COMPOSITIONS]
)
def test_oracle_matches_exhaustive_exploration(keys):
    subject = compose_subject(list(keys), class_name="Probe", key="P0")
    observed, deadlocked, pruned = _explore(subject)
    assert observed == subject.verdict.race_keys()
    assert deadlocked == subject.verdict.deadlock_potential
    # The static pre-filter's verdicts are judged against the *schedule
    # space itself*: a pruned pair must be unobservable under any
    # bounded-preemption schedule, not merely unclaimed by the oracle.
    assert not pruned & observed, (
        f"statically pruned pair(s) raced under exhaustive "
        f"exploration: {sorted(pruned & observed)}"
    )
