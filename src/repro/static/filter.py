"""Pair verdicts, candidate sets, and ranked fuzz budgets.

This is the prune/rank half of the staged candidate pipeline.  A
:class:`PairVerdict` discharges a pair as statically race-free when
*every* concrete site pair it covers is proven safe by one of three
rules, mirroring the inverse of Narada's empty-lock-intersection
criterion (§3.3):

* **consistent-lock** — both sites hold a common lock expressed
  relative to the shared owner object (``sync`` methods are the empty
  suffix, a guard field like ``this.lock`` is the ``("lock",)``
  suffix), so the accesses are mutually excluded;
* **thread-local** — one side targets a fresh object that never
  escapes its creating thread, so no second thread can reach the
  address;
* **read-read** — neither side writes.

Any site the facts walker could not model (``Unknown``) falls through:
the pair survives and is ranked, never pruned.  Surviving pairs carry
a risk score that orders fuzz-budget allocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.pairs.generator import RacyPair
from repro.static.facts import SiteFacts, StaticFacts

#: Verdict statuses.
PRUNED = "pruned"
RANKED = "ranked"

#: Prune-rule names (doubling as reason strings in stats/CLI output).
RULE_CONSISTENT_LOCK = "consistent-lock"
RULE_THREAD_LOCAL = "thread-local"
RULE_READ_READ = "read-read"

#: Risk-score components for ranked site pairs.
SCORE_UNKNOWN = 4
SCORE_BOTH_UNGUARDED = 3
SCORE_WRITE_WRITE = 2
SCORE_HALF_GUARDED = 2
SCORE_DISJOINT_LOCKS = 2
SCORE_UNKNOWN_OWNER = 1


@dataclass(frozen=True)
class PairVerdict:
    """Static verdict for one candidate pair."""

    status: str  # PRUNED or RANKED
    reason: str  # dominant prune rule, or "" for ranked pairs
    score: int  # risk score (0 for pruned pairs)
    deadlock_risk: bool = False
    """Some covered site holds >=2 locks on both sides: even a pruned
    pair may still deadlock, so its test keeps a reduced budget."""

    @property
    def pruned(self) -> bool:
        return self.status == PRUNED

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "score": self.score,
            "deadlock_risk": self.deadlock_risk,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PairVerdict":
        return cls(
            status=data["status"],
            reason=data.get("reason", ""),
            score=int(data.get("score", 0)),
            deadlock_risk=bool(data.get("deadlock_risk", False)),
        )


class CandidateSet(list):
    """The pair generator's result: pairs plus aligned verdicts.

    Subclasses ``list`` so every existing consumer that iterates,
    indexes, or measures the pair list keeps working; ``verdicts`` is
    empty when the static filter is off (legacy behavior).
    """

    def __init__(self, pairs=(), verdicts=()):  # noqa: D107
        super().__init__(pairs)
        self.verdicts: list[PairVerdict] = list(verdicts)

    def pruned_count(self) -> int:
        return sum(1 for v in self.verdicts if v.pruned)


# ----------------------------------------------------------------------
# Site-pair discharge rules.


def _discharge_site_pair(
    a: SiteFacts | None, b: SiteFacts | None
) -> str | None:
    """Return the rule name proving this site pair race-free, or None."""
    if a is None or b is None:
        return None  # Unknown falls through
    if a.thread_local or b.thread_local:
        return RULE_THREAD_LOCAL
    if a.kind == "R" and b.kind == "R":
        return RULE_READ_READ
    if a.owner is not None and b.owner is not None:
        if a.rel_locks() & b.rel_locks():
            return RULE_CONSISTENT_LOCK
    return None


def _site_pair_score(a: SiteFacts | None, b: SiteFacts | None) -> int:
    if a is None or b is None:
        return SCORE_UNKNOWN
    score = 0
    if a.owner is None or b.owner is None:
        score += SCORE_UNKNOWN_OWNER
    if a.kind == "W" and b.kind == "W":
        score += SCORE_WRITE_WRITE
    guarded_a = bool(a.must_locks)
    guarded_b = bool(b.must_locks)
    if not guarded_a and not guarded_b:
        score += SCORE_BOTH_UNGUARDED
    elif guarded_a != guarded_b:
        score += SCORE_HALF_GUARDED
    else:
        score += SCORE_DISJOINT_LOCKS
    return score


def _deadlock_risk(a: SiteFacts | None, b: SiteFacts | None) -> bool:
    return (
        a is not None
        and b is not None
        and len(a.must_locks) >= 2
        and len(b.must_locks) >= 2
    )


def evaluate_pair(pair: RacyPair, facts: StaticFacts) -> PairVerdict:
    """Judge one candidate pair against the static facts."""
    reasons: Counter[str] = Counter()
    score = 0
    deadlock = False
    all_discharged = True
    for first_site, second_site in sorted(pair.site_pairs):
        a = facts.site(first_site)
        b = facts.site(second_site)
        deadlock = deadlock or _deadlock_risk(a, b)
        rule = _discharge_site_pair(a, b)
        if rule is None:
            all_discharged = False
            score = max(score, _site_pair_score(a, b))
        else:
            reasons[rule] += 1
    if all_discharged and pair.site_pairs:
        reason = max(sorted(reasons), key=lambda r: reasons[r])
        return PairVerdict(
            status=PRUNED, reason=reason, score=0, deadlock_risk=deadlock
        )
    return PairVerdict(
        status=RANKED, reason="", score=score, deadlock_risk=deadlock
    )


def evaluate_pairs(
    pairs: list[RacyPair], facts: StaticFacts
) -> CandidateSet:
    """Stage 2b: attach a verdict to every generated pair."""
    return CandidateSet(pairs, [evaluate_pair(p, facts) for p in pairs])


# ----------------------------------------------------------------------
# Fuzz-budget allocation.


@dataclass(frozen=True)
class TestBudget:
    """Per-test fuzz budget derived from the covered pairs' verdicts."""

    runs: int
    score: int
    pruned: bool
    """All covered pairs statically pruned (runs is 0 or the reduced
    deadlock-watch budget)."""


def allocate_budgets(
    tests, verdicts_by_id: dict, base_runs: int
) -> dict[str, TestBudget]:
    """Assign a random-phase run budget to every synthesized test.

    A test whose covered pairs are all pruned gets zero runs (skipped
    entirely), unless one of those pairs carries deadlock risk — then
    it keeps a halved budget purely to observe deadlocks.  Surviving
    tests keep the full base budget and inherit the max risk score of
    their ranked pairs, which orders them in reports.
    """
    budgets: dict[str, TestBudget] = {}
    for test in tests:
        covered = [
            verdicts_by_id.get(pair.static_id()) for pair in test.covered_pairs
        ]
        if covered and all(v is not None and v.pruned for v in covered):
            if any(v.deadlock_risk for v in covered):
                runs = max(1, base_runs // 2)
            else:
                runs = 0
            budgets[test.name] = TestBudget(runs=runs, score=0, pruned=True)
            continue
        score = max(
            (v.score for v in covered if v is not None and not v.pruned),
            default=0,
        )
        budgets[test.name] = TestBudget(
            runs=base_runs, score=score, pruned=False
        )
    return budgets


def verdict_index(report) -> dict:
    """Map pair static ids to verdicts for a synthesis report."""
    verdicts = getattr(report, "verdicts", None) or []
    if len(verdicts) != len(report.pairs):
        return {}
    return {
        pair.static_id(): verdict
        for pair, verdict in zip(report.pairs, verdicts)
    }


# ----------------------------------------------------------------------
# Statistics.


@dataclass
class StaticFilterStats:
    """Aggregated prune/rank statistics for reports and CLI output."""

    generated: int = 0
    pruned: int = 0
    ranked: int = 0
    by_reason: Counter = field(default_factory=Counter)
    score_total: int = 0
    deadlock_watch: int = 0

    @property
    def pruned_fraction(self) -> float:
        return self.pruned / self.generated if self.generated else 0.0

    def absorb(self, other: "StaticFilterStats") -> None:
        self.generated += other.generated
        self.pruned += other.pruned
        self.ranked += other.ranked
        self.by_reason.update(other.by_reason)
        self.score_total += other.score_total
        self.deadlock_watch += other.deadlock_watch


def filter_stats(verdicts: list[PairVerdict]) -> StaticFilterStats:
    stats = StaticFilterStats(generated=len(verdicts))
    for verdict in verdicts:
        if verdict.pruned:
            stats.pruned += 1
            stats.by_reason[verdict.reason] += 1
            if verdict.deadlock_risk:
                stats.deadlock_watch += 1
        else:
            stats.ranked += 1
            stats.score_total += verdict.score
    return stats
