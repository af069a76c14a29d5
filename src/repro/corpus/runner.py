"""Recall/precision harness: score Narada's output against the oracle.

The pipeline reports races as ``(class, field, site pair)``; the oracle
speaks ``(field, method pair)``.  The bridge is purely static: every AST
node id inside a method body belongs to exactly one method, so a site
pair maps to a method pair by lookup in the subject's site map
(:meth:`ClassTable.site_methods <repro.lang.classtable.ClassTable.site_methods>`,
which a replay reads from the cache).  Scoring is then set arithmetic
per subject:

* **recall** — oracle races whose key appears among the detected races.
  The corpus is constructed so every true race is expressible under any
  schedule (see :mod:`repro.corpus.templates`), which is what makes a
  hard ``recall == 1.0`` gate reasonable;
* **precision** — detected races that the oracle confirms.  Measured,
  not gated: the detectors are supposed to earn this number;
* **pair precision** — the *candidate* racy pairs (stage-2 output)
  that correspond to true races.  This is where the deliberately
  race-free templates (``thread_local_receiver``,
  ``lock_order_inversion``) show up as static over-approximation;
* **deadlock** — subjects whose oracle predicts deadlock potential vs
  subjects where fuzzing actually produced a deadlocked schedule
  (reported; bounded random fuzzing has no completeness claim here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.generator import CorpusConfig, GeneratedSubject, generate_corpus
from repro.narada.orchestrator import (
    PipelineOrchestrator,
    SubjectOutcome,
    SubjectSpec,
)

#: Method-pair race key: (field name, sorted (method, method)).
RaceKey = tuple[str, tuple[str, str]]


def corpus_specs(subjects: list[GeneratedSubject]) -> list[SubjectSpec]:
    """Orchestrator specs for generated subjects (pipeline unchanged)."""
    return [
        SubjectSpec(name=s.key, source=s.source, target_class=s.class_name)
        for s in subjects
    ]


def race_keys_of(static_keys, sites: dict[int, str]) -> set[RaceKey]:
    """Map detected races, by their static keys ``(class, field, site
    pair)`` (``RaceSet.static_keys()``), to oracle-comparable keys.

    A site outside any method body (a client-level access in a test
    body) maps to ``<client>`` — never an oracle key, so such a race
    counts against precision instead of silently disappearing.
    """
    keys: set[RaceKey] = set()
    for _, field_name, (site_a, site_b) in static_keys:
        first = sites.get(site_a, "<client>")
        second = sites.get(site_b, "<client>")
        keys.add((field_name, tuple(sorted((first, second)))))
    return keys


@dataclass
class SubjectScore:
    """Oracle-vs-pipeline comparison for one generated subject."""

    key: str
    class_name: str
    template_keys: tuple[str, ...]
    oracle: set[RaceKey] = field(default_factory=set)
    detected: set[RaceKey] = field(default_factory=set)
    candidate_pairs: set[RaceKey] = field(default_factory=set)
    pruned_pairs: set[RaceKey] = field(default_factory=set)
    deadlock_expected: bool = False
    deadlock_observed: bool = False
    pipeline_failed: bool = False

    @property
    def missed(self) -> set[RaceKey]:
        return self.oracle - self.detected

    @property
    def unexpected(self) -> set[RaceKey]:
        return self.detected - self.oracle

    @property
    def pruned_oracle(self) -> set[RaceKey]:
        """Oracle races the static pre-filter discharged — must be empty.

        Any member is a soundness bug in :mod:`repro.static`: the filter
        claimed a consistent lock / thread-local receiver for a pair the
        corpus constructed to race."""
        return self.pruned_pairs & self.oracle

    @property
    def complete(self) -> bool:
        return (
            not self.pipeline_failed
            and not self.missed
            and not self.pruned_oracle
        )


def score_outcome(
    subject: GeneratedSubject, outcome: SubjectOutcome
) -> SubjectScore:
    """Score one subject's pipeline outcome against its oracle."""
    score = SubjectScore(
        key=subject.key,
        class_name=subject.class_name,
        template_keys=subject.template_keys,
        oracle=subject.verdict.race_keys(),
        deadlock_expected=subject.verdict.deadlock_potential,
    )
    if outcome.synthesis is None or outcome.detection is None:
        score.pipeline_failed = True
        return score
    if outcome.detection_partial:
        # Tests that failed to fuzz can hide races; a partial subject must not
        # be allowed to pass the recall gate by luck.
        score.pipeline_failed = True

    sites = outcome.program.sites
    verdicts = outcome.synthesis.verdicts
    aligned = len(verdicts) == len(outcome.synthesis.pairs)
    for i, pair in enumerate(outcome.synthesis.pairs):
        methods = tuple(
            sorted((pair.first.method_id()[1], pair.second.method_id()[1]))
        )
        pair_key = (pair.field[1], methods)
        score.candidate_pairs.add(pair_key)
        if aligned and verdicts[i].pruned:
            score.pruned_pairs.add(pair_key)
    for fuzz in outcome.detection.fuzz_reports:
        score.detected |= race_keys_of(fuzz.detected.static_keys(), sites)
        if fuzz.deadlocks:
            score.deadlock_observed = True
    return score


@dataclass
class CorpusResult:
    """Aggregated corpus run: per-subject scores plus headline metrics."""

    scores: list[SubjectScore]
    digests: dict[str, str]

    @property
    def subjects(self) -> int:
        return len(self.scores)

    @property
    def oracle_races(self) -> int:
        return sum(len(s.oracle) for s in self.scores)

    @property
    def detected_races(self) -> int:
        return sum(len(s.detected) for s in self.scores)

    @property
    def true_detected(self) -> int:
        return sum(len(s.detected & s.oracle) for s in self.scores)

    @property
    def missed_races(self) -> int:
        return sum(len(s.missed) for s in self.scores)

    @property
    def recall(self) -> float:
        total = self.oracle_races
        return 1.0 if total == 0 else self.true_detected / total

    @property
    def precision(self) -> float:
        total = self.detected_races
        return 1.0 if total == 0 else self.true_detected / total

    @property
    def candidate_pairs(self) -> int:
        return sum(len(s.candidate_pairs) for s in self.scores)

    @property
    def true_candidate_pairs(self) -> int:
        return sum(len(s.candidate_pairs & s.oracle) for s in self.scores)

    @property
    def pair_precision(self) -> float:
        total = self.candidate_pairs
        return 1.0 if total == 0 else self.true_candidate_pairs / total

    @property
    def pruned_pairs(self) -> int:
        return sum(len(s.pruned_pairs) for s in self.scores)

    @property
    def pruned_fraction(self) -> float:
        total = self.candidate_pairs
        return 0.0 if total == 0 else self.pruned_pairs / total

    @property
    def pruned_oracle_races(self) -> int:
        """Statically pruned pairs that the oracle marks racy (gate: 0)."""
        return sum(len(s.pruned_oracle) for s in self.scores)

    @property
    def deadlock_expected(self) -> int:
        return sum(1 for s in self.scores if s.deadlock_expected)

    @property
    def deadlock_observed(self) -> int:
        return sum(
            1
            for s in self.scores
            if s.deadlock_expected and s.deadlock_observed
        )

    @property
    def failed_subjects(self) -> list[str]:
        return [s.key for s in self.scores if s.pipeline_failed]

    def problems(self) -> list[str]:
        """Human-readable recall violations (empty = gate passes)."""
        out = []
        for s in self.scores:
            if s.pipeline_failed:
                out.append(f"{s.key}: pipeline failed or partial")
            for race_key in sorted(s.missed):
                out.append(
                    f"{s.key}: LOST race on {race_key[0]} between "
                    f"{race_key[1][0]} and {race_key[1][1]} "
                    f"(templates: {', '.join(s.template_keys)})"
                )
            for race_key in sorted(s.pruned_oracle):
                out.append(
                    f"{s.key}: PRUNED oracle race on {race_key[0]} between "
                    f"{race_key[1][0]} and {race_key[1][1]} "
                    f"(templates: {', '.join(s.template_keys)})"
                )
        return out

    def to_dict(self) -> dict:
        """The headline metrics, the recall problems and the per-subject
        digests: the ``corpus run --json`` output and the daemon's
        ``corpus`` reply."""
        return {
            "subjects": self.subjects,
            "recall": self.recall,
            "precision": self.precision,
            "pair_precision": self.pair_precision,
            "pruned_pairs": self.pruned_pairs,
            "pruned_fraction": self.pruned_fraction,
            "pruned_oracle_races": self.pruned_oracle_races,
            "oracle_races": self.oracle_races,
            "detected_races": self.detected_races,
            "missed_races": self.missed_races,
            "deadlock_expected": self.deadlock_expected,
            "deadlock_observed": self.deadlock_observed,
            "failed_subjects": self.failed_subjects,
            "problems": self.problems(),
            "digests": self.digests,
        }

    def summary(self) -> str:
        return (
            f"{self.subjects} subject(s): "
            f"recall {self.recall:.3f} "
            f"({self.true_detected}/{self.oracle_races} oracle races, "
            f"{self.missed_races} lost), "
            f"precision {self.precision:.3f} "
            f"({self.true_detected}/{self.detected_races} detected), "
            f"pair precision {self.pair_precision:.3f} "
            f"({self.true_candidate_pairs}/{self.candidate_pairs}), "
            f"pruned {self.pruned_pairs}/{self.candidate_pairs} "
            f"({self.pruned_fraction:.1%}, {self.pruned_oracle_races} oracle), "
            f"deadlocks {self.deadlock_observed}/{self.deadlock_expected}"
        )


def run_corpus(
    config: CorpusConfig,
    orchestrator: PipelineOrchestrator,
    subjects: list[GeneratedSubject] | None = None,
) -> CorpusResult:
    """Generate (unless given), run, and score a corpus.

    Streams subjects through the orchestrator in waves via
    :meth:`PipelineOrchestrator.run_stream`, scoring
    and releasing each outcome as it arrives — 200 subjects' worth of
    fuzz reports never coexist in memory.
    """
    if subjects is None:
        subjects = generate_corpus(config)
    by_key = {s.key: s for s in subjects}
    scores: list[SubjectScore] = []
    digests: dict[str, str] = {}
    for outcome in orchestrator.run_stream(corpus_specs(subjects)):
        subject = by_key[outcome.spec.name]
        scores.append(score_outcome(subject, outcome))
        digests[outcome.spec.name] = outcome.digest()
    return CorpusResult(scores=scores, digests=digests)
