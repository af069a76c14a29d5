"""Stage 2a of Narada: the Pair Generator (§3.3).

From the analyzed summaries, enumerate *potential racy access pairs*.
An unprotected access ``u`` at label ``ℓ`` can race with:

* a concurrent execution of ``ℓ`` itself from a second thread (when the
  access is a write), or
* any other access — protected or not — of the same field from any
  client-invokable method, provided at least one of the two is a write.

Accesses found inside constructors are discarded (§4: "We treat
constructor as any other method to help set the context, but discard
unprotected accesses found in them while building the racing pairs").

Pairs are deduplicated by their static identity (method, site, field),
so re-running a seed test does not inflate the pair count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.model import AccessRecord, AnalysisResult, MethodSummary


@dataclass(frozen=True)
class PairSide:
    """One side of a racy pair: an access within a client invocation."""

    summary: MethodSummary
    access: AccessRecord

    def method_id(self) -> tuple[str, str]:
        return self.summary.method_id()

    def static_id(self) -> tuple[str, str, int]:
        cls, method = self.method_id()
        return (cls, method, self.access.node_id)

    def describe(self) -> str:
        cls, method = self.method_id()
        return f"{cls}.{method}:{self.access.describe()}"


@dataclass
class RacyPair:
    """A potential race between two *method invocations* on one field.

    The paper counts racing pairs at the granularity a test needs: which
    two methods must run concurrently, racing on which field (multiple
    unprotected accesses of the same field within a method belong to one
    pair, §5).  ``first``/``second`` are representative accesses;
    ``site_pairs`` keeps every concrete static site combination so the
    race-directed fuzzer can target all of them.

    ``first`` is always an unprotected access.  ``same_site`` marks
    pairs whose representative sides are one static access executed by
    two threads.
    """

    first: PairSide
    second: PairSide
    field: tuple[str, str]
    same_site: bool
    site_pairs: set[tuple[int, int]] = field(default_factory=set)

    def static_id(self) -> tuple:
        methods = sorted([self.first.method_id(), self.second.method_id()])
        return (tuple(methods), self.field)

    def involves_write(self) -> bool:
        return self.first.access.is_write or self.second.access.is_write

    def add_sites(self, first_site: int, second_site: int) -> None:
        self.site_pairs.add(
            (min(first_site, second_site), max(first_site, second_site))
        )

    def describe(self) -> str:
        kind = "same-site" if self.same_site else "cross-site"
        return (
            f"[{kind}] {self.field[0]}.{self.field[1]}: "
            f"{self.first.describe()}  <->  {self.second.describe()}"
        )


def _field_identity(access: AccessRecord) -> tuple:
    """Static field identity, refined for builtin array slots.

    Every ``IntArray`` in the program shares the runtime class
    ``(IntArray, elem)``; to avoid pairing unrelated buffers we extend
    the identity of array accesses with the field under which the array
    was reached (e.g. ``Ithis.buf.elem`` -> hint ``buf``).
    """
    base = (access.class_name, access.field_name)
    if access.field_name != "elem":
        return base
    hint = None
    if access.access_path is not None and access.access_path.depth >= 2:
        hint = access.access_path.fields[-2]
    return base + (hint,)


def _eligible(access: AccessRecord) -> bool:
    return not access.in_constructor


def _canonical(pair: RacyPair) -> RacyPair:
    """Orient a symmetric pair deterministically.

    ``static_id`` sorts its method ids, so the *identity* of a pair was
    always order-invariant — but the representative ``first``/``second``
    orientation used to depend on which side the seed-trace enumeration
    reached first.  When both sides are eligible seeds (unprotected,
    non-constructor), pin the orientation to the smaller static id so
    the same program yields the same representative regardless of seed
    ordering.  One-sided pairs keep the unprotected access first (the
    documented invariant).
    """
    if pair.same_site:
        return pair
    second = pair.second.access
    if not (second.unprotected and not second.in_constructor):
        return pair
    if pair.second.static_id() < pair.first.static_id():
        return RacyPair(
            first=pair.second,
            second=pair.first,
            field=pair.field,
            same_site=pair.same_site,
            site_pairs=pair.site_pairs,
        )
    return pair


class PairGenerator:
    """Builds the set of potential racy access pairs from an analysis."""

    def __init__(self, analysis: AnalysisResult) -> None:
        self._analysis = analysis

    def generate(self, target_class: str | None = None) -> list[RacyPair]:
        """Enumerate deduplicated racy pairs.

        Args:
            target_class: when given, only pairs whose *seeding
                unprotected access* lives in an invocation on this class
                are produced (how the paper evaluates one class at a
                time, Table 4).
        """
        sides = self._collect_sides(target_class)
        by_field = self._index_by_field(target_class)

        pairs: dict[tuple, RacyPair] = {}

        def record(pair: RacyPair) -> None:
            existing = pairs.setdefault(pair.static_id(), _canonical(pair))
            existing.add_sites(
                pair.first.access.node_id, pair.second.access.node_id
            )

        for unprotected in sides:
            u_access = unprotected.access
            if u_access.is_write:
                record(
                    RacyPair(
                        first=unprotected,
                        second=unprotected,
                        field=_field_identity(u_access)[:2],
                        same_site=True,
                    )
                )
            for other in by_field.get(_field_identity(u_access), ()):
                if other.access.label == u_access.label:
                    continue
                if not (u_access.is_write or other.access.is_write):
                    continue
                record(
                    RacyPair(
                        first=unprotected,
                        second=other,
                        field=_field_identity(u_access)[:2],
                        same_site=(other.static_id() == unprotected.static_id()),
                    )
                )
        return sorted(pairs.values(), key=lambda p: p.static_id())

    # ------------------------------------------------------------------

    def _collect_sides(self, target_class: str | None) -> list[PairSide]:
        """Unprotected, non-constructor accesses that seed pairs."""
        seen: set[tuple] = set()
        sides: list[PairSide] = []
        for summary in self._analysis:
            if target_class is not None and summary.class_name != target_class:
                continue
            for access in summary.unprotected_accesses():
                side = PairSide(summary, access)
                if side.static_id() in seen:
                    continue
                seen.add(side.static_id())
                sides.append(side)
        # Canonical enumeration order: the representative access chosen
        # for each deduplicated pair must not depend on which seed test
        # the analysis happened to stream first.
        sides.sort(key=lambda s: s.static_id())
        return sides

    def _index_by_field(
        self, target_class: str | None = None
    ) -> dict[tuple, list[PairSide]]:
        """All eligible accesses indexed by field identity (dedup'd).

        With a target class, partner accesses are restricted to
        invocations on that class too — the paper analyzes and pairs one
        class at a time (Table 4).
        """
        index: dict[tuple, list[PairSide]] = {}
        seen: set[tuple] = set()
        for summary in self._analysis:
            if target_class is not None and summary.class_name != target_class:
                continue
            for access in summary.accesses:
                if not _eligible(access):
                    continue
                side = PairSide(summary, access)
                key = side.static_id()
                if key in seen:
                    continue
                seen.add(key)
                index.setdefault(_field_identity(access), []).append(side)
        for partners in index.values():
            partners.sort(key=lambda s: s.static_id())
        return index


def generate_pairs(
    analysis: AnalysisResult,
    target_class: str | None = None,
    *,
    table=None,
    facts=None,
    static_filter: bool = True,
):
    """Stage the candidate pipeline: generate, then statically judge.

    Returns a :class:`repro.static.filter.CandidateSet` — a list of
    :class:`RacyPair` (so legacy callers keep working) carrying one
    :class:`PairVerdict` per pair when the static pre-filter ran.
    The filter runs when a class ``table`` (or precomputed ``facts``)
    is supplied and ``static_filter`` is true; otherwise the verdict
    list is empty and downstream stages treat every pair as ranked.
    """
    from repro.static.facts import analyze_program
    from repro.static.filter import CandidateSet, evaluate_pairs

    pairs = PairGenerator(analysis).generate(target_class)
    if not static_filter or (table is None and facts is None):
        return CandidateSet(pairs)
    if facts is None:
        facts = analyze_program(table)
    return evaluate_pairs(pairs, facts)
