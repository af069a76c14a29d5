"""Race records, deduplication, and harmful/benign classification.

The paper (Table 5) counts *races* as distinct racing access pairs, then
classifies reproduced ones as harmful or benign by inspection; the 62
benign races in their C6 come from a ``reset`` method writing constants.
We automate that judgment: a race is classified *benign* when both sides
are writes of equal values from *constant-write sites* (field assignments
whose right-hand side is a literal — the reset pattern), or when both
writes demonstrably changed nothing (stored the value already present on
both sides).  Everything else — in particular same-value writes produced
from prior reads, i.e. lost updates — is *harmful*.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.lang import ast
from repro.lang.classtable import ClassTable
from repro.runtime.values import Value, show_value, values_equal
from repro.trace.events import WriteEvent

#: Constant write sites per class table (see :func:`constant_write_sites`).
_CONSTANT_SITES: weakref.WeakKeyDictionary[ClassTable, frozenset[int]] = (
    weakref.WeakKeyDictionary()
)


def collect_constant_write_sites(program: ast.Program) -> set[int]:
    """Node ids of field writes whose right-hand side is a literal.

    These are the "reset to constant" sites whose same-value write-write
    races the paper triages as benign.
    """
    sites: set[int] = set()
    for cls in program.classes:
        for method in cls.methods:
            _collect_constant_writes(method.body, sites)
    return sites


def _collect_constant_writes(node, sites: set[int]) -> None:
    """Add the constant-write sites at and below ``node`` to ``sites``.

    Module-level rather than a closure: a recursive closure is a
    reference cycle that only the cyclic collector frees.
    """
    if isinstance(node, ast.AssignField) and isinstance(
        node.value, (ast.IntLit, ast.BoolLit, ast.NullLit)
    ):
        sites.add(node.node_id)
    for value in vars(node).values():
        if isinstance(value, (ast.Stmt, ast.Expr)):
            _collect_constant_writes(value, sites)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (ast.Stmt, ast.Expr)):
                    _collect_constant_writes(item, sites)


def constant_write_sites(table: ClassTable) -> frozenset[int]:
    """:func:`collect_constant_write_sites` of ``table``'s program,
    walked once per table and remembered while the table lives."""
    sites = _CONSTANT_SITES.get(table)
    if sites is None:
        sites = _CONSTANT_SITES[table] = frozenset(
            collect_constant_write_sites(table.program)
        )
    return sites


@dataclass(frozen=True)
class AccessInfo:
    """One side of a reported race."""

    thread_id: int
    node_id: int
    label: int
    kind: str  # "R" | "W"
    value: Value = None
    old_value: Value = None

    @classmethod
    def from_event(cls, event) -> "AccessInfo":
        """Build the report-side view of a raw access event (the
        event-at-a-time reference detectors report from events)."""
        is_write = isinstance(event, WriteEvent)
        return cls(
            thread_id=event.thread_id,
            node_id=event.node_id,
            label=event.label,
            kind="W" if is_write else "R",
            value=event.value,
            old_value=event.old_value if is_write else None,
        )

    @classmethod
    def from_packed_row(cls, packed, row: int) -> "AccessInfo":
        """Build the report-side view of one packed access row.

        The columnar counterpart of :meth:`from_event`: the detectors'
        row handlers keep row indices in their per-variable state and
        only materialize AccessInfo when a race is reported.
        """
        from repro.trace.columnar import OP_WRITE

        is_write = packed.op[row] == OP_WRITE
        return cls(
            thread_id=packed.tid[row],
            node_id=packed.node[row],
            label=packed.label[row],
            kind="W" if is_write else "R",
            value=packed.value_at(row),
            old_value=packed.old_value_at(row) if is_write else None,
        )


@dataclass(frozen=True)
class RaceRecord:
    """A race between two accesses to the same memory address."""

    detector: str
    class_name: str
    field_name: str
    address: tuple[int, str, int | None]
    first: AccessInfo
    second: AccessInfo

    def static_key(self) -> tuple:
        """Identity used to count distinct races (field + site pair)."""
        sites = tuple(sorted((self.first.node_id, self.second.node_id)))
        return (self.class_name, self.field_name, sites)

    def is_benign(self, constant_sites: set[int] | None = None) -> bool:
        """Automated version of the paper's manual harmful/benign triage.

        Args:
            constant_sites: node ids of constant-RHS field writes (see
                :func:`collect_constant_write_sites`); when omitted, only
                the provably-no-op criterion applies.
        """
        first, second = self.first, self.second
        if first.kind != "W" or second.kind != "W":
            return False
        if not values_equal(first.value, second.value):
            return False
        if constant_sites is not None:
            if first.node_id in constant_sites and second.node_id in constant_sites:
                return True
        # Both writes stored the value already present: a true no-op.
        return values_equal(first.value, first.old_value) and values_equal(
            second.value, second.old_value
        )

    def describe(self, constant_sites: set[int] | None = None) -> str:
        verdict = "benign" if self.is_benign(constant_sites) else "harmful"
        return (
            f"[{self.detector}] race on {self.class_name}.{self.field_name} "
            f"({verdict}): t{self.first.thread_id} {self.first.kind}"
            f"={show_value(self.first.value)} @site{self.first.node_id} vs "
            f"t{self.second.thread_id} {self.second.kind}"
            f"={show_value(self.second.value)} @site{self.second.node_id}"
        )


@dataclass
class RaceSet:
    """Collected races with static deduplication."""

    races: list[RaceRecord] = field(default_factory=list)
    _seen: set[tuple] = field(default_factory=set)
    dynamic_count: int = 0

    def add(self, record: RaceRecord) -> bool:
        """Record a race; returns True when it is statically new."""
        self.dynamic_count += 1
        key = record.static_key()
        if key in self._seen:
            return False
        self._seen.add(key)
        self.races.append(record)
        return True

    def count_duplicate(
        self, class_name: str, field_name: str, site_a: int, site_b: int
    ) -> bool:
        """Hot-path dedup check, avoiding record construction.

        When a race with this static identity has already been recorded,
        count the dynamic occurrence and return True; the caller can then
        skip materializing AccessInfo/RaceRecord objects entirely.  On
        heavily racy traces nearly every access re-reports the same
        static race, so this is the common case for the detectors.
        """
        sites = (site_a, site_b) if site_a <= site_b else (site_b, site_a)
        if (class_name, field_name, sites) in self._seen:
            self.dynamic_count += 1
            return True
        return False

    def add_rows(self, detector: str, packed, first: int, second: int) -> None:
        """Record a race between access rows ``first`` and ``second`` of
        ``packed``, building the record only when it is statically new."""
        class_name = packed.strtab[packed.cls[second]]
        field_name = packed.strtab[packed.fld[second]]
        if self.count_duplicate(
            class_name, field_name, packed.node[first], packed.node[second]
        ):
            return
        self.add(
            RaceRecord(
                detector=detector,
                class_name=class_name,
                field_name=field_name,
                address=packed.address_at(second),
                first=AccessInfo.from_packed_row(packed, first),
                second=AccessInfo.from_packed_row(packed, second),
            )
        )

    def __len__(self) -> int:
        return len(self.races)

    def __iter__(self):
        return iter(self.races)

    def static_keys(self) -> set[tuple]:
        return set(self._seen)

    def harmful(self, constant_sites: set[int] | None = None) -> list[RaceRecord]:
        return [r for r in self.races if not r.is_benign(constant_sites)]

    def benign(self, constant_sites: set[int] | None = None) -> list[RaceRecord]:
        return [r for r in self.races if r.is_benign(constant_sites)]

    def merge(self, other: "RaceSet") -> None:
        for record in other.races:
            self.add(record)
