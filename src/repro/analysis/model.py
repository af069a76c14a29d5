"""Data model produced by the sequential-trace analysis.

One :class:`MethodSummary` is produced per *client invocation* in the
seed trace (the paper analyzes each client invocation against a fresh
heap abstraction, Fig. 7 *invoke* rule).  A summary carries:

* ``accesses`` — every field access the invocation performed, with its
  resolved access path, and the paper's *writeable*/*unprotected* bits,
* ``writeables`` — the entries of ``D`` usable for context derivation:
  "calling this method assigns the object named by ``rhs`` into the
  location named by ``lhs``",
* ``A``/``D`` — the raw per-label projections, kept for fidelity with
  the paper's worked examples (§3.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.paths import AccessPath


@dataclass(frozen=True)
class AccessRecord:
    """One dynamic field access observed during a client invocation.

    Attributes:
        label: dynamic trace label.
        node_id: static site.
        kind: "R" or "W".
        class_name: runtime class of the accessed object.
        field_name: accessed field ("elem" for array slots).
        access_path: ``src(owner) ⊕ field`` — the client-relative name of
            the access, or None when the owner is not reachable from the
            invocation's receiver/parameters (the paper's ⊥).
        owner_classes: runtime classes of the objects along the owner
            chain of ``access_path`` (root object first, the accessed
            owner last); None iff ``access_path`` is None.  The context
            deriver uses these to type intermediate setter goals.
        unprotected: owner controllable and its monitor not held (§3.1).
        writeable: write with controllable owner and controllable value.
        in_constructor: access happened under a constructor frame
            (discarded when building racing pairs, §4).
        value_is_ref: the accessed value is an object reference.
    """

    label: int
    node_id: int
    kind: str
    class_name: str
    field_name: str
    access_path: AccessPath | None
    owner_classes: tuple[str, ...] | None
    unprotected: bool
    writeable: bool
    in_constructor: bool
    value_is_ref: bool

    @property
    def is_write(self) -> bool:
        return self.kind == "W"

    def field_id(self) -> tuple[str, str]:
        """Static identity of the accessed field."""
        return (self.class_name, self.field_name)

    def describe(self) -> str:
        lock = "unprot" if self.unprotected else "prot"
        path = str(self.access_path) if self.access_path else "⊥"
        return (
            f"{self.kind} {self.class_name}.{self.field_name} ({path}, {lock})"
            f"{' [ctor]' if self.in_constructor else ''}"
        )


@dataclass(frozen=True)
class WriteableEntry:
    """A ``D`` entry usable for context setting: ``lhs ↢ rhs``.

    Invoking the summarized method assigns the object the client passes
    at ``rhs`` into the location ``lhs``.  ``via`` records whether the
    entry came from a *write* inside the method or from the *return*
    rule (the client obtains an object whose ``lhs`` field is the
    argument named by ``rhs``).
    """

    lhs: AccessPath
    rhs: AccessPath
    label: int
    via: str  # "write" | "return"


@dataclass
class MethodSummary:
    """Everything learned from one client invocation in a seed trace."""

    test_name: str
    ordinal: int
    """Index of this invocation among the trace's client invocations."""
    class_name: str
    method: str
    is_constructor: bool
    receiver_ref: int
    arg_refs: tuple[int | None, ...]
    """Heap refs of reference-typed arguments (None for primitives)."""
    arg_classes: tuple[str | None, ...] = ()
    """Runtime classes of reference arguments (None for primitives)."""
    return_class: str | None = None
    """Runtime class of the returned object, when a reference."""
    invoke_label: int = -1
    accesses: list[AccessRecord] = field(default_factory=list)
    writeables: list[WriteableEntry] = field(default_factory=list)
    access_projection: dict[int, tuple[bool, bool]] = field(default_factory=dict)
    """The paper's ``A``: label -> (writeable, unprotected)."""
    summaries: dict[int, set[tuple[AccessPath | None, AccessPath | None]]] = field(
        default_factory=dict
    )
    """The paper's ``D``: label -> set of (lhs, rhs) path pairs."""
    faulted: bool = False

    def method_id(self) -> tuple[str, str]:
        return (self.class_name, self.method)

    def unprotected_accesses(self) -> list[AccessRecord]:
        """Unprotected, non-constructor accesses (pair-generation input)."""
        return [
            a
            for a in self.accesses
            if a.unprotected and not a.in_constructor
        ]

    def describe(self) -> str:
        head = f"{self.class_name}.{self.method} (test {self.test_name}, #{self.ordinal})"
        lines = [head]
        for access in self.accesses:
            lines.append(f"  {access.describe()}")
        for entry in self.writeables:
            lines.append(f"  set {entry.lhs} <- {entry.rhs} [{entry.via}]")
        return "\n".join(lines)


@dataclass
class AnalysisResult:
    """All method summaries extracted from one or more seed traces."""

    summaries: list[MethodSummary] = field(default_factory=list)

    def __iter__(self):
        return iter(self.summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def for_method(self, class_name: str, method: str) -> list[MethodSummary]:
        return [
            s
            for s in self.summaries
            if s.class_name == class_name and s.method == method
        ]

    def for_class(self, class_name: str) -> list[MethodSummary]:
        return [s for s in self.summaries if s.class_name == class_name]

    def methods_seen(self) -> set[tuple[str, str]]:
        return {s.method_id() for s in self.summaries}

    def merge(self, other: "AnalysisResult") -> "AnalysisResult":
        return AnalysisResult(self.summaries + other.summaries)
