"""Access paths rooted at the paper's synthesized ``I`` variables.

Section 3.2 of the paper rewrites each library method so the receiver and
every parameter are captured in fresh variables ``I_i`` at entry; the
``src`` operator then names any object the method touches as a field path
rooted at one of these, e.g. ``I1.x.o``.  An :class:`AccessPath` is our
representation of such a name:

* root ``RECEIVER`` (the paper's ``I_this``) — the invocation's receiver,
* root ``i >= 1`` — the i-th parameter,
* root ``RETURN`` (the paper's ``I_r``) — the value returned to the
  client (used by the *return* rule of Fig. 9).

Paths are immutable and hashable so they can key the context-derivation
tables.  The absence of a path (the paper's ⊥) is represented as None
throughout the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Root index of the receiver (the paper's ``I_this``).
RECEIVER = 0

#: Root index of the returned value (the paper's ``I_r``).
RETURN = -1


@dataclass(frozen=True)
class AccessPath:
    """A field path rooted at a synthesized ``I`` variable.

    Attributes:
        root: RECEIVER, RETURN, or a 1-based parameter index.
        fields: the field names walked from the root, in order.
    """

    root: int
    fields: tuple[str, ...] = ()

    def dot(self, field_name: str) -> "AccessPath":
        """The paper's ``⊕``: append one field to the path."""
        return AccessPath(self.root, self.fields + (field_name,))

    def owner(self) -> "AccessPath":
        """The path to the object owning the final field.

        Only valid for non-empty paths (``I1.x.o`` -> ``I1.x``).
        """
        if not self.fields:
            raise ValueError(f"{self} has no owner prefix")
        return AccessPath(self.root, self.fields[:-1])

    def prefixes(self) -> list["AccessPath"]:
        """All proper prefixes, longest first (for prefix fallback, §4)."""
        return [
            AccessPath(self.root, self.fields[:k])
            for k in range(len(self.fields) - 1, -1, -1)
        ]

    @property
    def depth(self) -> int:
        return len(self.fields)

    def __str__(self) -> str:
        if self.root == RECEIVER:
            name = "Ithis"
        elif self.root == RETURN:
            name = "Iret"
        else:
            name = f"I{self.root}"
        return ".".join([name, *self.fields])


def receiver_path(*fields: str) -> AccessPath:
    """Convenience constructor: a path rooted at the receiver."""
    return AccessPath(RECEIVER, tuple(fields))


def param_path(index: int, *fields: str) -> AccessPath:
    """Convenience constructor: a path rooted at parameter ``index``."""
    if index < 1:
        raise ValueError("parameter indices are 1-based")
    return AccessPath(index, tuple(fields))


def return_path(*fields: str) -> AccessPath:
    """Convenience constructor: a path rooted at the return value."""
    return AccessPath(RETURN, tuple(fields))
