"""GoodLock-style potential-deadlock detection on concurrent runs.

Havelund's GoodLock algorithm (and its descendants, e.g. the paper's
citation [11]) builds a lock-order graph from a *single* execution and
reports cycles as potential deadlocks — even when the observed schedule
did not hang.  We implement the classic two-thread variant with gate
locks: edges ``u -> v`` (acquired ``v`` while holding ``u``) from two
different threads in opposite directions are a potential deadlock unless
both acquisitions happened under a common *gate* lock that serializes
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.columnar import OP_LOCK, OP_UNLOCK
from repro.trace.events import LockEvent, UnlockEvent


@dataclass(frozen=True)
class LockOrderEdgeObs:
    """One observed nested acquisition in a concurrent execution."""

    thread_id: int
    held_obj: int
    acquired_obj: int
    gates: frozenset[int]
    """Other locks held at acquisition time (excluding ``held_obj``)."""
    site: int


@dataclass(frozen=True)
class PotentialDeadlock:
    """An opposite-order cycle between two threads."""

    first: LockOrderEdgeObs
    second: LockOrderEdgeObs

    def objects(self) -> tuple[int, int]:
        pair = sorted((self.first.held_obj, self.first.acquired_obj))
        return (pair[0], pair[1])

    def static_key(self) -> tuple:
        sites = tuple(sorted((self.first.site, self.second.site)))
        return ("deadlock", sites)

    def describe(self) -> str:
        return (
            f"potential deadlock on objects #{self.first.held_obj}/"
            f"#{self.first.acquired_obj}: t{self.first.thread_id} orders "
            f"{self.first.held_obj}->{self.first.acquired_obj}, "
            f"t{self.second.thread_id} orders "
            f"{self.second.held_obj}->{self.second.acquired_obj}"
        )


@dataclass
class GoodLockDetector:
    """Sweep pass building the lock-order graph and reporting 2-cycles."""

    name = "goodlock"

    interests = (LockEvent, UnlockEvent)

    edges: list[LockOrderEdgeObs] = field(default_factory=list)
    _held: dict[int, list[int]] = field(default_factory=dict)
    _reported: set[tuple] = field(default_factory=set)
    potential: list[PotentialDeadlock] = field(default_factory=list)

    def handlers(self, packed) -> dict:
        """Row handlers for lock rows (``x`` = object, ``y`` =
        reentrancy) and unlock rows (see analysis/sweep.py)."""
        tids, xs, ys, nodes = packed.tid, packed.x, packed.y, packed.node
        held = self._held
        add_edge = self._add_edge

        def on_lock(i: int) -> None:
            stack = held.setdefault(tids[i], [])
            if ys[i] == 1:
                obj = xs[i]
                for position, held_obj in enumerate(stack):
                    add_edge(
                        LockOrderEdgeObs(
                            thread_id=tids[i],
                            held_obj=held_obj,
                            acquired_obj=obj,
                            gates=frozenset(
                                stack[:position] + stack[position + 1:]
                            ),
                            site=nodes[i],
                        )
                    )
                stack.append(obj)

        def on_unlock(i: int) -> None:
            if ys[i] == 0:
                stack = held.get(tids[i], [])
                if xs[i] in stack:
                    stack.remove(xs[i])

        return {OP_LOCK: on_lock, OP_UNLOCK: on_unlock}

    def _add_edge(self, edge: LockOrderEdgeObs) -> None:
        for other in self.edges:
            if other.thread_id == edge.thread_id:
                continue
            if (
                other.held_obj == edge.acquired_obj
                and other.acquired_obj == edge.held_obj
                and not (other.gates & edge.gates)
            ):
                candidate = PotentialDeadlock(first=other, second=edge)
                key = candidate.static_key()
                if key not in self._reported:
                    self._reported.add(key)
                    self.potential.append(candidate)
        self.edges.append(edge)

    def __len__(self) -> int:
        return len(self.potential)
