"""Execution probes used by the fuzzing layer.

:class:`AdjacencyProbe` observes a concurrent execution and records
every pair of *temporally adjacent conflicting accesses*: two successive
accesses **to the same address** (other addresses may be touched in
between) from different threads, at least one a write, with no common
lock held.  When such a pair occurs the race has *manifested* in the
concrete execution — this is the confirmation criterion our RaceFuzzer
analogue uses for the paper's "reproduced" column, and it matches
RaceFuzzer's semantics: one thread is paused at an access while the
other runs up to the conflicting access, regardless of what unrelated
memory it touches on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.sweep import KernelSpec
from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import AccessEvent, Event, WriteEvent

# Sweep-kernel fragments (see analysis/sweep.py): adjacency tracked per
# interned address id in the shared slot list, remembering row indices.
# The read rule additionally requires the previous access to be a write.
_READ_FRAGMENT = """\
P_previous = slot[SLOT]
slot[SLOT] = i
if P_previous is not None and tids[P_previous] != tid and ops[P_previous] == OP_WRITE:
    if not (locktab[lcks[P_previous]] & locktab[lcks[i]]):
        P_a = nodes[P_previous]
        P_b = nodes[i]
        P_add((strtab[clss[i]], strtab[flds[i]], (P_a, P_b) if P_a <= P_b else (P_b, P_a)))
"""

_WRITE_FRAGMENT = """\
P_previous = slot[SLOT]
slot[SLOT] = i
if P_previous is not None and tids[P_previous] != tid:
    if not (locktab[lcks[P_previous]] & locktab[lcks[i]]):
        P_a = nodes[P_previous]
        P_b = nodes[i]
        P_add((strtab[clss[i]], strtab[flds[i]], (P_a, P_b) if P_a <= P_b else (P_b, P_a)))
"""


@dataclass
class AdjacencyProbe:
    """Records site pairs of adjacent conflicting same-address accesses."""

    name = "adjacency"

    interests = (AccessEvent,)

    #: (class_name, field_name, sorted site pair) for each manifestation.
    confirmed: set[tuple] = field(default_factory=set)
    _last_by_address: dict[tuple, AccessEvent] = field(default_factory=dict)

    def on_event(self, event: Event) -> None:
        if not isinstance(event, AccessEvent):
            return
        address = event.address()
        previous = self._last_by_address.get(address)
        self._last_by_address[address] = event
        if previous is None:
            return
        if previous.thread_id == event.thread_id:
            return
        if not (isinstance(previous, WriteEvent) or isinstance(event, WriteEvent)):
            return
        if previous.locks_held & event.locks_held:
            return
        sites = tuple(sorted((previous.node_id, event.node_id)))
        self.confirmed.add((event.class_name, event.field_name, sites))

    def kernel_spec(self, packed) -> KernelSpec:
        return KernelSpec(
            fragments={OP_READ: _READ_FRAGMENT, OP_WRITE: _WRITE_FRAGMENT},
            env={"add": self.confirmed.add},
        )
