"""The Eraser lockset algorithm (Savage et al., TOCS 1997).

Narada's pair criterion — "the intersection of the held lock objects for
any two shared memory accesses is empty" — *is* Eraser's invariant, which
the paper points out explicitly (§1).  We implement the full detector,
including the state machine that suppresses initialization and
read-shared false positives:

    VIRGIN -> EXCLUSIVE(t) -> SHARED (reads only) -> SHARED_MODIFIED

Lockset refinement ``C(v) := C(v) ∩ locks_held`` starts when the second
thread touches the variable; an empty lockset in SHARED_MODIFIED reports
a race.  Because our access events carry the held-lock snapshot, no lock
bookkeeping is needed here.

On the hot path the detector keeps raw access events and defers all
AccessInfo construction to report time; the owner-thread EXCLUSIVE case
returns after two comparisons.
"""

from __future__ import annotations

import enum

from repro.analysis.sweep import KernelSpec
from repro.detect.report import AccessInfo, RaceRecord, RaceSet
from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import AccessEvent, Event, ReadEvent, WriteEvent


class _State(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


_VIRGIN = _State.VIRGIN
_EXCLUSIVE = _State.EXCLUSIVE
_SHARED = _State.SHARED
_SHARED_MODIFIED = _State.SHARED_MODIFIED


class _VarState:
    __slots__ = ("state", "owner", "lockset", "last_by_thread")

    def __init__(self) -> None:
        self.state = _VIRGIN
        self.owner = -1
        self.lockset: frozenset[int] | None = None
        #: Most recent access event per thread, for reporting racy pairs.
        self.last_by_thread: dict[int, AccessEvent] = {}


# Sweep-kernel fragments (see analysis/sweep.py): the :meth:`_transition`
# state machine inlined over raw columns; per-variable state lives in
# the shared per-address slot list and remembers row indices.
_READ_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
P_state = P_var.state
if P_state is P_EXCLUSIVE:
    if tid != P_var.owner:
        P_var.lockset = locktab[lcks[i]]
        P_var.state = P_SHARED
        P_check(packed, P_var, i, False)
elif P_state is P_VIRGIN:
    P_var.state = P_EXCLUSIVE
    P_var.owner = tid
else:
    P_lockset = P_var.lockset
    if P_lockset:
        P_var.lockset = P_lockset & locktab[lcks[i]]
    P_check(packed, P_var, i, False)
P_var.last_by_thread[tid] = i
"""

_WRITE_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
P_state = P_var.state
if P_state is P_EXCLUSIVE:
    if tid != P_var.owner:
        P_var.lockset = locktab[lcks[i]]
        P_var.state = P_SHARED_MODIFIED
        P_check(packed, P_var, i, True)
elif P_state is P_VIRGIN:
    P_var.state = P_EXCLUSIVE
    P_var.owner = tid
else:
    P_lockset = P_var.lockset
    if P_lockset:
        P_var.lockset = P_lockset & locktab[lcks[i]]
    if P_state is P_SHARED:
        P_var.state = P_SHARED_MODIFIED
    P_check(packed, P_var, i, True)
P_var.last_by_thread[tid] = i
"""


class EraserDetector:
    """Lockset-based dynamic race detector."""

    name = "eraser"

    #: Event kinds this detector consumes (see Listener.interests).
    interests = (ReadEvent, WriteEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._vars: dict[tuple[int, str, int | None], _VarState] = {}

    def on_event(self, event: Event) -> None:
        cls = event.__class__
        if cls is not ReadEvent and cls is not WriteEvent:
            return
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _VarState()
        self._transition(var, event, cls is WriteEvent)
        var.last_by_thread[event.thread_id] = event

    # ------------------------------------------------------------------
    # Sweep-engine pass protocol (see analysis/sweep.py and DESIGN.md §9).

    def kernel_spec(self, packed) -> KernelSpec:
        return KernelSpec(
            fragments={OP_READ: _READ_FRAGMENT, OP_WRITE: _WRITE_FRAGMENT},
            env={
                "Var": _VarState,
                "check": self._check_row,
                "VIRGIN": _VIRGIN,
                "EXCLUSIVE": _EXCLUSIVE,
                "SHARED": _SHARED,
                "SHARED_MODIFIED": _SHARED_MODIFIED,
            },
        )

    def _check_row(self, packed, var: _VarState, row: int, is_write: bool) -> None:
        """Row-index twin of :meth:`_check` (cold reporting path)."""
        if var.state is not _SHARED_MODIFIED:
            return
        if var.lockset:
            return
        ops = packed.op
        labels = packed.label
        tid = packed.tid[row]
        previous: int | None = None
        for other_tid, access in var.last_by_thread.items():
            if other_tid == tid:
                continue
            if not is_write and ops[access] == OP_READ:
                continue
            if previous is None or labels[access] > labels[previous]:
                previous = access
        if previous is None:
            return
        class_name = packed.strtab[packed.cls[row]]
        field_name = packed.strtab[packed.fld[row]]
        if self.races.count_duplicate(
            class_name, field_name, packed.node[previous], packed.node[row]
        ):
            return
        self.races.add(
            RaceRecord(
                detector=self.name,
                class_name=class_name,
                field_name=field_name,
                address=packed.address_at(row),
                first=AccessInfo.from_packed_row(packed, previous),
                second=AccessInfo.from_packed_row(packed, row),
            )
        )

    # ------------------------------------------------------------------

    def _transition(self, var: _VarState, event: AccessEvent, is_write: bool) -> None:
        tid = event.thread_id
        state = var.state

        if state is _EXCLUSIVE:
            if tid == var.owner:
                return
            # Second thread: start refining the lockset.
            var.lockset = event.locks_held
            var.state = _SHARED_MODIFIED if is_write else _SHARED
            self._check(var, event, is_write)
            return
        if state is _VIRGIN:
            var.state = _EXCLUSIVE
            var.owner = tid
            return

        assert var.lockset is not None
        var.lockset = var.lockset & event.locks_held
        if state is _SHARED and is_write:
            var.state = _SHARED_MODIFIED
        self._check(var, event, is_write)

    def _check(self, var: _VarState, event: AccessEvent, is_write: bool) -> None:
        if var.state is not _SHARED_MODIFIED:
            return
        if var.lockset:
            return
        # Pair the empty-lockset access with the most recent conflicting
        # access made by any *other* thread.
        tid = event.thread_id
        previous: AccessEvent | None = None
        for other_tid, access in var.last_by_thread.items():
            if other_tid == tid:
                continue
            if not is_write and access.__class__ is ReadEvent:
                continue
            if previous is None or access.label > previous.label:
                previous = access
        if previous is None:
            return
        if self.races.count_duplicate(
            event.class_name, event.field_name, previous.node_id, event.node_id
        ):
            return
        self.races.add(
            RaceRecord(
                detector=self.name,
                class_name=event.class_name,
                field_name=event.field_name,
                address=event.address(),
                first=AccessInfo.from_event(previous),
                second=AccessInfo.from_event(event),
            )
        )


__all__ = ["EraserDetector"]
