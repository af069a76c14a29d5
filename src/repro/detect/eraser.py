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

The detector is a sweep pass (analysis/sweep.py) with one handler per
access opcode.  It keeps row indices and defers all AccessInfo
construction to report time; the owner-thread EXCLUSIVE case returns
after two comparisons.
"""

from __future__ import annotations

import enum
from functools import partial

from repro.detect.report import RaceSet
from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import ReadEvent, WriteEvent


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
        #: Most recent access row per thread, for reporting racy pairs.
        self.last_by_thread: dict[int, int] = {}


class EraserDetector:
    """Lockset-based dynamic race detector."""

    name = "eraser"

    #: Event kinds this detector consumes (see Listener.interests).
    interests = (ReadEvent, WriteEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._vars: dict[int, _VarState] = {}

    def handlers(self, packed) -> dict:
        """Row handlers running the state machine on access rows (see
        analysis/sweep.py)."""
        tids, adrs = packed.tid, packed.adr
        lcks, locktab = packed.lck, packed.locktab
        variables = self._vars
        check = self._check

        def transition(is_write: bool, i: int) -> None:
            tid = tids[i]
            var = variables.get(adrs[i])
            if var is None:
                var = variables[adrs[i]] = _VarState()
            state = var.state
            if state is _EXCLUSIVE:
                if tid != var.owner:
                    # Second thread: start refining the lockset.
                    var.lockset = locktab[lcks[i]]
                    var.state = _SHARED_MODIFIED if is_write else _SHARED
                    check(packed, var, i, is_write)
            elif state is _VIRGIN:
                var.state = _EXCLUSIVE
                var.owner = tid
            else:
                if var.lockset:
                    var.lockset = var.lockset & locktab[lcks[i]]
                if is_write and state is _SHARED:
                    var.state = _SHARED_MODIFIED
                check(packed, var, i, is_write)
            var.last_by_thread[tid] = i

        return {
            OP_READ: partial(transition, False),
            OP_WRITE: partial(transition, True),
        }

    def _check(self, packed, var: _VarState, row: int, is_write: bool) -> None:
        if var.state is not _SHARED_MODIFIED:
            return
        if var.lockset:
            return
        # Pair the empty-lockset access with the most recent conflicting
        # access made by any *other* thread.
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
        if previous is not None:
            self.races.add_rows(self.name, packed, previous, row)


__all__ = ["EraserDetector"]
