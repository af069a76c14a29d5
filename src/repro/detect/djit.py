"""Djit+ (Pozniansky & Schuster, PPoPP 2003): full-vector-clock HB
race detection.

The unoptimized ancestor of FastTrack: every variable keeps a complete
read vector clock and write vector clock.  Kept as an independent
detector both for the ablation benchmark (FastTrack must report exactly
the same races, faster bookkeeping) and as an oracle in the detector
equivalence property tests.

The same hot-path treatment as FastTrack applies (handler table, raw
events until report time, copy-on-write release snapshots) — but the
per-variable state intentionally stays full vector clocks.
"""

from __future__ import annotations

from repro.analysis.sweep import KernelSpec
from repro.detect.clock import VectorClock
from repro.detect.report import AccessInfo, RaceRecord, RaceSet
from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import (
    AccessEvent,
    Event,
    ForkEvent,
    JoinEvent,
    LockEvent,
    ReadEvent,
    UnlockEvent,
    WriteEvent,
)


class _VarState:
    __slots__ = ("reads", "writes", "last_writes", "last_reads")

    def __init__(self) -> None:
        self.reads = VectorClock()
        self.writes = VectorClock()
        self.last_writes: dict[int, AccessEvent] = {}
        self.last_reads: dict[int, AccessEvent] = {}


# Sweep-kernel fragments (see analysis/sweep.py): the full-vector-clock
# access rules over raw columns, with the same direct
# ``VectorClock._times`` reads as the object path's ``time_of`` checks.
_READ_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
for P_writer_tid, P_write_time in P_var.writes._times.items():
    if P_writer_tid != tid and P_write_time > times_get(P_writer_tid, 0):
        P_previous = P_var.last_writes.get(P_writer_tid)
        if P_previous is not None:
            P_report(packed, P_previous, i)
P_var.reads.set_time(tid, my_time)
P_var.last_reads[tid] = i
"""

_WRITE_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
for P_writer_tid, P_write_time in P_var.writes._times.items():
    if P_writer_tid != tid and P_write_time > times_get(P_writer_tid, 0):
        P_previous = P_var.last_writes.get(P_writer_tid)
        if P_previous is not None:
            P_report(packed, P_previous, i)
for P_reader_tid, P_read_time in P_var.reads._times.items():
    if P_reader_tid != tid and P_read_time > times_get(P_reader_tid, 0):
        P_previous = P_var.last_reads.get(P_reader_tid)
        if P_previous is not None:
            P_report(packed, P_previous, i)
P_var.writes.set_time(tid, my_time)
P_var.last_writes[tid] = i
"""


class DjitDetector:
    """Vector-clock happens-before race detector (Djit+)."""

    name = "djit+"

    #: Event kinds this detector consumes (see Listener.interests).
    interests = (ReadEvent, WriteEvent, LockEvent, UnlockEvent,
                 ForkEvent, JoinEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._threads: dict[int, VectorClock] = {}
        self._locks: dict[int, VectorClock] = {}
        self._vars: dict[tuple[int, str, int | None], _VarState] = {}
        self._handlers = {
            ReadEvent: self._on_read,
            WriteEvent: self._on_write,
            LockEvent: self._on_lock,
            UnlockEvent: self._on_unlock,
            ForkEvent: self._on_fork,
            JoinEvent: self._on_join,
        }

    def _clock(self, tid: int) -> VectorClock:
        clock = self._threads.get(tid)
        if clock is None:
            clock = VectorClock({tid: 1})
            self._threads[tid] = clock
        return clock

    def on_event(self, event: Event) -> None:
        handler = self._handlers.get(event.__class__)
        if handler is not None:
            handler(event)

    def _on_lock(self, event: LockEvent) -> None:
        lock_clock = self._locks.get(event.obj)
        if lock_clock is not None:
            self._clock(event.thread_id).join(lock_clock)

    def _on_unlock(self, event: UnlockEvent) -> None:
        clock = self._clock(event.thread_id)
        self._locks[event.obj] = clock.snapshot()
        clock.tick(event.thread_id)

    def _on_fork(self, event: ForkEvent) -> None:
        parent = self._clock(event.thread_id)
        self._clock(event.child_thread).join(parent)
        parent.tick(event.thread_id)

    def _on_join(self, event: JoinEvent) -> None:
        self._clock(event.thread_id).join(self._clock(event.child_thread))
        self._clock(event.child_thread).tick(event.child_thread)

    # ------------------------------------------------------------------

    def _on_read(self, event: ReadEvent) -> None:
        tid = event.thread_id
        clock = self._clock(tid)
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _VarState()
        time_of = clock.time_of
        # A read races with every write not ordered before us.
        for writer_tid, write_time in var.writes.items():
            if writer_tid != tid and write_time > time_of(writer_tid):
                previous = var.last_writes.get(writer_tid)
                if previous is not None:
                    self._report(event, previous, event)
        var.reads.set_time(tid, time_of(tid))
        var.last_reads[tid] = event

    def _on_write(self, event: WriteEvent) -> None:
        tid = event.thread_id
        clock = self._clock(tid)
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _VarState()
        time_of = clock.time_of
        for writer_tid, write_time in var.writes.items():
            if writer_tid != tid and write_time > time_of(writer_tid):
                previous = var.last_writes.get(writer_tid)
                if previous is not None:
                    self._report(event, previous, event)
        for reader_tid, read_time in var.reads.items():
            if reader_tid != tid and read_time > time_of(reader_tid):
                previous = var.last_reads.get(reader_tid)
                if previous is not None:
                    self._report(event, previous, event)
        var.writes.set_time(tid, time_of(tid))
        var.last_writes[tid] = event

    # ------------------------------------------------------------------
    # Sweep-engine pass protocol (see analysis/sweep.py and DESIGN.md §9).

    def kernel_spec(self, packed) -> KernelSpec:
        return KernelSpec(
            needs_clock=True,
            fragments={OP_READ: _READ_FRAGMENT, OP_WRITE: _WRITE_FRAGMENT},
            env={"Var": _VarState, "report": self._report_rows},
        )

    def _report_rows(self, packed, prev_row: int, cur_row: int) -> None:
        """Report a race between two packed access rows (cold path)."""
        class_name = packed.strtab[packed.cls[cur_row]]
        field_name = packed.strtab[packed.fld[cur_row]]
        if self.races.count_duplicate(
            class_name, field_name, packed.node[prev_row], packed.node[cur_row]
        ):
            return
        self.races.add(
            RaceRecord(
                detector=self.name,
                class_name=class_name,
                field_name=field_name,
                address=packed.address_at(cur_row),
                first=AccessInfo.from_packed_row(packed, prev_row),
                second=AccessInfo.from_packed_row(packed, cur_row),
            )
        )

    def _report(
        self, event: AccessEvent, previous: AccessEvent, current: AccessEvent
    ) -> None:
        if self.races.count_duplicate(
            event.class_name, event.field_name, previous.node_id, current.node_id
        ):
            return
        self.races.add(
            RaceRecord(
                detector=self.name,
                class_name=event.class_name,
                field_name=event.field_name,
                address=event.address(),
                first=AccessInfo.from_event(previous),
                second=AccessInfo.from_event(current),
            )
        )


__all__ = ["DjitDetector"]
