"""FastTrack (Flanagan & Freund, PLDI 2009): precise HB race detection.

Implements the epoch-optimized happens-before algorithm:

* per-thread vector clocks ``C_t``, per-lock clocks ``L_m``;
* per-variable write *epoch* ``W_x`` and adaptive read state — a single
  epoch ``R_x`` in the common same-epoch/exclusive case, inflated to a
  full read vector clock only after concurrent reads (the paper's
  "read-shared" state);
* synchronization: lock release copies ``C_t`` into ``L_m``; acquire
  joins it back; fork/join transfer clocks between parent and child.

Races are reported with both access sites; the auxiliary per-variable
"last writer / last readers" bookkeeping exists only to make reports
informative (the algorithm itself needs just the epochs).

Hot-path notes (see DESIGN.md, "Performance architecture"): epochs are
stored as two plain ints (tid, time) rather than Epoch objects, so the
same-epoch case — by far the most frequent in real traces — is a pair
of int comparisons with zero allocation.  Raw access events stand in
for AccessInfo until a race is actually reported, and lock-release
clocks are O(1) copy-on-write snapshots.  The reported race set is
bit-for-bit the same as the unoptimized detector's: every check and
every last-access pointer update is preserved, only their cost changed.
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
    """Per-address detector state; epochs unpacked into plain ints."""

    __slots__ = ("write_tid", "write_time", "read_tid", "read_time",
                 "read_clock", "last_write", "last_reads")

    def __init__(self) -> None:
        self.write_tid = -1
        self.write_time = 0
        self.read_tid = -1
        self.read_time = 0
        self.read_clock: VectorClock | None = None  # inflated read-shared state
        self.last_write: AccessEvent | None = None
        self.last_reads: dict[int, AccessEvent] = {}


# Sweep-kernel fragments (see analysis/sweep.py for the placeholder
# contract).  These are the ``on_event`` access rules over rows: the
# epoch checks read ``VectorClock._times`` directly via the sweep's
# shared ``times_get``, and per-variable state lives in the shared
# per-address slot list.
_READ_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
if P_var.write_time > times_get(P_var.write_tid, 0) and P_var.last_write is not None:
    P_report(packed, P_var.last_write, i)
if P_var.read_clock is not None:
    P_var.read_clock.set_time(tid, my_time)
elif P_var.read_tid == tid:
    P_var.read_time = my_time
elif P_var.read_time <= times_get(P_var.read_tid, 0):
    P_var.read_tid = tid
    P_var.read_time = my_time
else:
    P_var.read_clock = VectorClock({P_var.read_tid: P_var.read_time, tid: my_time})
P_var.last_reads[tid] = i
"""

_WRITE_FRAGMENT = """\
P_var = slot[SLOT]
if P_var is None:
    P_var = slot[SLOT] = P_Var()
if P_var.write_time > times_get(P_var.write_tid, 0) and P_var.last_write is not None:
    P_report(packed, P_var.last_write, i)
if P_var.read_clock is not None:
    if not P_var.read_clock.leq(clock):
        for P_reader_tid, P_read_row in P_var.last_reads.items():
            if P_reader_tid != tid and P_var.read_clock.time_of(P_reader_tid) > times_get(P_reader_tid, 0):
                P_report(packed, P_read_row, i)
    P_var.read_clock = None
    P_var.last_reads = {tid: P_var.last_reads[tid]} if tid in P_var.last_reads else {}
elif P_var.read_time > times_get(P_var.read_tid, 0):
    P_previous = P_var.last_reads.get(P_var.read_tid)
    if P_previous is not None and tids[P_previous] != tid:
        P_report(packed, P_previous, i)
P_var.write_tid = tid
P_var.write_time = my_time
P_var.last_write = i
"""


class FastTrackDetector:
    """Epoch-based happens-before race detector."""

    name = "fasttrack"

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

    # ------------------------------------------------------------------
    # Clock plumbing.

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
        child = self._clock(event.child_thread)
        child.join(parent)
        parent.tick(event.thread_id)

    def _on_join(self, event: JoinEvent) -> None:
        child = self._clock(event.child_thread)
        self._clock(event.thread_id).join(child)
        child.tick(event.child_thread)

    # ------------------------------------------------------------------
    # Access rules.

    def _on_read(self, event: ReadEvent) -> None:
        tid = event.thread_id
        clock = self._threads.get(tid)
        if clock is None:
            clock = self._clock(tid)
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _VarState()
        time_of = clock.time_of

        # Write-read check first: W_x ⪯ C_t, as two int lookups.
        if var.write_time > time_of(var.write_tid) and var.last_write is not None:
            self._report(event, var.last_write, event)

        my_time = time_of(tid)
        if var.read_clock is not None:
            var.read_clock.set_time(tid, my_time)
        elif var.read_tid == tid:
            # Same-epoch / same-thread fast path: R_x stays an epoch.
            var.read_time = my_time
        elif var.read_time <= time_of(var.read_tid):
            var.read_tid = tid
            var.read_time = my_time
        else:
            # Concurrent reads: inflate to a read vector clock.
            var.read_clock = VectorClock(
                {var.read_tid: var.read_time, tid: my_time}
            )
        var.last_reads[tid] = event

    def _on_write(self, event: WriteEvent) -> None:
        tid = event.thread_id
        clock = self._threads.get(tid)
        if clock is None:
            clock = self._clock(tid)
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _VarState()
        time_of = clock.time_of

        if var.write_time > time_of(var.write_tid) and var.last_write is not None:
            self._report(event, var.last_write, event)

        if var.read_clock is not None:
            if not var.read_clock.leq(clock):
                for reader_tid, read_event in var.last_reads.items():
                    if reader_tid == tid:
                        continue
                    if var.read_clock.time_of(reader_tid) > time_of(reader_tid):
                        self._report(event, read_event, event)
            var.read_clock = None
            var.last_reads = (
                {tid: var.last_reads[tid]} if tid in var.last_reads else {}
            )
        elif var.read_time > time_of(var.read_tid):
            previous = var.last_reads.get(var.read_tid)
            if previous is not None and previous.thread_id != tid:
                self._report(event, previous, event)

        var.write_tid = tid
        var.write_time = time_of(tid)
        var.last_write = event

    # ------------------------------------------------------------------
    # Sweep-engine pass protocol (see analysis/sweep.py and DESIGN.md §9).

    def kernel_spec(self, packed) -> KernelSpec:
        return KernelSpec(
            needs_clock=True,
            fragments={OP_READ: _READ_FRAGMENT, OP_WRITE: _WRITE_FRAGMENT},
            env={"Var": _VarState, "report": self._report_rows},
        )

    # ------------------------------------------------------------------

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


__all__ = ["FastTrackDetector"]
