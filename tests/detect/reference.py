"""Event-at-a-time reference implementations of the analysis passes.

The production passes (FastTrack, Eraser, Djit+, the adjacency and
coverage probes, GoodLock) consume packed traces through per-row
handlers (``handlers(packed)``, swept by ``repro.analysis.sweep``).  The
classes here are their original ``on_event`` listeners, kept unchanged
as the differential reference: each consumes rich :class:`Event`
objects, either live (attached to an ``Execution``) or replayed from a
recorded trace, and must report exactly what its production twin
reports on the same stream (tests/detect/test_packed_equivalence.py).

Class names and report fields match the production classes, so a
reference and a production pass are compared field by field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.deadlock.goodlock import LockOrderEdgeObs, PotentialDeadlock
from repro.detect.clock import VectorClock
from repro.detect.report import AccessInfo, RaceRecord, RaceSet
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


def replay(listener, events):
    """Feed ``events`` to ``listener.on_event`` in order; returns it."""
    for event in events:
        listener.on_event(event)
    return listener


# ----------------------------------------------------------------------
# FastTrack (Flanagan & Freund, PLDI 2009).


class _FastTrackVar:
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


class FastTrackDetector:
    """Epoch-based happens-before race detector."""

    name = "fasttrack"

    interests = (ReadEvent, WriteEvent, LockEvent, UnlockEvent,
                 ForkEvent, JoinEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._threads: dict[int, VectorClock] = {}
        self._locks: dict[int, VectorClock] = {}
        self._vars: dict[tuple[int, str, int | None], _FastTrackVar] = {}
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
            var = self._vars[event.address()] = _FastTrackVar()
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
            var = self._vars[event.address()] = _FastTrackVar()
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


# ----------------------------------------------------------------------
# Eraser (Savage et al., TOCS 1997).


class _State(enum.Enum):
    VIRGIN = "virgin"
    EXCLUSIVE = "exclusive"
    SHARED = "shared"
    SHARED_MODIFIED = "shared-modified"


_VIRGIN = _State.VIRGIN
_EXCLUSIVE = _State.EXCLUSIVE
_SHARED = _State.SHARED
_SHARED_MODIFIED = _State.SHARED_MODIFIED


class _EraserVar:
    __slots__ = ("state", "owner", "lockset", "last_by_thread")

    def __init__(self) -> None:
        self.state = _VIRGIN
        self.owner = -1
        self.lockset: frozenset[int] | None = None
        #: Most recent access event per thread, for reporting racy pairs.
        self.last_by_thread: dict[int, AccessEvent] = {}


class EraserDetector:
    """Lockset-based dynamic race detector."""

    name = "eraser"

    interests = (ReadEvent, WriteEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._vars: dict[tuple[int, str, int | None], _EraserVar] = {}

    def on_event(self, event: Event) -> None:
        cls = event.__class__
        if cls is not ReadEvent and cls is not WriteEvent:
            return
        var = self._vars.get(event.address())
        if var is None:
            var = self._vars[event.address()] = _EraserVar()
        self._transition(var, event, cls is WriteEvent)
        var.last_by_thread[event.thread_id] = event

    def _transition(self, var: _EraserVar, event: AccessEvent, is_write: bool) -> None:
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

    def _check(self, var: _EraserVar, event: AccessEvent, is_write: bool) -> None:
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


# ----------------------------------------------------------------------
# Djit+ (Pozniansky & Schuster, PPoPP 2003).


class _DjitVar:
    __slots__ = ("reads", "writes", "last_writes", "last_reads")

    def __init__(self) -> None:
        self.reads = VectorClock()
        self.writes = VectorClock()
        self.last_writes: dict[int, AccessEvent] = {}
        self.last_reads: dict[int, AccessEvent] = {}


class DjitDetector:
    """Vector-clock happens-before race detector (Djit+)."""

    name = "djit+"

    interests = (ReadEvent, WriteEvent, LockEvent, UnlockEvent,
                 ForkEvent, JoinEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._threads: dict[int, VectorClock] = {}
        self._locks: dict[int, VectorClock] = {}
        self._vars: dict[tuple[int, str, int | None], _DjitVar] = {}
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
            var = self._vars[event.address()] = _DjitVar()
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
            var = self._vars[event.address()] = _DjitVar()
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


# ----------------------------------------------------------------------
# Probes.


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


@dataclass
class InterleavingCoverageProbe:
    """Listener collecting observed inter-thread dependency units."""

    name = "coverage"

    interests = (AccessEvent,)

    units: set[tuple[str, str, int, int]] = field(default_factory=set)
    _last_by_address: dict[tuple, AccessEvent] = field(default_factory=dict)

    def on_event(self, event: Event) -> None:
        if not isinstance(event, AccessEvent):
            return
        address = event.address()
        previous = self._last_by_address.get(address)
        self._last_by_address[address] = event
        if previous is None or previous.thread_id == event.thread_id:
            return
        if not (isinstance(previous, WriteEvent) or isinstance(event, WriteEvent)):
            return
        self.units.add(
            (event.class_name, event.field_name, previous.node_id, event.node_id)
        )


# ----------------------------------------------------------------------
# GoodLock.


@dataclass
class GoodLockDetector:
    """Listener building the lock-order graph and reporting 2-cycles."""

    name = "goodlock"

    interests = (LockEvent, UnlockEvent)

    edges: list[LockOrderEdgeObs] = field(default_factory=list)
    _held: dict[int, list[int]] = field(default_factory=dict)
    _reported: set[tuple] = field(default_factory=set)
    potential: list[PotentialDeadlock] = field(default_factory=list)

    def on_event(self, event: Event) -> None:
        if isinstance(event, LockEvent):
            stack = self._held.setdefault(event.thread_id, [])
            if event.reentrancy == 1:
                for position, held in enumerate(stack):
                    self._add_edge(
                        LockOrderEdgeObs(
                            thread_id=event.thread_id,
                            held_obj=held,
                            acquired_obj=event.obj,
                            gates=frozenset(stack[:position] + stack[position + 1:]),
                            site=event.node_id,
                        )
                    )
                stack.append(event.obj)
        elif isinstance(event, UnlockEvent):
            if event.reentrancy == 0:
                stack = self._held.get(event.thread_id, [])
                if event.obj in stack:
                    stack.remove(event.obj)

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


#: Reference class per registered pass name.
REFERENCES = {
    cls.name: cls
    for cls in (
        FastTrackDetector,
        EraserDetector,
        DjitDetector,
        AdjacencyProbe,
        InterleavingCoverageProbe,
        GoodLockDetector,
    )
}
