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

The detector is a sweep pass (analysis/sweep.py): it consumes a packed
trace through per-row handlers.  Epochs are stored as two plain ints
(tid, time) rather than Epoch objects, so the same-epoch case — by far
the most frequent in real traces — is a pair of int comparisons with
zero allocation.  Row indices stand in for AccessInfo until a race is
actually reported, and lock-release clocks are O(1) copy-on-write
snapshots.  The reported race set is bit-for-bit the same as the
event-at-a-time reference detector's (tests/detect/reference.py).
"""

from __future__ import annotations

from functools import partial

from repro.detect.clock import HappensBefore, VectorClock
from repro.detect.report import RaceSet
from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import (
    ForkEvent,
    JoinEvent,
    LockEvent,
    ReadEvent,
    UnlockEvent,
    WriteEvent,
)


class _VarState:
    """Per-address detector state; epochs unpacked into plain ints and
    accesses kept as row indices."""

    __slots__ = ("write_tid", "write_time", "read_tid", "read_time",
                 "read_clock", "last_write", "last_reads")

    def __init__(self) -> None:
        self.write_tid = -1
        self.write_time = 0
        self.read_tid = -1
        self.read_time = 0
        self.read_clock: VectorClock | None = None  # inflated read-shared state
        self.last_write: int | None = None
        self.last_reads: dict[int, int] = {}


class FastTrackDetector:
    """Epoch-based happens-before race detector."""

    name = "fasttrack"

    #: Event kinds this detector consumes (see Listener.interests).
    interests = (ReadEvent, WriteEvent, LockEvent, UnlockEvent,
                 ForkEvent, JoinEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._hb = HappensBefore()
        self._vars: dict[int, _VarState] = {}

    def handlers(self, packed) -> dict:
        """Row handlers: the epoch access rules plus the shared
        happens-before clock updates (see analysis/sweep.py)."""
        tids, adrs = packed.tid, packed.adr
        threads_get, clock_of = self._hb.threads.get, self._hb.clock
        variables = self._vars
        report = partial(self.races.add_rows, self.name, packed)

        def on_read(i: int) -> None:
            tid = tids[i]
            clock = threads_get(tid) or clock_of(tid)
            times_get = clock._times.get
            var = variables.get(adrs[i])
            if var is None:
                var = variables[adrs[i]] = _VarState()
            # Write-read check first: W_x ⪯ C_t, as two int lookups.
            if (
                var.write_time > times_get(var.write_tid, 0)
                and var.last_write is not None
            ):
                report(var.last_write, i)
            my_time = times_get(tid, 0)
            if var.read_clock is not None:
                var.read_clock.set_time(tid, my_time)
            elif var.read_tid == tid:
                # Same-epoch / same-thread fast path: R_x stays an epoch.
                var.read_time = my_time
            elif var.read_time <= times_get(var.read_tid, 0):
                var.read_tid = tid
                var.read_time = my_time
            else:
                # Concurrent reads: inflate to a read vector clock.
                var.read_clock = VectorClock(
                    {var.read_tid: var.read_time, tid: my_time}
                )
            var.last_reads[tid] = i

        def on_write(i: int) -> None:
            tid = tids[i]
            clock = threads_get(tid) or clock_of(tid)
            times_get = clock._times.get
            var = variables.get(adrs[i])
            if var is None:
                var = variables[adrs[i]] = _VarState()
            if (
                var.write_time > times_get(var.write_tid, 0)
                and var.last_write is not None
            ):
                report(var.last_write, i)
            if var.read_clock is not None:
                if not var.read_clock.leq(clock):
                    read_time = var.read_clock.time_of
                    for reader_tid, read_row in var.last_reads.items():
                        if reader_tid == tid:
                            continue
                        if read_time(reader_tid) > times_get(reader_tid, 0):
                            report(read_row, i)
                var.read_clock = None
                var.last_reads = (
                    {tid: var.last_reads[tid]} if tid in var.last_reads else {}
                )
            elif var.read_time > times_get(var.read_tid, 0):
                previous = var.last_reads.get(var.read_tid)
                if previous is not None and tids[previous] != tid:
                    report(previous, i)
            var.write_tid = tid
            var.write_time = times_get(tid, 0)
            var.last_write = i

        return {
            OP_READ: on_read, OP_WRITE: on_write, **self._hb.handlers(packed)
        }


__all__ = ["FastTrackDetector"]
