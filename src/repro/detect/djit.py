"""Djit+ (Pozniansky & Schuster, PPoPP 2003): full-vector-clock HB
race detection.

The unoptimized ancestor of FastTrack: every variable keeps a complete
read vector clock and write vector clock.  Kept as an independent
detector both for the ablation benchmark (FastTrack must report exactly
the same races, faster bookkeeping) and as an oracle in the detector
equivalence property tests.

The same treatment as FastTrack applies (per-row handlers over a packed
trace, row indices until report time, copy-on-write release snapshots,
and the shared :class:`~repro.detect.clock.HappensBefore` clocks) — but
the per-variable state intentionally stays full vector clocks.
"""

from __future__ import annotations

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
    __slots__ = ("reads", "writes", "last_writes", "last_reads")

    def __init__(self) -> None:
        self.reads = VectorClock()
        self.writes = VectorClock()
        self.last_writes: dict[int, int] = {}
        self.last_reads: dict[int, int] = {}


class DjitDetector:
    """Vector-clock happens-before race detector (Djit+)."""

    name = "djit+"

    #: Event kinds this detector consumes (see Listener.interests).
    interests = (ReadEvent, WriteEvent, LockEvent, UnlockEvent,
                 ForkEvent, JoinEvent)

    def __init__(self) -> None:
        self.races = RaceSet()
        self._hb = HappensBefore()
        self._vars: dict[int, _VarState] = {}

    def handlers(self, packed) -> dict:
        """Row handlers: the full-vector-clock access rules plus the
        shared happens-before clock updates (see analysis/sweep.py)."""
        tids, adrs = packed.tid, packed.adr
        threads_get, clock_of = self._hb.threads.get, self._hb.clock
        variables = self._vars
        races, name = self.races, self.name

        def access(i: int):
            """Decode one access row: (tid, times_get, var)."""
            tid = tids[i]
            var = variables.get(adrs[i])
            if var is None:
                var = variables[adrs[i]] = _VarState()
            return tid, (threads_get(tid) or clock_of(tid))._times.get, var

        def check(i: int, tid: int, times_get, times, last) -> None:
            """Report every access in ``times`` not ordered before row i."""
            for other_tid, time in times.items():
                if other_tid != tid and time > times_get(other_tid, 0):
                    previous = last.get(other_tid)
                    if previous is not None:
                        races.add_rows(name, packed, previous, i)

        def on_read(i: int) -> None:
            tid, times_get, var = access(i)
            # A read races with every write not ordered before us.
            check(i, tid, times_get, var.writes._times, var.last_writes)
            var.reads.set_time(tid, times_get(tid, 0))
            var.last_reads[tid] = i

        def on_write(i: int) -> None:
            tid, times_get, var = access(i)
            check(i, tid, times_get, var.writes._times, var.last_writes)
            check(i, tid, times_get, var.reads._times, var.last_reads)
            var.writes.set_time(tid, times_get(tid, 0))
            var.last_writes[tid] = i

        return {
            OP_READ: on_read, OP_WRITE: on_write, **self._hb.handlers(packed)
        }


__all__ = ["DjitDetector"]
