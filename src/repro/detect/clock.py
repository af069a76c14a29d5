"""Vector clocks and epochs for happens-before race detection.

Shared by the Djit+ and FastTrack detectors.  A :class:`VectorClock` is
a sparse mapping thread-id -> logical time; an :class:`Epoch` is the
FastTrack compression of "one thread's time" (c@t in the paper's
notation); :class:`HappensBefore` keeps the thread and lock clocks both
detectors update on synchronization rows.

Clocks are copy-on-write: :meth:`VectorClock.snapshot` returns an O(1)
frozen view sharing the underlying dict, and the next mutation of
either side copies.  Detectors snapshot a thread clock at every lock
release, so this turns the per-release deep copy into a no-op except
when the thread's clock actually advances afterwards — which it does
via ``tick``, but a snapshot that is immediately replaced by a newer
one (the common re-release pattern) never pays for a copy of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.columnar import OP_FORK, OP_JOIN, OP_LOCK, OP_UNLOCK


class VectorClock:
    """A sparse vector clock over thread ids.

    Missing entries are zero.  Instances are mutable; use
    :meth:`snapshot` (O(1), copy-on-write) or :meth:`copy` (eager) to
    store an immutable point-in-time view (e.g. lock release clocks).
    """

    __slots__ = ("_times", "_frozen")

    def __init__(self, times: dict[int, int] | None = None) -> None:
        self._times = dict(times) if times else {}
        self._frozen = False

    def time_of(self, tid: int) -> int:
        return self._times.get(tid, 0)

    def _thaw(self) -> None:
        """Make this clock safely mutable (copy a shared dict)."""
        if self._frozen:
            self._times = dict(self._times)
            self._frozen = False

    def tick(self, tid: int) -> None:
        """Increment this clock's component for ``tid``."""
        self._thaw()
        self._times[tid] = self._times.get(tid, 0) + 1

    def set_time(self, tid: int, time: int) -> None:
        """Set one component directly (detector bookkeeping)."""
        self._thaw()
        self._times[tid] = time

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum, in place.

        Skips the copy-on-write materialization entirely when ``other``
        adds nothing — the common case when a thread reacquires a lock
        it released last.
        """
        other_times = other._times
        mine = self._times
        if mine is other_times:
            return
        for tid, time in other_times.items():
            if time > mine.get(tid, 0):
                break
        else:
            return
        if self._frozen:
            mine = self._times = dict(mine)
            self._frozen = False
        for tid, time in other_times.items():
            if time > mine.get(tid, 0):
                mine[tid] = time

    def snapshot(self) -> "VectorClock":
        """An O(1) frozen view of the current state.

        Both this clock and the returned view keep sharing the backing
        dict until one of them is mutated, at which point the mutating
        side copies.
        """
        self._frozen = True
        view = VectorClock.__new__(VectorClock)
        view._times = self._times
        view._frozen = True
        return view

    def copy(self) -> "VectorClock":
        return VectorClock(self._times)

    def leq(self, other: "VectorClock") -> bool:
        """Pointwise <= (the happens-before test)."""
        other_times = other._times
        if self._times is other_times:
            return True
        return all(
            time <= other_times.get(tid, 0) for tid, time in self._times.items()
        )

    def items(self):
        return self._times.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self._times) | set(other._times)
        return all(self.time_of(k) == other.time_of(k) for k in keys)

    def __hash__(self):  # pragma: no cover - clocks are not hashable keys
        raise TypeError("VectorClock is mutable and unhashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"t{t}:{c}" for t, c in sorted(self._times.items()))
        return f"VC({inner})"


class HappensBefore:
    """Per-thread and per-lock clocks of a happens-before detector.

    FastTrack and Djit+ order accesses by the same relation: a lock
    release stores the releasing thread's clock on the lock (an O(1)
    snapshot) and ticks the thread, an acquire joins the lock's clock
    into the thread's, a fork joins the parent's clock into the child's
    and ticks the parent, and a join joins the child's clock into the
    joiner's and ticks the child.  Each detector owns one instance.
    """

    __slots__ = ("threads", "locks")

    def __init__(self) -> None:
        self.threads: dict[int, VectorClock] = {}
        self.locks: dict[int, VectorClock] = {}

    def clock(self, tid: int) -> VectorClock:
        """Thread ``tid``'s clock, starting at ``{tid: 1}``."""
        clock = self.threads.get(tid)
        if clock is None:
            clock = self.threads[tid] = VectorClock({tid: 1})
        return clock

    def handlers(self, packed) -> dict:
        """Row handlers for the lock, unlock, fork and join rows of
        ``packed`` (``x`` is the lock object or the child thread)."""
        tids, xs = packed.tid, packed.x
        clock, locks = self.clock, self.locks

        def on_lock(i: int) -> None:
            lock_clock = locks.get(xs[i])
            if lock_clock is not None:
                clock(tids[i]).join(lock_clock)

        def on_unlock(i: int) -> None:
            tid = tids[i]
            thread_clock = clock(tid)
            locks[xs[i]] = thread_clock.snapshot()
            thread_clock.tick(tid)

        def on_fork(i: int) -> None:
            tid = tids[i]
            parent = clock(tid)
            clock(xs[i]).join(parent)
            parent.tick(tid)

        def on_join(i: int) -> None:
            child_tid = xs[i]
            child = clock(child_tid)
            clock(tids[i]).join(child)
            child.tick(child_tid)

        return {
            OP_LOCK: on_lock,
            OP_UNLOCK: on_unlock,
            OP_FORK: on_fork,
            OP_JOIN: on_join,
        }


@dataclass(frozen=True)
class Epoch:
    """FastTrack's c@t: one component of a vector clock."""

    tid: int
    time: int

    def leq_vc(self, clock: VectorClock) -> bool:
        """c@t ⪯ V  ⇔  c <= V[t]."""
        return self.time <= clock.time_of(self.tid)

    def __repr__(self) -> str:
        return f"{self.time}@t{self.tid}"


#: The bottom epoch (never racy, precedes everything).
EPOCH_ZERO = Epoch(tid=-1, time=0)
