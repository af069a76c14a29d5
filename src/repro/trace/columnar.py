"""Packed columnar trace representation + streaming feed protocol.

A recorded execution is, overwhelmingly, a long homogeneous stream of
small integer tuples.  Storing it as a ``list`` of heap-allocated
``Event`` objects (56-120 bytes each, pointer-chased per field) makes
every downstream pass — the access analyzer, the race detectors, the
fuzz loop — pay per-event allocation, attribute lookup, and dispatch
costs, and makes the trace itself the dominant share of pipeline RSS.

:class:`PackedTrace` stores the same stream as parallel ``array``
columns: one opcode byte per event plus fixed integer operand columns,
with strings, lock sets, access addresses, and rare payloads interned
into side tables.  Three access protocols sit on top:

* **streaming feed** — consumers iterate the raw columns directly
  (``packed.op``, ``packed.tid``, ...).  Detectors and probes declare
  per-opcode row handlers and the sweep engine (``analysis/sweep.py``)
  runs the whole pass stack in one walk over these columns — no
  per-event object; the interned address id (``packed.adr``) replaces
  the per-access ``(obj, field, elem)`` tuple key.
* **lazy object view** — ``packed.event(i)`` / iteration reconstruct
  ordinary :class:`~repro.trace.events.Event` objects on demand for
  code that wants rich events (the analyzer, formatters, tests).  A
  reconstructed event is equal to the one originally recorded.
* **content digest** — :meth:`PackedTrace.digest` hashes the columns
  and side tables, giving a cheap identity for a whole interleaving;
  the fuzz loop memoizes detector results per digest (see
  ``fuzz/racefuzzer.py`` and DESIGN.md §8).

:class:`ColumnarRecorder` is the listener that packs events as they are
emitted, so no intermediate ``Trace`` list ever exists.  Its
``interests`` default to None (record everything — the seed-suite
path); analysis consumers pass the ``interest_union`` of their pass
stack (see ``analysis/sweep.py``) and sweep the passes afterwards.
"""

from __future__ import annotations

import hashlib
import sys
from array import array

from repro.runtime.values import ObjRef, Value
from repro.trace.events import (
    AllocEvent,
    BlockedEvent,
    Event,
    FaultEvent,
    ForkEvent,
    InvokeEvent,
    JoinEvent,
    LockEvent,
    NotifyEvent,
    ReadEvent,
    ReturnEvent,
    Trace,
    UnlockEvent,
    WaitEvent,
    WriteEvent,
    AccessEvent,
)

# Opcodes, one per event kind.
OP_INVOKE = 0
OP_RETURN = 1
OP_ALLOC = 2
OP_READ = 3
OP_WRITE = 4
OP_LOCK = 5
OP_UNLOCK = 6
OP_BLOCKED = 7
OP_WAIT = 8
OP_NOTIFY = 9
OP_FORK = 10
OP_JOIN = 11
OP_FAULT = 12

OP_NAMES = (
    "invoke", "return", "alloc", "read", "write", "lock", "unlock",
    "blocked", "wait", "notify", "fork", "join", "fault",
)

# NB: consumers no longer hard-code an interest union here; each
# recording site derives it from its pass stack with
# ``repro.analysis.sweep.interest_union`` so elision and scheduling
# points always match the passes actually swept.

# Value packing: a MiniJ value is None | bool | int | ObjRef.  Values
# are packed into (kind, int, class-id) triples; ints outside 64 bits
# overflow into the cell table.
_VK_NONE = 0
_VK_INT = 1
_VK_BOOL = 2
_VK_REF = 3
_VK_CELL = 4

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class PackedTrace:
    """An event sequence stored as parallel integer columns.

    The feed protocol: ``op[i]`` selects the kind of row ``i``; the
    generic operand columns carry the kind-specific payload:

    ========  ==========================================================
    opcode    x / y / z / side-table columns
    ========  ==========================================================
    invoke    x=receiver, y=new_call_index, z=depth, cls, fld=method,
              aux=args cell, flags bit0=from_client bit1=is_constructor
    return    x=returning_call_index, cls, fld=method, value cols,
              flags bit0=to_client
    alloc     x=ref, cls, flags bit0=in_library
    read      x=obj, y=elem_index (-1 = None), cls, fld, lck, adr,
              value cols, flags bit0=in_constructor
    write     read layout + old-value cols
    lock      x=obj, y=reentrancy
    unlock    x=obj, y=reentrancy
    blocked   x=obj, y=owner_thread
    wait      x=obj
    notify    x=obj, aux=woken cell, flags bit0=notify_all
    fork      x=child_thread
    join      x=child_thread
    fault     fld=kind, aux=message cell
    ========  ==========================================================

    ``label``/``tid``/``node``/``call`` are populated for every row.
    ``adr`` interns the access address ``(obj, field, elem)`` into a
    dense id so detectors key per-variable state on a single int.
    """

    __slots__ = (
        "test_name",
        "op", "label", "tid", "node", "call",
        "x", "y", "z", "cls", "fld", "lck", "adr", "aux", "flags",
        "vkind", "vint", "vcls", "okind", "oint", "ocls",
        "strtab", "locktab", "addrtab", "cells",
        "_strid", "_lockid", "_addrid", "_packers", "_unpackers",
    )

    #: Column names in declaration order (the serialization schema).
    COLUMNS = (
        "op", "label", "tid", "node", "call",
        "x", "y", "z", "cls", "fld", "lck", "adr", "aux", "flags",
        "vkind", "vint", "vcls", "okind", "oint", "ocls",
    )

    _TYPECODES = {
        "op": "B", "label": "q", "tid": "i", "node": "i", "call": "i",
        "x": "q", "y": "q", "z": "q", "cls": "i", "fld": "i",
        "lck": "i", "adr": "i", "aux": "i", "flags": "B",
        "vkind": "b", "vint": "q", "vcls": "i",
        "okind": "b", "oint": "q", "ocls": "i",
    }

    def __init__(self, test_name: str = "") -> None:
        self.test_name = test_name
        for name in self.COLUMNS:
            setattr(self, name, array(self._TYPECODES[name]))
        self.strtab: list[str] = []
        self.locktab: list[frozenset[int]] = []
        self.addrtab: list[tuple[int, int, int]] = []
        self.cells: list = []
        self._strid: dict[str, int] = {}
        self._lockid: dict[frozenset, int] = {}
        self._addrid: dict[tuple[int, int, int], int] = {}
        self._packers = {
            InvokeEvent: self._pack_invoke,
            ReturnEvent: self._pack_return,
            AllocEvent: self._pack_alloc,
            ReadEvent: self._pack_read,
            WriteEvent: self._pack_write,
            LockEvent: self._pack_lock,
            UnlockEvent: self._pack_unlock,
            BlockedEvent: self._pack_blocked,
            WaitEvent: self._pack_wait,
            NotifyEvent: self._pack_notify,
            ForkEvent: self._pack_fork,
            JoinEvent: self._pack_join,
            FaultEvent: self._pack_fault,
        }
        self._unpackers = (
            self._event_invoke, self._event_return, self._event_alloc,
            self._event_read, self._event_write, self._event_lock,
            self._event_unlock, self._event_blocked, self._event_wait,
            self._event_notify, self._event_fork, self._event_join,
            self._event_fault,
        )

    # -- interning -----------------------------------------------------

    def _str(self, s: str) -> int:
        index = self._strid.get(s)
        if index is None:
            index = self._strid[s] = len(self.strtab)
            self.strtab.append(s)
        return index

    def _locks(self, locks: frozenset[int]) -> int:
        index = self._lockid.get(locks)
        if index is None:
            index = self._lockid[locks] = len(self.locktab)
            self.locktab.append(locks)
        return index

    def _addr(self, obj: int, fld_id: int, elem: int) -> int:
        key = (obj, fld_id, elem)
        index = self._addrid.get(key)
        if index is None:
            index = self._addrid[key] = len(self.addrtab)
            self.addrtab.append(key)
        return index

    def _cell(self, payload) -> int:
        self.cells.append(payload)
        return len(self.cells) - 1

    def _value(self, v: Value) -> tuple[int, int, int]:
        if v is None:
            return _VK_NONE, 0, -1
        if v is True:
            return _VK_BOOL, 1, -1
        if v is False:
            return _VK_BOOL, 0, -1
        if type(v) is int:
            if _I64_MIN <= v <= _I64_MAX:
                return _VK_INT, v, -1
            return _VK_CELL, self._cell(v), -1
        return _VK_REF, v.ref, self._str(v.class_name)

    def _unvalue(self, kind: int, vint: int, vcls: int) -> Value:
        if kind == _VK_INT:
            return vint
        if kind == _VK_NONE:
            return None
        if kind == _VK_REF:
            return ObjRef(vint, self.strtab[vcls])
        if kind == _VK_BOOL:
            return vint == 1
        return self.cells[vint]

    # -- packing -------------------------------------------------------

    def append(self, event: Event) -> None:
        """Pack one event onto the columns (the recorder hot path)."""
        self._packers[event.__class__](event)

    def _row(
        self, op, e, x=0, y=0, z=0, cls=-1, fld=-1, lck=-1, adr=-1,
        aux=-1, flags=0, vkind=_VK_NONE, vint=0, vcls=-1,
        okind=_VK_NONE, oint=0, ocls=-1,
    ) -> None:
        self.op.append(op)
        self.label.append(e.label)
        self.tid.append(e.thread_id)
        self.node.append(e.node_id)
        self.call.append(e.call_index)
        self.x.append(x)
        self.y.append(y)
        self.z.append(z)
        self.cls.append(cls)
        self.fld.append(fld)
        self.lck.append(lck)
        self.adr.append(adr)
        self.aux.append(aux)
        self.flags.append(flags)
        self.vkind.append(vkind)
        self.vint.append(vint)
        self.vcls.append(vcls)
        self.okind.append(okind)
        self.oint.append(oint)
        self.ocls.append(ocls)

    def _pack_invoke(self, e: InvokeEvent) -> None:
        self._row(
            OP_INVOKE, e, x=e.receiver, y=e.new_call_index, z=e.depth,
            cls=self._str(e.class_name), fld=self._str(e.method),
            aux=self._cell(e.args) if e.args else -1,
            flags=(1 if e.from_client else 0) | (2 if e.is_constructor else 0),
        )

    def _pack_return(self, e: ReturnEvent) -> None:
        vk, vi, vc = self._value(e.value)
        self._row(
            OP_RETURN, e, x=e.returning_call_index,
            cls=self._str(e.class_name), fld=self._str(e.method),
            flags=1 if e.to_client else 0, vkind=vk, vint=vi, vcls=vc,
        )

    def _pack_alloc(self, e: AllocEvent) -> None:
        self._row(
            OP_ALLOC, e, x=e.ref, cls=self._str(e.class_name),
            flags=1 if e.in_library else 0,
        )

    def _pack_read(self, e: ReadEvent) -> None:
        fld = self._str(e.field_name)
        elem = -1 if e.elem_index is None else e.elem_index
        vk, vi, vc = self._value(e.value)
        self._row(
            OP_READ, e, x=e.obj, y=elem, cls=self._str(e.class_name),
            fld=fld, lck=self._locks(e.locks_held),
            adr=self._addr(e.obj, fld, elem),
            flags=1 if e.in_constructor else 0, vkind=vk, vint=vi, vcls=vc,
        )

    def _pack_write(self, e: WriteEvent) -> None:
        fld = self._str(e.field_name)
        elem = -1 if e.elem_index is None else e.elem_index
        vk, vi, vc = self._value(e.value)
        ok, oi, oc = self._value(e.old_value)
        self._row(
            OP_WRITE, e, x=e.obj, y=elem, cls=self._str(e.class_name),
            fld=fld, lck=self._locks(e.locks_held),
            adr=self._addr(e.obj, fld, elem),
            flags=1 if e.in_constructor else 0, vkind=vk, vint=vi, vcls=vc,
            okind=ok, oint=oi, ocls=oc,
        )

    def _pack_lock(self, e: LockEvent) -> None:
        self._row(OP_LOCK, e, x=e.obj, y=e.reentrancy)

    def _pack_unlock(self, e: UnlockEvent) -> None:
        self._row(OP_UNLOCK, e, x=e.obj, y=e.reentrancy)

    def _pack_blocked(self, e: BlockedEvent) -> None:
        self._row(OP_BLOCKED, e, x=e.obj, y=e.owner_thread)

    def _pack_wait(self, e: WaitEvent) -> None:
        self._row(OP_WAIT, e, x=e.obj)

    def _pack_notify(self, e: NotifyEvent) -> None:
        self._row(
            OP_NOTIFY, e, x=e.obj,
            aux=self._cell(e.woken) if e.woken else -1,
            flags=1 if e.notify_all else 0,
        )

    def _pack_fork(self, e: ForkEvent) -> None:
        self._row(OP_FORK, e, x=e.child_thread)

    def _pack_join(self, e: JoinEvent) -> None:
        self._row(OP_JOIN, e, x=e.child_thread)

    def _pack_fault(self, e: FaultEvent) -> None:
        self._row(
            OP_FAULT, e, fld=self._str(e.kind),
            aux=self._cell(e.message) if e.message else -1,
        )

    # -- lazy object view ----------------------------------------------

    def __len__(self) -> int:
        return len(self.op)

    def __iter__(self):
        event = self.event
        for i in range(len(self.op)):
            yield event(i)

    def event(self, i: int) -> Event:
        """Reconstruct the rich event object for row ``i``."""
        return self._unpackers[self.op[i]](i)

    def _base(self, i: int) -> tuple[int, int, int, int]:
        return (self.label[i], self.tid[i], self.node[i], self.call[i])

    def _event_invoke(self, i: int) -> InvokeEvent:
        aux = self.aux[i]
        return InvokeEvent(
            *self._base(i), receiver=self.x[i],
            class_name=self.strtab[self.cls[i]],
            method=self.strtab[self.fld[i]],
            args=() if aux < 0 else self.cells[aux],
            from_client=bool(self.flags[i] & 1),
            is_constructor=bool(self.flags[i] & 2),
            new_call_index=self.y[i], depth=self.z[i],
        )

    def _event_return(self, i: int) -> ReturnEvent:
        return ReturnEvent(
            *self._base(i),
            value=self._unvalue(self.vkind[i], self.vint[i], self.vcls[i]),
            to_client=bool(self.flags[i] & 1),
            returning_call_index=self.x[i],
            method=self.strtab[self.fld[i]],
            class_name=self.strtab[self.cls[i]],
        )

    def _event_alloc(self, i: int) -> AllocEvent:
        return AllocEvent(
            *self._base(i), ref=self.x[i],
            class_name=self.strtab[self.cls[i]],
            in_library=bool(self.flags[i] & 1),
        )

    def _access_fields(self, i: int) -> dict:
        return dict(
            obj=self.x[i],
            class_name=self.strtab[self.cls[i]],
            field_name=self.strtab[self.fld[i]],
            value=self._unvalue(self.vkind[i], self.vint[i], self.vcls[i]),
            locks_held=self.locktab[self.lck[i]],
            elem_index=None if self.y[i] < 0 else self.y[i],
            in_constructor=bool(self.flags[i] & 1),
        )

    def _event_read(self, i: int) -> ReadEvent:
        return ReadEvent(*self._base(i), **self._access_fields(i))

    def _event_write(self, i: int) -> WriteEvent:
        return WriteEvent(
            *self._base(i), **self._access_fields(i),
            old_value=self._unvalue(self.okind[i], self.oint[i], self.ocls[i]),
        )

    def _event_lock(self, i: int) -> LockEvent:
        return LockEvent(*self._base(i), obj=self.x[i], reentrancy=self.y[i])

    def _event_unlock(self, i: int) -> UnlockEvent:
        return UnlockEvent(*self._base(i), obj=self.x[i], reentrancy=self.y[i])

    def _event_blocked(self, i: int) -> BlockedEvent:
        return BlockedEvent(
            *self._base(i), obj=self.x[i], owner_thread=self.y[i]
        )

    def _event_wait(self, i: int) -> WaitEvent:
        return WaitEvent(*self._base(i), obj=self.x[i])

    def _event_notify(self, i: int) -> NotifyEvent:
        aux = self.aux[i]
        return NotifyEvent(
            *self._base(i), obj=self.x[i],
            woken=() if aux < 0 else self.cells[aux],
            notify_all=bool(self.flags[i] & 1),
        )

    def _event_fork(self, i: int) -> ForkEvent:
        return ForkEvent(*self._base(i), child_thread=self.x[i])

    def _event_join(self, i: int) -> JoinEvent:
        return JoinEvent(*self._base(i), child_thread=self.x[i])

    def _event_fault(self, i: int) -> FaultEvent:
        aux = self.aux[i]
        return FaultEvent(
            *self._base(i), kind=self.strtab[self.fld[i]],
            message="" if aux < 0 else self.cells[aux],
        )

    # -- report-side accessors (used by sweep-pass reporting) ----------

    def address_at(self, i: int) -> tuple[int, str, int | None]:
        """The event-model address tuple of access row ``i``."""
        obj, fld, elem = self.addrtab[self.adr[i]]
        return (obj, self.strtab[fld], None if elem < 0 else elem)

    def value_at(self, i: int) -> Value:
        return self._unvalue(self.vkind[i], self.vint[i], self.vcls[i])

    def old_value_at(self, i: int) -> Value:
        return self._unvalue(self.okind[i], self.oint[i], self.ocls[i])

    # -- Trace-compatible helpers --------------------------------------

    def memory_events(self) -> list[AccessEvent]:
        """All field reads and writes, in order (materialized)."""
        op = self.op
        return [
            self.event(i)
            for i in range(len(op))
            if op[i] == OP_READ or op[i] == OP_WRITE
        ]

    def client_invocations(self) -> list[InvokeEvent]:
        """Invocations made directly from the client (test body)."""
        op, flags = self.op, self.flags
        return [
            self.event(i)
            for i in range(len(op))
            if op[i] == OP_INVOKE and flags[i] & 1
        ]

    def to_trace(self) -> Trace:
        """Materialize the classic object representation."""
        return Trace(events=list(self), test_name=self.test_name)

    # -- identity & accounting -----------------------------------------

    def digest(self) -> str:
        """Content digest of the whole packed interleaving.

        Two traces digest equal iff their packed representations are
        identical — same events, same order, same labels, same values —
        which is exactly the memoization key the fuzz loop needs: a
        digest match implies the detectors would see a bit-identical
        input stream (see DESIGN.md §8 on collision safety).
        """
        h = hashlib.sha256()
        for name in self.COLUMNS:
            h.update(getattr(self, name).tobytes())
        h.update("\x1f".join(self.strtab).encode())
        for locks in self.locktab:
            h.update(b"L")
            h.update(",".join(map(str, sorted(locks))).encode())
        for cell in self.cells:
            h.update(b"C")
            h.update(repr(cell).encode())
        return h.hexdigest()

    def nbytes(self) -> int:
        """Resident size of the packed columns plus side tables.

        Column bytes are exact (``len * itemsize``); side tables are
        measured with ``sys.getsizeof`` per interned object plus the
        holding lists, so the reported footprint reflects what the
        tables actually cost — the old estimate (string lengths and
        flat per-entry constants) undercounted CPython object headers
        several-fold, which skewed before/after memory comparisons.
        """
        total = 0
        for name in self.COLUMNS:
            col = getattr(self, name)
            total += len(col) * col.itemsize
        getsizeof = sys.getsizeof
        total += (
            getsizeof(self.strtab)
            + getsizeof(self.locktab)
            + getsizeof(self.addrtab)
            + getsizeof(self.cells)
        )
        for s in self.strtab:
            total += getsizeof(s)
        for locks in self.locktab:
            # The frozenset object plus its int members (ints are tiny
            # and frequently shared, but counting them is closer to
            # the truth than ignoring them).
            total += getsizeof(locks) + sum(getsizeof(o) for o in locks)
        for addr in self.addrtab:
            total += getsizeof(addr) + sum(getsizeof(part) for part in addr)
        for cell in self.cells:
            total += getsizeof(cell)
        return total

    def counts(self) -> dict[str, int]:
        """Event count per kind (e.g. for ``--trace-stats``)."""
        totals = [0] * len(OP_NAMES)
        for op in self.op:
            totals[op] += 1
        return {
            name: count for name, count in zip(OP_NAMES, totals) if count
        }


class ColumnarRecorder:
    """A listener that packs the event stream straight into columns.

    The streaming analogue of :class:`~repro.trace.recorder.Recorder`:
    no intermediate event list is built.  ``interests`` defaults to None
    (record every event — seed-suite recording); pass the
    ``interest_union`` of an analysis-pass stack to record exactly the
    stream those passes consume, then sweep them over :attr:`packed`.
    Elision is membership-only, so scheduling points and labels do not
    depend on the interests.
    """

    def __init__(self, test_name: str = "", interests=None) -> None:
        self.interests = interests
        self.packed = PackedTrace(test_name=test_name)
        # Bind the packer directly: event delivery costs one dict hit.
        self.on_event = self.packed.append


__all__ = [
    "ColumnarRecorder",
    "OP_ALLOC",
    "OP_BLOCKED",
    "OP_FAULT",
    "OP_FORK",
    "OP_INVOKE",
    "OP_JOIN",
    "OP_LOCK",
    "OP_NAMES",
    "OP_NOTIFY",
    "OP_READ",
    "OP_RETURN",
    "OP_UNLOCK",
    "OP_WAIT",
    "OP_WRITE",
    "PackedTrace",
]
