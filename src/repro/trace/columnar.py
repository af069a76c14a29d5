"""Packed columnar trace representation + streaming feed protocol.

A recorded execution is, overwhelmingly, a long homogeneous stream of
small integer tuples.  Storing it as a ``list`` of heap-allocated
``Event`` objects (56-120 bytes each, pointer-chased per field) makes
every downstream pass — the access analyzer, the race detectors, the
fuzz loop — pay per-event allocation, attribute lookup, and dispatch
costs, and makes the trace itself the dominant share of pipeline RSS.

:class:`PackedTrace` stores the same stream as fixed 92-byte rows of
20 integer fields, appended to one ``bytearray``: one opcode byte per
event plus fixed integer operands, with strings, lock sets, access
addresses, and rare payloads interned into side tables.  Rows are
written either from events (:meth:`PackedTrace.append`) or straight
from the interpreter, which hands a row's fields to the per-kind row
writers (``read_row``, ``write_row``, ...) and builds no event at all.
Three access protocols sit on top:

* **streaming feed** — consumers read the columns directly
  (``packed.op``, ``packed.tid``, ...): tuples derived from the rows
  on first read.  Detectors and probes declare per-opcode row handlers
  and the sweep engine (``analysis/sweep.py``) runs the whole pass
  stack in one walk over these columns — no per-event object; the
  interned address id (``packed.adr``) replaces the per-access
  ``(obj, field, elem)`` tuple key.
* **lazy object view** — ``packed.event(i)`` / iteration reconstruct
  ordinary :class:`~repro.trace.events.Event` objects on demand for
  code that wants rich events (the analyzer, formatters, tests).  A
  reconstructed event is equal to the one originally recorded.
* **content digest** — :meth:`PackedTrace.digest` hashes the row
  buffer and side tables, giving a cheap identity for a whole
  interleaving; the fuzz loop memoizes detector results per digest
  (see ``fuzz/racefuzzer.py`` and DESIGN.md §8).

:class:`ColumnarRecorder` is the listener that packs events as they are
emitted, so no intermediate ``Trace`` list ever exists; when it is an
execution's only listener, the interpreter writes its data rows into
:attr:`ColumnarRecorder.packed` directly (``runtime/vm.py``).  Its
``interests`` default to None (record everything — the seed-suite
path); analysis consumers pass the ``interest_union`` of their pass
stack (see ``analysis/sweep.py``) and sweep the passes afterwards.
"""

from __future__ import annotations

import hashlib
import struct
import sys

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

#: Column names in row order (the serialization schema).
COLUMNS = (
    "op", "label", "tid", "node", "call",
    "x", "y", "z", "cls", "fld", "lck", "adr", "aux", "flags",
    "vkind", "vint", "vcls", "okind", "oint", "ocls",
)

#: Each column's ``array`` typecode; a row packs them in order.
_TYPECODES = {
    "op": "B", "label": "q", "tid": "i", "node": "i", "call": "i",
    "x": "q", "y": "q", "z": "q", "cls": "i", "fld": "i",
    "lck": "i", "adr": "i", "aux": "i", "flags": "B",
    "vkind": "b", "vint": "q", "vcls": "i",
    "okind": "b", "oint": "q", "ocls": "i",
}

#: One row: the columns' typecodes in order, standard sizes and no
#: padding, so a row is exactly the bytes the 20 columns would hold.
ROW = struct.Struct("=" + "".join(_TYPECODES[name] for name in COLUMNS))
_pack = ROW.pack

_COLUMN_SET = frozenset(COLUMNS)


class PackedTrace:
    """An event sequence stored as fixed rows of integer fields.

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

    The rows live in one ``bytearray``, :data:`ROW` each.  The column
    attributes are tuples derived from it on first read and dropped
    again by the next row written.
    """

    __slots__ = (
        "test_name", "_buf", "_viewed",
        *COLUMNS,
        "strtab", "locktab", "addrtab", "cells",
        "_strid", "_lockid", "_addrid",
    )

    COLUMNS = COLUMNS

    def __init__(self, test_name: str = "") -> None:
        self.test_name = test_name
        self._buf = bytearray()
        self._viewed = False
        self.strtab: list[str] = []
        self.locktab: list[frozenset[int]] = []
        self.addrtab: list[tuple[int, int, int]] = []
        self.cells: list = []
        self._strid: dict[str, int] = {}
        self._lockid: dict[frozenset, int] = {}
        self._addrid: dict[tuple[int, int, int], int] = {}

    # -- the derived column view ----------------------------------------

    def __getattr__(self, name: str):
        # Only reached for an unset slot: a column not derived yet.
        if name not in _COLUMN_SET:
            raise AttributeError(name)
        columns = tuple(zip(*ROW.iter_unpack(self._buf))) or ((),) * len(COLUMNS)
        for column_name, column in zip(COLUMNS, columns):
            setattr(self, column_name, column)
        self._viewed = True
        return getattr(self, name)

    def _drop_view(self) -> None:
        for name in COLUMNS:
            delattr(self, name)
        self._viewed = False

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

    # -- row writers ---------------------------------------------------
    #
    # One per data kind, taking the fields of the kind's event in its
    # constructor order: the interpreter calls them with the values it
    # would have built the event from, and the event packers below
    # call them with the event's fields, so both paths write the same
    # row and intern in the same order.

    def invoke_row(
        self, label, tid, node, call, receiver, class_name, method, args,
        from_client, is_constructor, new_call_index, depth,
    ) -> None:
        if self._viewed:
            self._drop_view()
        cls = self._str(class_name)
        fld = self._str(method)
        self._buf += _pack(
            OP_INVOKE, label, tid, node, call, receiver, new_call_index,
            depth, cls, fld, -1, -1, self._cell(tuple(args)) if args else -1,
            (1 if from_client else 0) | (2 if is_constructor else 0),
            _VK_NONE, 0, -1, _VK_NONE, 0, -1,
        )

    def return_row(
        self, label, tid, node, call, value, to_client, returning_call_index,
        method, class_name,
    ) -> None:
        if self._viewed:
            self._drop_view()
        vk, vi, vc = self._value(value)
        cls = self._str(class_name)
        fld = self._str(method)
        self._buf += _pack(
            OP_RETURN, label, tid, node, call, returning_call_index, 0, 0,
            cls, fld, -1, -1, -1, 1 if to_client else 0, vk, vi, vc,
            _VK_NONE, 0, -1,
        )

    def alloc_row(self, label, tid, node, call, ref, class_name, in_library) -> None:
        if self._viewed:
            self._drop_view()
        self._buf += _pack(
            OP_ALLOC, label, tid, node, call, ref, 0, 0, self._str(class_name),
            -1, -1, -1, -1, 1 if in_library else 0, _VK_NONE, 0, -1,
            _VK_NONE, 0, -1,
        )

    def read_row(
        self, label, tid, node, call, obj, class_name, field_name, value,
        locks_held, elem_index, in_constructor,
    ) -> None:
        # A read row is a write row without an old value.
        self.write_row(
            label, tid, node, call, obj, class_name, field_name, value,
            locks_held, elem_index, in_constructor, None, OP_READ,
        )

    def write_row(
        self, label, tid, node, call, obj, class_name, field_name, value,
        locks_held, elem_index, in_constructor, old_value, op=OP_WRITE,
    ) -> None:
        if self._viewed:
            self._drop_view()
        strid = self._strid
        fld = strid.get(field_name)
        if fld is None:
            fld = self._str(field_name)
        if value.__class__ is int and _I64_MIN <= value <= _I64_MAX:
            vk, vi, vc = _VK_INT, value, -1
        else:
            vk, vi, vc = self._value(value)
        if old_value.__class__ is int and _I64_MIN <= old_value <= _I64_MAX:
            ok, oi, oc = _VK_INT, old_value, -1
        else:
            ok, oi, oc = self._value(old_value)
        cls = strid.get(class_name)
        if cls is None:
            cls = self._str(class_name)
        lck = self._lockid.get(locks_held)
        if lck is None:
            lck = self._locks(locks_held)
        elem = -1 if elem_index is None else elem_index
        adr = self._addrid.get((obj, fld, elem))
        if adr is None:
            adr = self._addr(obj, fld, elem)
        self._buf += _pack(
            op, label, tid, node, call, obj, elem, 0, cls, fld, lck, adr, -1,
            1 if in_constructor else 0, vk, vi, vc, ok, oi, oc,
        )

    def _put(
        self, op, e, x=0, y=0, fld=-1, aux=-1, flags=0,
    ) -> None:
        """A row of a kind that has no value, lock or address fields."""
        if self._viewed:
            self._drop_view()
        self._buf += _pack(
            op, e.label, e.thread_id, e.node_id, e.call_index, x, y, 0, -1,
            fld, -1, -1, aux, flags, _VK_NONE, 0, -1, _VK_NONE, 0, -1,
        )

    # -- packing events ------------------------------------------------

    def append(self, event: Event) -> None:
        """Pack one event as a row (the recorder's listener path)."""
        _PACKERS[event.__class__](self, event)

    def _pack_invoke(self, e: InvokeEvent) -> None:
        self.invoke_row(
            e.label, e.thread_id, e.node_id, e.call_index, e.receiver,
            e.class_name, e.method, e.args, e.from_client, e.is_constructor,
            e.new_call_index, e.depth,
        )

    def _pack_return(self, e: ReturnEvent) -> None:
        self.return_row(
            e.label, e.thread_id, e.node_id, e.call_index, e.value,
            e.to_client, e.returning_call_index, e.method, e.class_name,
        )

    def _pack_alloc(self, e: AllocEvent) -> None:
        self.alloc_row(
            e.label, e.thread_id, e.node_id, e.call_index, e.ref,
            e.class_name, e.in_library,
        )

    def _pack_read(self, e: ReadEvent) -> None:
        self.read_row(
            e.label, e.thread_id, e.node_id, e.call_index, e.obj,
            e.class_name, e.field_name, e.value, e.locks_held,
            e.elem_index, e.in_constructor,
        )

    def _pack_write(self, e: WriteEvent) -> None:
        self.write_row(
            e.label, e.thread_id, e.node_id, e.call_index, e.obj,
            e.class_name, e.field_name, e.value, e.locks_held,
            e.elem_index, e.in_constructor, e.old_value,
        )

    def _pack_lock(self, e: LockEvent) -> None:
        self._put(OP_LOCK, e, e.obj, e.reentrancy)

    def _pack_unlock(self, e: UnlockEvent) -> None:
        self._put(OP_UNLOCK, e, e.obj, e.reentrancy)

    def _pack_blocked(self, e: BlockedEvent) -> None:
        self._put(OP_BLOCKED, e, e.obj, e.owner_thread)

    def _pack_wait(self, e: WaitEvent) -> None:
        self._put(OP_WAIT, e, e.obj)

    def _pack_notify(self, e: NotifyEvent) -> None:
        self._put(
            OP_NOTIFY, e, e.obj,
            aux=self._cell(e.woken) if e.woken else -1,
            flags=1 if e.notify_all else 0,
        )

    def _pack_fork(self, e: ForkEvent) -> None:
        self._put(OP_FORK, e, e.child_thread)

    def _pack_join(self, e: JoinEvent) -> None:
        self._put(OP_JOIN, e, e.child_thread)

    def _pack_fault(self, e: FaultEvent) -> None:
        fld = self._str(e.kind)
        self._put(
            OP_FAULT, e, fld=fld,
            aux=self._cell(e.message) if e.message else -1,
        )

    # -- lazy object view ----------------------------------------------
    #
    # Events are rebuilt from unpacked rows, not from the column view,
    # so a trace that is only iterated (the access analyzer's seed
    # traces) never holds derived columns.

    def __len__(self) -> int:
        return len(self._buf) // ROW.size

    def __iter__(self):
        for row in ROW.iter_unpack(self._buf):
            yield _UNPACKERS[row[0]](self, row)

    def event(self, i: int) -> Event:
        """Reconstruct the rich event object for row ``i``."""
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"row {i} of {size}")
        row = ROW.unpack_from(self._buf, i * ROW.size)
        return _UNPACKERS[row[0]](self, row)

    def _event_invoke(self, row: tuple) -> InvokeEvent:
        _, label, tid, node, call, x, y, z, cls, fld, _, _, aux, flags, *_ = row
        return InvokeEvent(
            label, tid, node, call, x, self.strtab[cls], self.strtab[fld],
            () if aux < 0 else self.cells[aux], bool(flags & 1),
            bool(flags & 2), y, z,
        )

    def _event_return(self, row: tuple) -> ReturnEvent:
        _, label, tid, node, call, x, _, _, cls, fld, *_ = row
        return ReturnEvent(
            label, tid, node, call, self._unvalue(*row[14:17]),
            bool(row[13] & 1), x, self.strtab[fld], self.strtab[cls],
        )

    def _event_alloc(self, row: tuple) -> AllocEvent:
        _, label, tid, node, call, x, _, _, cls, _, _, _, _, flags, *_ = row
        return AllocEvent(
            label, tid, node, call, x, self.strtab[cls], bool(flags & 1)
        )

    def _event_read(self, row: tuple) -> ReadEvent:
        return ReadEvent(*self._access_fields(row))

    def _event_write(self, row: tuple) -> WriteEvent:
        return WriteEvent(*self._access_fields(row), self._unvalue(*row[17:20]))

    def _access_fields(self, row: tuple) -> tuple:
        _, label, tid, node, call, x, y, _, cls, fld, lck, _, _, flags, *_ = row
        return (
            label, tid, node, call, x, self.strtab[cls], self.strtab[fld],
            self._unvalue(*row[14:17]), self.locktab[lck],
            None if y < 0 else y, bool(flags & 1),
        )

    def _event_lock(self, row: tuple) -> LockEvent:
        return LockEvent(*row[1:7])

    def _event_unlock(self, row: tuple) -> UnlockEvent:
        return UnlockEvent(*row[1:7])

    def _event_blocked(self, row: tuple) -> BlockedEvent:
        return BlockedEvent(*row[1:7])

    def _event_wait(self, row: tuple) -> WaitEvent:
        return WaitEvent(*row[1:6])

    def _event_notify(self, row: tuple) -> NotifyEvent:
        aux = row[12]
        return NotifyEvent(
            *row[1:6], () if aux < 0 else self.cells[aux], bool(row[13] & 1)
        )

    def _event_fork(self, row: tuple) -> ForkEvent:
        return ForkEvent(*row[1:6])

    def _event_join(self, row: tuple) -> JoinEvent:
        return JoinEvent(*row[1:6])

    def _event_fault(self, row: tuple) -> FaultEvent:
        aux = row[12]
        return FaultEvent(
            *row[1:5], self.strtab[row[9]], "" if aux < 0 else self.cells[aux]
        )

    # -- report-side accessors (used by sweep-pass reporting) ----------

    def address_at(self, i: int) -> tuple[int, str, int | None]:
        """The event-model address tuple of access row ``i``."""
        return self._address(self.adr[i])

    def _address(self, adr: int) -> tuple[int, str, int | None]:
        obj, fld, elem = self.addrtab[adr]
        return (obj, self.strtab[fld], None if elem < 0 else elem)

    def access(self, i: int) -> tuple[int, tuple[int, str, int | None]] | None:
        """``(node id, address)`` of row ``i`` when it is a read or a
        write; None when it is another kind or not recorded yet.

        Reads the row buffer, not the column view, so a caller may ask
        after every step of a run that is still recording.
        """
        offset = i * ROW.size
        buf = self._buf
        if offset >= len(buf) or not OP_READ <= buf[offset] <= OP_WRITE:
            return None
        row = ROW.unpack_from(buf, offset)
        return row[3], self._address(row[11])

    def value_at(self, i: int) -> Value:
        return self._unvalue(self.vkind[i], self.vint[i], self.vcls[i])

    def old_value_at(self, i: int) -> Value:
        return self._unvalue(self.okind[i], self.oint[i], self.ocls[i])

    # -- Trace-compatible helpers --------------------------------------

    def memory_events(self) -> list[AccessEvent]:
        """All field reads and writes, in order (materialized)."""
        return [
            _UNPACKERS[row[0]](self, row)
            for row in ROW.iter_unpack(self._buf)
            if OP_READ <= row[0] <= OP_WRITE
        ]

    def client_invocations(self) -> list[InvokeEvent]:
        """Invocations made directly from the client (test body)."""
        return [
            self._event_invoke(row)
            for row in ROW.iter_unpack(self._buf)
            if row[0] == OP_INVOKE and row[13] & 1
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
        input stream (see DESIGN.md §8 on collision safety).  Rows are
        fixed-width, so equal row buffers are equal columns.
        """
        h = hashlib.sha256(self._buf)
        h.update("\x1f".join(self.strtab).encode())
        for locks in self.locktab:
            h.update(b"L")
            h.update(",".join(map(str, sorted(locks))).encode())
        for cell in self.cells:
            h.update(b"C")
            h.update(repr(cell).encode())
        return h.hexdigest()

    def nbytes(self) -> int:
        """Resident size of the packed rows plus side tables.

        Row bytes are exact (:data:`ROW` per row, the bytes the 20
        columns would hold as arrays); side tables are measured with
        ``sys.getsizeof`` per interned object plus the holding lists,
        so the reported footprint reflects what the tables actually
        cost — the old estimate (string lengths and flat per-entry
        constants) undercounted CPython object headers several-fold,
        which skewed before/after memory comparisons.
        """
        total = len(self._buf)
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
        # The opcode is each row's first byte.
        for op in self._buf[::ROW.size]:
            totals[op] += 1
        return {
            name: count for name, count in zip(OP_NAMES, totals) if count
        }


_PACKERS = {
    InvokeEvent: PackedTrace._pack_invoke,
    ReturnEvent: PackedTrace._pack_return,
    AllocEvent: PackedTrace._pack_alloc,
    ReadEvent: PackedTrace._pack_read,
    WriteEvent: PackedTrace._pack_write,
    LockEvent: PackedTrace._pack_lock,
    UnlockEvent: PackedTrace._pack_unlock,
    BlockedEvent: PackedTrace._pack_blocked,
    WaitEvent: PackedTrace._pack_wait,
    NotifyEvent: PackedTrace._pack_notify,
    ForkEvent: PackedTrace._pack_fork,
    JoinEvent: PackedTrace._pack_join,
    FaultEvent: PackedTrace._pack_fault,
}

#: Indexed by opcode.
_UNPACKERS = (
    PackedTrace._event_invoke, PackedTrace._event_return,
    PackedTrace._event_alloc, PackedTrace._event_read,
    PackedTrace._event_write, PackedTrace._event_lock,
    PackedTrace._event_unlock, PackedTrace._event_blocked,
    PackedTrace._event_wait, PackedTrace._event_notify,
    PackedTrace._event_fork, PackedTrace._event_join,
    PackedTrace._event_fault,
)


class ColumnarRecorder:
    """A listener that packs the event stream straight into rows.

    The streaming analogue of :class:`~repro.trace.recorder.Recorder`:
    no intermediate event list is built.  ``interests`` defaults to None
    (record every event — seed-suite recording); pass the
    ``interest_union`` of an analysis-pass stack to record exactly the
    stream those passes consume, then sweep them over :attr:`packed`.
    Elision is membership-only, so scheduling points and labels do not
    depend on the interests.  When the recorder is an execution's only
    listener, the interpreter writes its data rows into :attr:`packed`
    itself and only synchronization events reach :attr:`on_event`.
    """

    def __init__(self, test_name: str = "", interests=None) -> None:
        self.interests = interests
        self.packed = PackedTrace(test_name=test_name)
        # Bind the packer directly: event delivery costs one dict hit.
        self.on_event = self.packed.append


__all__ = [
    "COLUMNS",
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
    "ROW",
]
