"""The VM heap: objects, fields, array storage, and monitors.

Each heap object owns a reentrant :class:`Monitor`, exactly like a Java
object.  Monitors have no wait/notify (MiniJ has none); blocking is
modelled by the scheduler parking threads that fail to acquire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util.errors import MiniJRuntimeError
from repro.runtime.values import ObjRef, Value, default_value


@dataclass(slots=True)
class Monitor:
    """A reentrant per-object monitor with a wait set.

    Attributes:
        owner: the owning thread id, or None when free.
        depth: reentrancy count (0 when free).
        wait_set: thread ids parked by ``wait()`` awaiting a notify.
    """

    owner: int | None = None
    depth: int = 0
    wait_set: set[int] = field(default_factory=set)

    def can_acquire(self, thread_id: int) -> bool:
        return self.owner is None or self.owner == thread_id

    def acquire(self, thread_id: int) -> int:
        """Acquire (or re-enter); returns the new reentrancy depth."""
        if not self.can_acquire(thread_id):
            raise AssertionError(
                f"thread {thread_id} acquiring monitor owned by {self.owner}"
            )
        self.owner = thread_id
        self.depth += 1
        return self.depth

    def release(self, thread_id: int) -> int:
        """Release one level; returns the remaining reentrancy depth."""
        if self.owner != thread_id or self.depth <= 0:
            raise AssertionError(
                f"thread {thread_id} releasing monitor owned by {self.owner}"
            )
        self.depth -= 1
        if self.depth == 0:
            self.owner = None
        return self.depth

    def clone(self) -> "Monitor":
        return Monitor(self.owner, self.depth, set(self.wait_set))


@dataclass(slots=True)
class HeapObject:
    """One object on the VM heap.

    ``fields`` maps field names to values for user-defined classes;
    ``elements`` is the backing store for the builtin array classes.
    ``lib_allocated`` records whether the object was created inside a
    library method (used by the controllability analysis).
    """

    ref: int
    class_name: str
    fields: dict[str, Value] = field(default_factory=dict)
    elements: list[Value] | None = None
    monitor: Monitor = field(default_factory=Monitor)
    lib_allocated: bool = False
    _handle: ObjRef | None = None

    def handle(self) -> ObjRef:
        """The (cached) immutable reference naming this object."""
        handle = self._handle
        if handle is None:
            handle = self._handle = ObjRef(self.ref, self.class_name)
        return handle

    def clone(self) -> "HeapObject":
        """A copy with its own field dict, element list and monitor."""
        elements = self.elements
        return HeapObject(
            self.ref,
            self.class_name,
            dict(self.fields),
            None if elements is None else list(elements),
            self.monitor.clone(),
            self.lib_allocated,
            self._handle,
        )


class Heap:
    """Allocation and lookup of heap objects."""

    def __init__(self) -> None:
        self._objects: dict[int, HeapObject] = {}
        self._next_ref = 1

    def __len__(self) -> int:
        return len(self._objects)

    def clone(self) -> "Heap":
        """An exact copy sharing no mutable state with this heap.

        Field values are immutable (ints, bools, None, :class:`ObjRef`),
        so copying each object's containers and monitor is a deep copy.
        """
        copy = Heap()
        copy._objects = {ref: obj.clone() for ref, obj in self._objects.items()}
        copy._next_ref = self._next_ref
        return copy

    def alloc(
        self,
        class_name: str,
        field_types: dict[str, str],
        lib_allocated: bool = False,
        array_length: int | None = None,
        array_elem_kind: str = "class",
    ) -> HeapObject:
        """Allocate an object with default-initialized storage.

        Args:
            class_name: runtime class of the new object.
            field_types: field name -> type kind ("int"/"bool"/"class"),
                used to pick default values.
            lib_allocated: True when allocation happened inside a library
                method (controllability: NC, Fig. 7 *alloc* rule).
            array_length: element count for builtin arrays.
            array_elem_kind: type kind of array elements.

        Raises:
            MiniJRuntimeError: on a negative array length.
        """
        ref = self._next_ref
        self._next_ref += 1
        elements: list[Value] | None = None
        if array_length is not None:
            if array_length < 0:
                raise MiniJRuntimeError(
                    "negative-array-size", f"new {class_name}({array_length})"
                )
            elements = [default_value(array_elem_kind)] * array_length
        obj = HeapObject(
            ref=ref,
            class_name=class_name,
            fields={name: default_value(kind) for name, kind in field_types.items()},
            elements=elements,
            lib_allocated=lib_allocated,
        )
        self._objects[ref] = obj
        return obj

    def get(self, ref: int) -> HeapObject:
        try:
            return self._objects[ref]
        except KeyError:
            raise MiniJRuntimeError("dangling-ref", f"object #{ref}") from None

    def deref(self, handle: ObjRef) -> HeapObject:
        return self.get(handle.ref)

    def objects(self) -> list[HeapObject]:
        return list(self._objects.values())
