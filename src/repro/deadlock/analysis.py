"""Lock-order analysis of sequential traces (deadlock-test synthesis).

The paper's authors' companion work — *Multithreaded test synthesis for
deadlock detection* (Samak & Ramanathan, OOPSLA 2014), cited as [22] —
applies the same recipe as Narada to deadlocks: analyze sequential
traces, find *nested lock acquisitions*, and synthesize tests whose two
threads acquire the same two objects' monitors in opposite orders.

This module extracts the per-invocation lock-order facts: for every
monitor acquisition performed while other monitors are held, a
:class:`LockEdge` recording the held and acquired locks as
client-relative access paths (the same ``I``-rooted paths the race
pipeline uses), plus their runtime classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.analyzer import _Segment
from repro.analysis.model import MethodSummary
from repro.analysis.paths import AccessPath, RECEIVER
from repro.analysis.sweep import run_sweep
from repro.runtime.values import ObjRef
from repro.trace.columnar import (
    OP_ALLOC,
    OP_FAULT,
    OP_INVOKE,
    OP_LOCK,
    OP_READ,
    OP_RETURN,
    OP_UNLOCK,
    OP_WRITE,
    PackedTrace,
)
from repro.trace.events import (
    AllocEvent,
    FaultEvent,
    InvokeEvent,
    LockEvent,
    ReadEvent,
    ReturnEvent,
    UnlockEvent,
    WriteEvent,
)


@dataclass(frozen=True)
class LockEdge:
    """One nested acquisition: ``acquired`` taken while ``held``.

    ``*_chain`` carries the runtime classes along each path (root object
    first, lock object last) for the context deriver.
    """

    held_path: AccessPath | None
    held_class: str
    acquired_path: AccessPath | None
    acquired_class: str
    held_site: int
    acquired_site: int
    held_chain: tuple[str, ...] | None = None
    acquired_chain: tuple[str, ...] | None = None

    def class_pair(self) -> tuple[str, str]:
        return (self.held_class, self.acquired_class)

    def describe(self) -> str:
        held = str(self.held_path) if self.held_path else "?"
        acquired = str(self.acquired_path) if self.acquired_path else "?"
        return (
            f"hold {self.held_class}({held}) -> "
            f"acquire {self.acquired_class}({acquired})"
        )


@dataclass
class LockOrderSummary:
    """Lock-order facts for one client invocation."""

    class_name: str
    method: str
    test_name: str
    ordinal: int
    is_constructor: bool
    arg_count: int = 0
    edges: list[LockEdge] = field(default_factory=list)

    def method_id(self) -> tuple[str, str]:
        return (self.class_name, self.method)


class LockOrderPass:
    """Lock-order extraction as a sweep-engine analysis pass.

    Holds the loop-carried state of the extraction (open segment,
    current summary, runtime-class map, held-lock stack).  Its one
    implementation consumes rich events through :meth:`on_event`; its
    row handlers rebuild each interesting row's event from the packed
    trace (lock-order analysis is a cold, per-seed-trace pass; faithful
    event reconstruction is gated by the golden-trace equivalence
    suite).  Call :meth:`finish` after the sweep to flush a trailing
    open summary.
    """

    name = "lockorder"

    interests = (InvokeEvent, AllocEvent, ReadEvent, WriteEvent, LockEvent,
                 UnlockEvent, ReturnEvent, FaultEvent)

    def __init__(self, test_name: str = "",
                 summaries: list[LockOrderSummary] | None = None) -> None:
        self.test_name = test_name
        self.summaries: list[LockOrderSummary] = (
            summaries if summaries is not None else []
        )
        self._segment: _Segment | None = None
        self._summary: LockOrderSummary | None = None
        self._classes: dict[int, str] = {}
        self._held: list[tuple[int, int]] = []  # (obj ref, acquire site)
        self._ordinal = 0

    def on_event(self, event) -> None:
        segment = self._segment
        summary = self._summary
        classes = self._classes
        if isinstance(event, InvokeEvent):
            classes[event.receiver] = event.class_name
            for arg in event.args:
                if isinstance(arg, ObjRef):
                    classes[arg.ref] = arg.class_name
            if event.from_client and segment is None:
                self._summary = LockOrderSummary(
                    class_name=event.class_name,
                    method=event.method,
                    test_name=self.test_name,
                    ordinal=self._ordinal,
                    is_constructor=event.is_constructor,
                    arg_count=len(event.args),
                )
                self._ordinal += 1
                self._segment = self._open_segment(event)
                self._held = []
            return
        if segment is None or summary is None:
            return
        if isinstance(event, AllocEvent):
            classes[event.ref] = event.class_name
            segment.controllable.setdefault(event.ref, not event.in_library)
        elif isinstance(event, (ReadEvent, WriteEvent)):
            classes[event.obj] = event.class_name
            if isinstance(event.value, ObjRef):
                classes[event.value.ref] = event.value.class_name
                segment.controllable.setdefault(
                    event.value.ref, segment.flag(event.obj)
                )
            segment.set_field(event.obj, event.field_name, event.value)
        elif isinstance(event, LockEvent):
            if event.reentrancy == 1:  # fresh acquisition only
                acquired_found = segment.src_with_classes(event.obj)
                for held_ref, held_site in self._held:
                    if held_ref == event.obj:
                        continue
                    held_found = segment.src_with_classes(held_ref)
                    summary.edges.append(
                        LockEdge(
                            held_path=held_found[0] if held_found else None,
                            held_class=classes.get(held_ref, "?"),
                            acquired_path=(
                                acquired_found[0] if acquired_found else None
                            ),
                            acquired_class=classes.get(event.obj, "?"),
                            held_site=held_site,
                            acquired_site=event.node_id,
                            held_chain=held_found[1] if held_found else None,
                            acquired_chain=(
                                acquired_found[1] if acquired_found else None
                            ),
                        )
                    )
                self._held.append((event.obj, event.node_id))
        elif isinstance(event, UnlockEvent):
            if event.reentrancy == 0:
                self._held = [
                    (ref, site) for ref, site in self._held if ref != event.obj
                ]
        elif isinstance(event, ReturnEvent):
            if event.to_client and event.returning_call_index == segment.call_index:
                self.summaries.append(summary)
                self._segment = None
                self._summary = None
        elif isinstance(event, FaultEvent):
            self.summaries.append(summary)
            self._segment = None
            self._summary = None

    def handlers(self, packed) -> dict:
        """One handler per interesting opcode: rebuild the row's event
        and feed it to :meth:`on_event` (see analysis/sweep.py)."""
        on_event, event_at = self.on_event, packed.event

        def handler(i: int) -> None:
            on_event(event_at(i))

        return {
            op: handler
            for op in (OP_INVOKE, OP_ALLOC, OP_READ, OP_WRITE, OP_LOCK,
                       OP_UNLOCK, OP_RETURN, OP_FAULT)
        }

    def finish(self) -> list[LockOrderSummary]:
        """Flush a trailing open summary; returns the summary list."""
        if self._summary is not None:
            self.summaries.append(self._summary)
            self._segment = None
            self._summary = None
        return self.summaries

    @staticmethod
    def _open_segment(event: InvokeEvent) -> _Segment:
        from repro.analysis.model import MethodSummary as _MS

        # A throwaway MethodSummary satisfies _Segment's interface; only
        # the shadow heap and src machinery are used here.
        dummy = _MS(
            test_name="",
            ordinal=0,
            class_name=event.class_name,
            method=event.method,
            is_constructor=event.is_constructor,
            receiver_ref=event.receiver,
            arg_refs=tuple(
                a.ref if isinstance(a, ObjRef) else None for a in event.args
            ),
        )
        segment = _Segment(summary=dummy, call_index=event.new_call_index)
        segment.roots[RECEIVER] = event.receiver
        segment.root_classes[RECEIVER] = event.class_name
        segment.controllable[event.receiver] = True
        for index, arg in enumerate(event.args, start=1):
            if isinstance(arg, ObjRef):
                segment.roots[index] = arg.ref
                segment.root_classes[index] = arg.class_name
                segment.controllable[arg.ref] = True
        return segment


class LockOrderAnalyzer:
    """Extracts :class:`LockOrderSummary` objects from seed traces.

    Thin accumulator over :class:`LockOrderPass` — one pass instance
    per trace (segment state, class map, and ordinals are per-trace),
    all appending into the shared ``summaries`` list.  Reuses the race
    pipeline's segment machinery (shadow field graph + ``src`` path
    resolution) so lock objects are named by the same client-relative
    paths the context deriver can set.
    """

    def __init__(self) -> None:
        self.summaries: list[LockOrderSummary] = []

    def analyze(self, trace: PackedTrace) -> list[LockOrderSummary]:
        lock_pass = LockOrderPass(
            test_name=trace.test_name, summaries=self.summaries
        )
        run_sweep((lock_pass,), trace)
        lock_pass.finish()
        return self.summaries

    def analyze_all(self, traces: list[PackedTrace]) -> list[LockOrderSummary]:
        for trace in traces:
            self.analyze(trace)
        return self.summaries


# Re-exported for typing convenience.
__all__ = [
    "LockEdge",
    "LockOrderAnalyzer",
    "LockOrderPass",
    "LockOrderSummary",
    "MethodSummary",
]
