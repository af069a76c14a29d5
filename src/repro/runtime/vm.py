"""The MiniJ virtual machine and its execution engine.

:class:`VM` owns the heap, the deterministic random stream, the global
trace-label counter and the interpreter.  :class:`Execution` owns a set
of threads, advances them one *event* at a time under a scheduler, and
dispatches every event to registered listeners (trace recorders, race
detectors, fuzzer probes).  A MiniJ thread is the interpreter's
:class:`~repro.runtime.interp.FrameStack`: its frames live on the heap,
so running a VM needs no more Python stack at MiniJ call depth 64 than
at depth 1, and the VM leaves the process recursion limit alone.

A single VM can host several executions in sequence — exactly what the
synthesized tests need: run seed-test prefixes to collect objects, run
the context-setting calls, then run the racy methods from two threads,
all against one heap.

Hot-path architecture (see DESIGN.md, "Performance architecture"):

* **Pre-bound dispatch** — instead of walking the listener list and
  calling every ``on_event`` for every event, the Execution builds a
  per-event-class tuple of the bound callbacks that actually subscribe
  to that class (listeners may declare an ``interests`` tuple of event
  classes; no declaration means "everything").  Which listeners
  subscribe to a class, and what the interpreter emits, is worked out
  once per listener shape (:class:`_Plan`) and shared by every
  Execution with listeners of that shape.
* **Three-way emission** — while :meth:`Execution.run` or
  :meth:`Execution.run_single` drives the loop, or inside
  :meth:`Execution.elide`, each data kind (invoke, return, alloc, read,
  write) is built as an event only if some listener needs the object.
  A kind nobody subscribes to is skipped; when the only listener is a
  :class:`~repro.trace.columnar.ColumnarRecorder`, a kind it records is
  written as a row straight into its packed trace.  Either way the
  interpreter burns the label and returns
  :data:`~repro.trace.events.SKIPPED_EVENT`, which the Execution treats
  as a step with nothing to dispatch.  The schedule, labels, every
  delivered event and every recorded row are bit-identical to an
  unfiltered run.  Manual :meth:`Execution.step` driving builds every
  event unless the caller enters :meth:`Execution.elide`, as seed
  collection and the directed drives do.
* **Runnable cache** — the runnable-thread list is rebuilt only when
  some thread's status actually changes, in thread-creation order so
  seeded random schedules are unchanged.
"""

from __future__ import annotations

import enum
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

from repro._util.errors import (
    DeadlockError,
    MiniJRuntimeError,
    StaleExecutionError,
)
from repro.lang import ast
from repro.lang.classtable import ClassTable
from repro.runtime.heap import Heap
from repro.runtime.interp import (
    EMIT_EVENTS,
    EMIT_KINDS,
    ForkRequest,
    Interpreter,
    ThreadContext,
    client_body,
)
from repro.runtime.scheduler import Scheduler, SequentialScheduler
from repro.runtime.values import Value
from repro.trace.events import (
    SKIPPED_EVENT,
    BlockedEvent,
    Event,
    FaultEvent,
    ForkEvent,
    JoinEvent,
    UnlockEvent,
)

#: Default event budget per execution; prevents racy loops from hanging
#: the fuzzer.
DEFAULT_MAX_STEPS = 200_000


class Listener(Protocol):
    """Anything that observes the event stream of an execution.

    A listener may additionally declare an ``interests`` attribute — a
    tuple of event classes (base classes allowed) it wants delivered.
    Listeners without the attribute (or with ``interests = None``)
    receive every event.  Declaring interests lets the Execution skip
    both dispatch *and construction* of unobserved high-volume events,
    so only declare kinds the listener genuinely never reads.

    A listener with a ``packed`` attribute (a
    :class:`~repro.trace.columnar.PackedTrace`, as on
    :class:`~repro.trace.columnar.ColumnarRecorder`) records rows: when
    it is an execution's only listener, the interpreter writes the data
    kinds it subscribes to into ``packed`` while :meth:`Execution.run`,
    :meth:`Execution.run_single` or :meth:`Execution.elide` drives, and
    those events never reach ``on_event``.
    """

    def on_event(self, event: Event) -> None: ...  # pragma: no cover


class ThreadStatus(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    FAULTED = "faulted"


_RUNNABLE = ThreadStatus.RUNNABLE
_BLOCKED = ThreadStatus.BLOCKED


@dataclass
class VMThread:
    """Bookkeeping for one VM thread inside an Execution."""

    ctx: ThreadContext
    body: Iterator[Event]
    name: str
    status: ThreadStatus = ThreadStatus.RUNNABLE
    blocked_on: int | None = None
    fault: MiniJRuntimeError | None = None
    result: Value = None


@dataclass
class ExecutionResult:
    """Outcome of driving an execution to quiescence."""

    steps: int = 0
    completed: bool = False
    deadlocked: bool = False
    timed_out: bool = False
    faults: list[tuple[int, MiniJRuntimeError]] = field(default_factory=list)
    blocked: dict[int, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when every thread finished without fault or deadlock."""
        return self.completed and not self.faults and not self.deadlocked


class LabelCounter:
    """The global trace-label counter a VM shares with its interpreter.

    The interpreter holds the bound :meth:`take`, which refers to this
    counter only.  Handing it the VM's own bound method instead would
    tie the VM and its interpreter into a reference cycle that only the
    cyclic garbage collector frees.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def take(self) -> int:
        label = self.value
        self.value = label + 1
        return label


class VM:
    """A MiniJ virtual machine for one resolved program."""

    def __init__(self, table: ClassTable, seed: int = 0) -> None:
        self.table = table
        self.heap = Heap()
        self.rng = random.Random(seed)
        self._labels = LabelCounter()
        self._next_thread_id = 0
        self.interp = Interpreter(table, self.heap, self.rng, self._labels.take)

    def clone(self) -> "VM":
        """An exact copy of this VM that shares nothing mutable with it.

        The copy has its own heap (see :meth:`Heap.clone`), its own
        random stream in the same state, the same label and thread-id
        counters, and a new interpreter that continues the call
        numbering.  Code run on the copy behaves exactly as it would on
        this VM, and leaves this VM untouched.
        """
        copy = VM.__new__(VM)
        copy.table = self.table
        copy.heap = self.heap.clone()
        # Random() would seed itself from os.urandom before setstate
        # overwrote that seed; __new__ skips the wasted seeding.
        copy.rng = random.Random.__new__(random.Random)
        copy.rng.setstate(self.rng.getstate())
        copy._labels = LabelCounter(self._labels.value)
        copy._next_thread_id = self._next_thread_id
        copy.interp = self.interp.clone(copy.heap, copy.rng, copy._labels.take)
        return copy

    @property
    def _label(self) -> int:
        """The label the next event will carry."""
        return self._labels.value

    def next_label(self) -> int:
        return self._labels.take()

    def new_thread_ctx(self) -> ThreadContext:
        ctx = ThreadContext(thread_id=self._next_thread_id)
        self._next_thread_id += 1
        return ctx

    # ------------------------------------------------------------------
    # Convenience entry points.

    def run_test(
        self,
        test_name: str,
        listeners: tuple[Listener, ...] = (),
        env: dict[str, Value] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> tuple[ExecutionResult, dict[str, Value]]:
        """Run a named sequential test to completion.

        Returns the execution result and the final client environment
        (test variables -> values).
        """
        test = self.table.program.test_decl(test_name)
        if test is None:
            raise MiniJRuntimeError("no-such-test", test_name)
        return self.run_client_stmts(client_body(test), listeners, env, max_steps)

    def run_client_stmts(
        self,
        stmts: list[ast.Stmt],
        listeners: tuple[Listener, ...] = (),
        env: dict[str, Value] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> tuple[ExecutionResult, dict[str, Value]]:
        """Run client statements sequentially in a fresh thread."""
        client_env: dict[str, Value] = {} if env is None else env
        execution = Execution(self, listeners=listeners)
        execution.spawn(
            lambda ctx: self.interp.run_client_stmts(stmts, ctx, client_env),
            name="main",
        )
        result = execution.run(SequentialScheduler(), max_steps=max_steps)
        return result, client_env


class Execution:
    """A set of VM threads advanced under a scheduler.

    Threads are added with :meth:`spawn`; each is an iterator of events,
    for MiniJ code a :class:`~repro.runtime.interp.FrameStack`.
    :meth:`step` advances one thread by one event and dispatches it to
    the listeners; :meth:`run` drives scheduling until every thread is
    done, a deadlock is reached, or the step budget runs out.
    """

    def __init__(self, vm: VM, listeners: tuple[Listener, ...] = ()) -> None:
        self._vm = vm
        self._listeners = listeners = tuple(listeners)
        self._plan = plan = _plan_of(listeners)
        # The interpreter's emission modes while this execution drives.
        self._emit = plan.modes(listeners)
        self._threads: dict[int, VMThread] = {}
        self._last_scheduled: int | None = None
        self.steps = 0
        # Per-event-class tuples of subscribed on_event callbacks.
        self._dispatch_map: dict[type, tuple[Callable[[Event], None], ...]] = {}
        # Runnable tids in thread-creation order; None = needs rebuild.
        self._runnable_cache: list[int] | None = None
        self._quiescent = False

    # ------------------------------------------------------------------
    # Thread management.

    def spawn(
        self,
        make_body: Callable[[ThreadContext], Iterator[Event]],
        name: str = "",
        parent: int | None = None,
    ) -> int:
        """Create a thread whose body is built from its ThreadContext.

        When ``parent`` is given, a ForkEvent (a happens-before edge for
        the detectors) is dispatched on the parent's behalf.

        Raises:
            StaleExecutionError: when the execution already ran to
                quiescence; a new thread could never be scheduled.
        """
        if self._quiescent:
            raise StaleExecutionError(
                "spawn() on an Execution that already ran to quiescence; "
                "create a new Execution on the same VM instead"
            )
        ctx = self._vm.new_thread_ctx()
        thread = VMThread(ctx=ctx, body=make_body(ctx), name=name or f"t{ctx.thread_id}")
        self._threads[ctx.thread_id] = thread
        self._runnable_cache = None
        if parent is not None:
            self._dispatch(
                ForkEvent(
                    label=self._vm.next_label(),
                    thread_id=parent,
                    node_id=-1,
                    call_index=0,
                    child_thread=ctx.thread_id,
                )
            )
        return ctx.thread_id

    def emit_join(self, parent: int, child: int) -> None:
        """Dispatch a JoinEvent: ``parent`` observed ``child`` finishing."""
        self._dispatch(
            JoinEvent(
                label=self._vm.next_label(),
                thread_id=parent,
                node_id=-1,
                call_index=0,
                child_thread=child,
            )
        )

    def thread(self, tid: int) -> VMThread:
        return self._threads[tid]

    def thread_ids(self) -> list[int]:
        return list(self._threads)

    def runnable_threads(self) -> list[int]:
        """Runnable thread ids in creation order.

        The returned list is cached until some thread changes status;
        callers must not mutate it.
        """
        cache = self._runnable_cache
        if cache is None:
            cache = self._runnable_cache = [
                tid
                for tid, thread in self._threads.items()
                if thread.status is _RUNNABLE
            ]
        return cache

    def live_threads(self) -> list[int]:
        return [
            tid
            for tid, thread in self._threads.items()
            if thread.status in (ThreadStatus.RUNNABLE, ThreadStatus.BLOCKED)
        ]

    # ------------------------------------------------------------------
    # Stepping.

    def step(self, tid: int) -> Event | None:
        """Advance thread ``tid`` by one event.

        Returns the event, or None when the thread just finished.
        Faults are converted into FaultEvents and terminate the thread,
        force-releasing its monitors so peers do not hang forever
        (mirroring monitor release during Java exception unwinding).
        """
        thread = self._threads[tid]
        prev_status = thread.status
        if prev_status is not _RUNNABLE and prev_status is not _BLOCKED:
            raise AssertionError(f"stepping {prev_status.value} thread {tid}")
        self.steps += 1
        self._last_scheduled = tid
        try:
            event = next(thread.body)
        except StopIteration as stop:
            thread.status = ThreadStatus.DONE
            thread.result = stop.value
            self._runnable_cache = None
            return None
        except MiniJRuntimeError as fault:
            thread.status = ThreadStatus.FAULTED
            # Kept without its traceback, whose frames (this one among
            # them) would tie the execution into a reference cycle.
            thread.fault = fault.with_traceback(None)
            self._runnable_cache = None
            self._force_release_monitors(thread)
            fault_event = FaultEvent(
                label=self._vm.next_label(),
                thread_id=tid,
                node_id=-1,
                call_index=0,
                kind=fault.kind,
                message=str(fault),
            )
            self._dispatch(fault_event)
            return fault_event

        if event is SKIPPED_EVENT:
            # An elided event or a row written at the source: label
            # burned, scheduling point taken, nothing to dispatch.  Only
            # data kinds are elided, so the thread stays runnable.
            if prev_status is not _RUNNABLE:
                thread.status = _RUNNABLE
                thread.blocked_on = None
                self._runnable_cache = None
            return event

        cls = event.__class__
        if cls is ForkRequest:
            # Client-level `fork {}`: spawn the child (which dispatches
            # the real ForkEvent) and keep the parent runnable.
            self.spawn(
                lambda ctx: self._vm.interp.run_client_stmts(
                    event.stmts, ctx, event.env
                ),
                name=f"fork@{event.node_id}",
                parent=tid,
            )
            if prev_status is not _RUNNABLE:
                thread.status = _RUNNABLE
                thread.blocked_on = None
            return None

        if cls is BlockedEvent:
            thread.status = _BLOCKED
            thread.blocked_on = event.obj
            if prev_status is not _BLOCKED:
                self._runnable_cache = None
        elif prev_status is not _RUNNABLE:
            thread.status = _RUNNABLE
            thread.blocked_on = None
            self._runnable_cache = None
        handlers = self._dispatch_map.get(cls)
        if handlers is None:
            handlers = self._bind(cls)
        for handler in handlers:
            handler(event)
        if cls is UnlockEvent and event.reentrancy == 0:
            self._wake_waiters(event.obj)
        return event

    def run(
        self, scheduler: Scheduler, max_steps: int = DEFAULT_MAX_STEPS
    ) -> ExecutionResult:
        """Drive all threads under ``scheduler`` until quiescence."""
        result = ExecutionResult()
        interp = self._vm.interp
        step = self.step
        pick = scheduler.pick
        interp.set_emit(self._emit)
        try:
            while True:
                runnable = self.runnable_threads()
                if not runnable:
                    live = self.live_threads()
                    if live:
                        result.deadlocked = True
                        result.blocked = {
                            tid: self._threads[tid].blocked_on or -1 for tid in live
                        }
                    else:
                        result.completed = True
                    break
                if self.steps >= max_steps:
                    result.timed_out = True
                    break
                step(pick(runnable, self._last_scheduled))
        finally:
            interp.set_emit(EMIT_EVENTS)
        result.steps = self.steps
        result.faults = [
            (tid, thread.fault)
            for tid, thread in self._threads.items()
            if thread.fault is not None
        ]
        if result.completed:
            self._quiescent = True
        return result

    def run_single(self, tid: int, max_steps: int = DEFAULT_MAX_STEPS) -> VMThread:
        """Drive one thread to completion (sequential phases).

        Raises:
            DeadlockError: if the thread blocks with nobody to unblock it.
        """
        thread = self._threads[tid]
        interp = self._vm.interp
        interp.set_emit(self._emit)
        try:
            steps = 0
            while thread.status in (ThreadStatus.RUNNABLE, ThreadStatus.BLOCKED):
                if thread.status is ThreadStatus.BLOCKED:
                    raise DeadlockError({tid: thread.blocked_on or -1})
                if steps >= max_steps:
                    raise MiniJRuntimeError(
                        "step-budget", f"thread {tid} exceeded budget"
                    )
                self.step(tid)
                steps += 1
        finally:
            interp.set_emit(EMIT_EVENTS)
        return thread

    @contextmanager
    def elide(self):
        """Emit as :meth:`run` does while the caller drives :meth:`step`.

        Inside the block, kinds no listener subscribes to are skipped
        and a sole recorder's rows are written at the source, so
        :meth:`step` returns :data:`SKIPPED_EVENT` for them; a caller
        that needs an access reads it from the recorded trace.
        """
        interp = self._vm.interp
        interp.set_emit(self._emit)
        try:
            yield self
        finally:
            interp.set_emit(EMIT_EVENTS)

    # ------------------------------------------------------------------
    # Internals.

    def _bind(self, cls: type) -> tuple[Callable[[Event], None], ...]:
        """Build (and memoize) the subscriber tuple for one event class."""
        listeners = self._listeners
        bound = tuple(
            listeners[index].on_event for index in self._plan.subscribers(cls)
        )
        self._dispatch_map[cls] = bound
        return bound

    def _dispatch(self, event: Event) -> None:
        cls = event.__class__
        handlers = self._dispatch_map.get(cls)
        if handlers is None:
            handlers = self._bind(cls)
        for handler in handlers:
            handler(event)

    def _wake_waiters(self, obj_ref: int) -> None:
        for thread in self._threads.values():
            if thread.status is _BLOCKED and thread.blocked_on == obj_ref:
                thread.status = _RUNNABLE
                thread.blocked_on = None
                self._runnable_cache = None

    def _force_release_monitors(self, thread: VMThread) -> None:
        for obj_ref, count in list(thread.ctx.held.items()):
            obj = self._vm.heap.get(obj_ref)
            for _ in range(count):
                obj.monitor.release(thread.ctx.thread_id)
            self._wake_waiters(obj_ref)
        thread.ctx.held.clear()
        thread.ctx.locks_cache = None


#: The row writers of a ``packed`` trace, in :data:`EMIT_KINDS` order.
_ROW_WRITERS = ("invoke_row", "return_row", "alloc_row", "read_row", "write_row")


class _Plan:
    """What one shape of listener set asks of an execution.

    The shape is each listener's ``interests`` and whether the set is a
    single row-recording listener (see :class:`Listener`).  A plan
    holds, per data kind, whether the interpreter builds it (True),
    skips it (None) or writes it with the named row writer, and per
    event class which listeners (by position) subscribe.  Both are
    worked out once per shape.
    """

    __slots__ = ("interests", "sink", "emit", "_subscribers")

    def __init__(self, interests: tuple, sink: bool) -> None:
        self.interests = interests
        self.sink = sink
        self._subscribers: dict[type, tuple[int, ...]] = {}
        self.emit = tuple(
            None if not self.subscribers(kind) else writer if sink else True
            for kind, writer in zip(EMIT_KINDS, _ROW_WRITERS)
        )

    def subscribers(self, cls: type) -> tuple[int, ...]:
        """Positions of the listeners that receive events of ``cls``."""
        picked = self._subscribers.get(cls)
        if picked is None:
            picked = self._subscribers[cls] = tuple(
                index
                for index, interests in enumerate(self.interests)
                if interests is None
                or any(issubclass(cls, interest) for interest in interests)
            )
        return picked

    def modes(self, listeners: tuple) -> tuple:
        """The :meth:`Interpreter.set_emit` modes for ``listeners``:
        :attr:`emit` with each writer name bound to the recorder."""
        if not self.sink:
            return self.emit
        packed = listeners[0].packed
        return tuple(
            getattr(packed, mode) if mode.__class__ is str else mode
            for mode in self.emit
        )


#: Plans by listener shape.  Shapes come from the listener classes and
#: interest tuples the code defines, so the table stays small; a plan
#: is a function of its key, so sharing it across executions, tests and
#: threads changes only how often it is worked out.
_PLANS: dict[tuple, _Plan] = {}


def _plan_of(listeners: tuple) -> _Plan:
    interests = tuple(getattr(listener, "interests", None) for listener in listeners)
    sink = len(listeners) == 1 and hasattr(listeners[0], "packed")
    key = (interests, sink)
    try:
        plan = _PLANS.get(key)
    except TypeError:  # unhashable interests: a plan for this execution
        return _Plan(interests, sink)
    if plan is None:
        plan = _PLANS[key] = _Plan(interests, sink)
    return plan
