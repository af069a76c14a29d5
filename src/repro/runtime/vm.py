"""The MiniJ virtual machine and its execution engine.

:class:`VM` owns the heap, the deterministic random stream, the global
trace-label counter and the interpreter.  :class:`Execution` owns a set
of threads, advances them one *event* at a time under a scheduler, and
dispatches every event to registered listeners (trace recorders, race
detectors, fuzzer probes).

A single VM can host several executions in sequence — exactly what the
synthesized tests need: run seed-test prefixes to collect objects, run
the context-setting calls, then run the racy methods from two threads,
all against one heap.

Hot-path architecture (see DESIGN.md, "Performance architecture"):

* **Pre-bound dispatch** — instead of walking the listener list and
  calling every ``on_event`` for every event, the Execution builds a
  per-event-class tuple of the bound callbacks that actually subscribe
  to that class (listeners may declare an ``interests`` tuple of event
  classes; no declaration means "everything").
* **Event elision** — while :meth:`Execution.run` or
  :meth:`Execution.run_single` drives the loop, the interpreter is told
  which event kinds have a subscriber and skips *constructing* the
  rest, yielding :data:`~repro.trace.events.SKIPPED_EVENT` after
  burning the label.  The schedule, labels, and every delivered event
  are bit-identical to an unfiltered run.  Manual :meth:`Execution.step`
  driving (the fuzzers inspect returned events) never elides.
* **Runnable cache** — the runnable-thread list is rebuilt only when
  some thread's status actually changes, in thread-creation order so
  seeded random schedules are unchanged.
"""

from __future__ import annotations

import enum
import sys
import random
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
from repro.runtime.interp import ForkRequest, Interpreter, ThreadContext
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


class VM:
    """A MiniJ virtual machine for one resolved program."""

    def __init__(self, table: ClassTable, seed: int = 0) -> None:
        self.table = table
        self.heap = Heap()
        self.rng = random.Random(seed)
        self._label = 0
        self._next_thread_id = 0
        self.interp = Interpreter(table, self.heap, self.rng, self.next_label)
        # Resuming a generator nested N MiniJ-frames deep traverses the
        # whole `yield from` chain; give the interpreter headroom so the
        # MiniJ stack-overflow check fires before Python's own.
        if sys.getrecursionlimit() < 20_000:
            sys.setrecursionlimit(20_000)

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
        copy.rng = random.Random()
        copy.rng.setstate(self.rng.getstate())
        copy._label = self._label
        copy._next_thread_id = self._next_thread_id
        copy.interp = self.interp.clone(copy.heap, copy.rng, copy.next_label)
        return copy

    def next_label(self) -> int:
        label = self._label
        self._label += 1
        return label

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
        return self.run_client_stmts(test.body.stmts, listeners, env, max_steps)

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

    Threads are added with :meth:`spawn`; each is a generator of events.
    :meth:`step` advances one thread by one event and dispatches it to
    the listeners; :meth:`run` drives scheduling until every thread is
    done, a deadlock is reached, or the step budget runs out.
    """

    def __init__(self, vm: VM, listeners: tuple[Listener, ...] = ()) -> None:
        self._vm = vm
        self._listeners = list(listeners)
        self._threads: dict[int, VMThread] = {}
        self._last_scheduled: int | None = None
        self.steps = 0
        # Per-event-class tuples of subscribed on_event callbacks.
        self._dispatch_map: dict[type, tuple[Callable[[Event], None], ...]] = {}
        # Runnable tids in thread-creation order; None = needs rebuild.
        self._runnable_cache: list[int] | None = None
        self._running = False
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

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)
        self._dispatch_map.clear()
        if self._running:
            self._vm.interp.set_emit_filter(self._wanted_kinds())

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
            thread.fault = fault
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
            # An elided event: label burned, scheduling point taken, but
            # nobody subscribed — nothing to dispatch.  Elided kinds are
            # never synchronization events, so the thread stays runnable.
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
        self._running = True
        interp.set_emit_filter(self._wanted_kinds())
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
            self._running = False
            interp.set_emit_filter(None)
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
        self._running = True
        interp.set_emit_filter(self._wanted_kinds())
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
            self._running = False
            interp.set_emit_filter(None)
        return thread

    # ------------------------------------------------------------------
    # Internals.

    def _wanted_kinds(self) -> set[type] | None:
        """Union of listener interests, or None when someone wants all."""
        wanted: set[type] = set()
        for listener in self._listeners:
            interests = getattr(listener, "interests", None)
            if interests is None:
                return None
            wanted.update(interests)
        return wanted

    def _bind(self, cls: type) -> tuple[Callable[[Event], None], ...]:
        """Build (and memoize) the subscriber tuple for one event class."""
        handlers = []
        for listener in self._listeners:
            interests = getattr(listener, "interests", None)
            if interests is None or any(
                issubclass(cls, interest) for interest in interests
            ):
                handlers.append(listener.on_event)
        bound = tuple(handlers)
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
