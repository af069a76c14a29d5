"""``collectObjects`` (Algorithm 1, lines 1-4).

The synthesizer materializes plan slots by re-running seed tests and
*suspending* execution just before a method invocation of interest, then
storing references to the receiver and arguments of that pending
invocation.  Suspension matters: the objects are captured in exactly the
state the seed test drove them to at that point, and the rest of the
seed test never runs (so it cannot disturb them).

In VM terms: drive the seed test's main thread event by event and stop
at the (ordinal+1)-th client-level InvokeEvent — receiver and arguments
are already evaluated and are carried on the event itself; the method
body has not executed.  Collection reads nothing but those InvokeEvents,
so it runs with every other data event elided (labels still burn, so
the VM ends in exactly the state a full emission leaves).

The VM state after collections c1..ck depends only on that sequence, so
tests whose sequences share a prefix need not re-run it: a
:class:`SeedTrie` keeps the VM after each shared prefix and extends a
clone of it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro._util.errors import SynthesisError
from repro.runtime.interp import client_body
from repro.runtime.values import ObjRef, Value
from repro.runtime.vm import Execution, ThreadStatus, VM
from repro.trace.events import InvokeEvent

#: Safety bound on collection runs.
MAX_COLLECT_STEPS = 100_000

#: A collection sequence: the ``(seed test, client-invocation ordinal)``
#: of each call, in collection order.
Key = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Capture:
    """Receiver and arguments of a suspended seed invocation."""

    receiver: ObjRef
    args: tuple[Value, ...]
    class_name: str
    method: str

    def arg_ref(self, index: int) -> ObjRef:
        value = self.args[index]
        if not isinstance(value, ObjRef):
            raise SynthesisError(
                f"argument {index} of collected {self.class_name}.{self.method} "
                f"is not an object (got {value!r})"
            )
        return value


class _Watcher:
    """Captures the ``ordinal``-th client invocation of a seed test.

    A module-level class, so a collection leaves no per-call class (a
    reference cycle) behind for the garbage collector.
    """

    interests = (InvokeEvent,)

    def __init__(self, ordinal: int) -> None:
        self.ordinal = ordinal
        self.count = 0
        self.capture: Capture | None = None

    def on_event(self, event) -> None:
        if event.from_client:
            if self.count == self.ordinal:
                self.capture = Capture(
                    receiver=ObjRef(event.receiver, event.class_name),
                    args=event.args,
                    class_name=event.class_name,
                    method=event.method,
                )
            self.count += 1


class SeedCollector:
    """Collects object references from partial seed-test executions.

    All collections share one VM, so objects captured from different
    runs coexist on one heap — that is what lets ``shareObjects``
    rearrange them into a single racy test.
    """

    def __init__(self, vm: VM) -> None:
        self._vm = vm

    def collect(self, test_name: str, ordinal: int) -> Capture:
        """Run ``test_name`` until just before its ``ordinal``-th client
        invocation and capture that invocation's receiver/arguments.

        Raises:
            SynthesisError: when the seed test ends or faults before the
                requested invocation is reached.
        """
        test = self._vm.table.program.test_decl(test_name)
        if test is None:
            raise SynthesisError(f"unknown seed test {test_name}")

        watcher = _Watcher(ordinal)
        env: dict[str, Value] = {}
        execution = Execution(self._vm, listeners=(watcher,))
        body = client_body(test)
        tid = execution.spawn(
            lambda ctx: self._vm.interp.run_client_stmts(body, ctx, env),
            name=f"collect:{test_name}#{ordinal}",
        )
        thread = execution.thread(tid)
        steps = 0
        with execution.elide():
            while watcher.capture is None and thread.status in (
                ThreadStatus.RUNNABLE,
                ThreadStatus.BLOCKED,
            ):
                if steps >= MAX_COLLECT_STEPS:
                    raise SynthesisError(
                        f"collection of {test_name}#{ordinal} exceeded step budget"
                    )
                execution.step(tid)
                steps += 1
        if watcher.capture is None:
            raise SynthesisError(
                f"seed test {test_name} ended before client invocation #{ordinal}"
                + (f" (thread {thread.status.value})" if thread.fault is None else
                   f" (fault: {thread.fault})")
            )
        # Suspend: the generator is simply abandoned here, leaving the
        # captured objects in their pre-invocation state.
        return watcher.capture


class SeedTrie:
    """Post-collection VMs of collection prefixes, shared across tests.

    The root is a fresh VM.  The node for a prefix holds the VM after
    collecting that prefix's calls in order, plus their captures.  A
    stored VM is frozen: :meth:`collect` extends a clone of the deepest
    stored prefix of its key, so every prefix is collected once while
    some test still needs it.  Captures stay valid in a clone, because
    :meth:`~repro.runtime.heap.Heap.clone` keeps every object reference.

    ``keys`` are the collection sequences of the tests still to come.
    A node is kept only while one of them extends it, so a trie built
    without keys stores nothing past its root.  A collection that raises
    is not stored: every test that shares the prefix re-runs it and
    raises the same error.
    """

    def __init__(self, root: VM, keys: Iterable[Key] = ()) -> None:
        self._nodes: dict[Key, tuple[VM, tuple[Capture, ...]]] = {(): (root, ())}
        self._pending = Counter(keys)
        self._uses = Counter(
            key[:depth]
            for key in self._pending.elements()
            for depth in range(1, len(key) + 1)
        )

    def collect(self, key: Key) -> tuple[VM, tuple[Capture, ...]]:
        """The VM after collecting ``key``'s calls in order, and their
        captures.  The caller must not run code on the returned VM, only
        on clones of it.

        Raises:
            SynthesisError: when a collection fails (see
                :meth:`SeedCollector.collect`).
        """
        depth = len(key)
        while key[:depth] not in self._nodes:
            depth -= 1
        vm, captures = self._nodes[key[:depth]]
        self._release(key)
        frozen = True
        while depth < len(key):
            if frozen:
                vm = vm.clone()
            captures = (*captures, SeedCollector(vm).collect(*key[depth]))
            depth += 1
            frozen = self._uses[key[:depth]] > 0
            if frozen:
                self._nodes[key[:depth]] = (vm, captures)
        return vm, captures

    def _release(self, key: Key) -> None:
        """Count one test of ``key`` as collected; drop the nodes that
        no test still to come extends.  The root is always kept."""
        if not self._pending[key]:
            return
        self._pending[key] -= 1
        for depth in range(1, len(key) + 1):
            prefix = key[:depth]
            self._uses[prefix] -= 1
            if not self._uses[prefix]:
                del self._uses[prefix]
                self._nodes.pop(prefix, None)
