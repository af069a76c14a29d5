"""Execution of synthesized multithreaded tests.

Materialization (seed collection + object sharing) is deterministic
given the VM seed, so a test can be replayed under many schedules while
keeping the racy thread bodies and target sites stable.  It is also the
costly part of preparing a run, because it re-executes seed-test
prefixes.  So a test is materialized once, as a *template*
(:meth:`TemplateSource.template`), and every run executes on a fork of
it (:meth:`MaterializedTest.fork`).  A fork's VM is an exact clone of
the template's, so a forked run executes exactly like a run on a freshly
materialized VM, and the template itself never runs.  The setup phase
runs on every run, with listeners attached.  The templates of one
source collect their seed calls through one
:class:`~repro.synth.collect.SeedTrie`, so a prefix that several tests
share is collected once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.lang.classtable import ClassTable
from repro.runtime.scheduler import Scheduler, SequentialScheduler
from repro.runtime.vm import VM, Execution, ExecutionResult, Listener
from repro.synth.collect import SeedTrie
from repro.synth.synthesizer import (
    MaterializedTest,
    SynthesizedTest,
    collection_key,
    materialize,
)

#: Step budget for the concurrent phase of one synthesized-test run.
RUN_MAX_STEPS = 100_000


@dataclass
class RunOutcome:
    """Result of one execution of a synthesized test."""

    test: SynthesizedTest
    materialized: MaterializedTest
    setup_result: ExecutionResult
    concurrent_result: ExecutionResult | None
    thread_ids: tuple[int, int] | None
    execution: Execution | None = None

    @property
    def clean(self) -> bool:
        return (
            self.setup_result.clean
            and self.concurrent_result is not None
            and self.concurrent_result.clean
        )


@dataclass
class PreparedRun:
    """A synthesized test with setup done and racy threads spawned.

    The concurrent execution has not advanced yet: callers either hand
    it to a scheduler (:meth:`TestRunner.finish`) or drive it step by
    step (the race-directed fuzzer).
    """

    materialized: MaterializedTest
    setup_result: ExecutionResult
    execution: Execution | None
    thread_ids: tuple[int, int] | None
    main_tid: int = -1

    @property
    def ok(self) -> bool:
        return self.execution is not None


@dataclass
class TestRunner:
    """Materializes and runs synthesized tests."""

    __test__ = False  # not a pytest test class despite the name

    table: ClassTable
    vm_seed: int = 0
    listeners: tuple[Listener, ...] = ()
    max_steps: int = RUN_MAX_STEPS
    observe_setup: bool = True
    """Whether listeners also see the sequential context-setting phase
    (they should: it establishes the pre-fork happens-before prefix)."""

    def run(
        self, test: SynthesizedTest | MaterializedTest, scheduler: Scheduler
    ) -> RunOutcome:
        """Run ``test`` once under ``scheduler`` (see :meth:`prepare`)."""
        return self.finish(self.prepare(test), scheduler)

    def prepare(self, test: SynthesizedTest | MaterializedTest) -> PreparedRun:
        """Bind ``test`` to a VM and run its setup phase.

        A :class:`SynthesizedTest` is materialized in a fresh VM seeded
        with ``vm_seed``.  A :class:`MaterializedTest` is a template: the
        run uses its fork, so the template is never mutated, and the
        template's own VM seed applies.
        """
        if isinstance(test, MaterializedTest):
            mat = test.fork()
        else:
            mat = materialize(test, VM(self.table, seed=self.vm_seed))
        vm = mat.vm
        listeners = self.listeners if self.observe_setup else ()
        # The setup phase extends mat.env in place (constructed objects
        # bind variables the racy thread bodies reference).
        setup_exec = Execution(vm, listeners=listeners)
        main_tid = setup_exec.spawn(
            lambda ctx: vm.interp.run_client_stmts(mat.setup_stmts, ctx, mat.env),
            name="setup",
        )
        setup_result = setup_exec.run(SequentialScheduler(), max_steps=self.max_steps)
        if not setup_result.clean:
            return PreparedRun(
                materialized=mat,
                setup_result=setup_result,
                execution=None,
                thread_ids=None,
            )

        concurrent = Execution(vm, listeners=self.listeners)
        tids = []
        for index, stmts in enumerate(mat.thread_stmts):
            tids.append(
                concurrent.spawn(
                    lambda ctx, stmts=stmts: vm.interp.run_client_stmts(
                        stmts, ctx, dict(mat.env)
                    ),
                    name=f"racer{index + 1}",
                    parent=main_tid,
                )
            )
        return PreparedRun(
            materialized=mat,
            setup_result=setup_result,
            execution=concurrent,
            thread_ids=(tids[0], tids[1]),
            main_tid=main_tid,
        )

    def finish(self, prepared: PreparedRun, scheduler: Scheduler) -> RunOutcome:
        """Drive a prepared run to quiescence under ``scheduler``."""
        mat = prepared.materialized
        if prepared.execution is None:
            return RunOutcome(
                test=mat.test,
                materialized=mat,
                setup_result=prepared.setup_result,
                concurrent_result=None,
                thread_ids=None,
            )
        result = prepared.execution.run(scheduler, max_steps=self.max_steps)
        assert prepared.thread_ids is not None
        for tid in prepared.thread_ids:
            prepared.execution.emit_join(prepared.main_tid, tid)
        return RunOutcome(
            test=mat.test,
            materialized=mat,
            setup_result=prepared.setup_result,
            concurrent_result=result,
            thread_ids=prepared.thread_ids,
            execution=prepared.execution,
        )


class TemplateSource:
    """Lazily materialized templates over one shared seed trie.

    One source serves one fuzz call, or one loop over a class's tests
    (``Narada.detect``), and is dropped with it.  ``tests`` are the
    tests that will ask for a template, in any order: the trie keeps a
    prefix's VM only while one of them still extends it.
    """

    def __init__(
        self,
        table: ClassTable,
        vm_seed: int = 0,
        tests: Iterable[SynthesizedTest] = (),
    ) -> None:
        self._trie = SeedTrie(
            VM(table, seed=vm_seed), [collection_key(test) for test in tests]
        )

    def template(self, test: SynthesizedTest) -> Callable[[], MaterializedTest]:
        """A callable that materializes ``test`` on its first call and
        returns the same template on every later call.

        The fuzzers pass the template to :meth:`TestRunner.run` or
        :meth:`TestRunner.prepare` for each run, so a test is
        materialized at most once per fuzz, and never if it never runs.
        A :class:`~repro._util.errors.SynthesisError` surfaces from the
        first call, which is where materializing for the first run
        raises it.
        """
        return functools.cache(lambda: materialize(test, self._trie))
