"""Forked runs of a materialized template equal fresh materializations.

The fuzzers materialize each synthesized test once and run every
schedule on a fork of that template (``MaterializedTest.fork``).  That
is sound because of the two properties pinned here: a forked run records
the same trace and ends with the same results as a run on a freshly
materialized VM, and running a fork leaves the template untouched.
"""

import copy
import dataclasses

import pytest

from repro.corpus import CorpusConfig
from repro.corpus.generator import generate_corpus
from repro.corpus.runner import corpus_specs
from repro.deadlock.fuzzer import DeadlockFuzzer
from repro.fuzz import RaceFuzzer
from repro.fuzz.chess import BoundedExplorer
from repro.fuzz.coverage import CoverageGuidedFuzzer
from repro.lang import load
from repro.narada import Narada, subject_specs
from repro.runtime import VM, RandomScheduler, RoundRobinScheduler
from repro.runtime.heap import Heap
from repro.synth import TestRunner, materialize
from repro.synth import runner as runner_module
from repro.trace.columnar import ColumnarRecorder

RANDOM_SEEDS = (0, 1, 2)
CORPUS_SLICE = 10


def _specs():
    specs = list(subject_specs())
    specs += corpus_specs(generate_corpus(CorpusConfig(seed=0, count=CORPUS_SLICE)))
    return specs


@pytest.fixture(scope="module", params=_specs(), ids=lambda spec: spec.name)
def synthesized(request):
    spec = request.param
    table = load(spec.source)
    tests = Narada(table).synthesize_for_class(spec.target_class).tests
    return table, tests


def _result_key(result):
    if result is None:
        return None
    return (
        result.steps,
        result.completed,
        result.deadlocked,
        result.timed_out,
        [(tid, fault.kind, str(fault)) for tid, fault in result.faults],
        result.blocked,
    )


def _run(table, test, scheduler):
    recorder = ColumnarRecorder(getattr(test, "name", ""))
    outcome = TestRunner(table, listeners=(recorder,)).run(test, scheduler)
    return (
        recorder.packed.digest(),
        len(recorder.packed),
        _result_key(outcome.setup_result),
        _result_key(outcome.concurrent_result),
        outcome.thread_ids,
    )


def _schedulers():
    for seed in RANDOM_SEEDS:
        yield f"random{seed}", lambda seed=seed: RandomScheduler(seed=seed)
    yield "round-robin", RoundRobinScheduler


def test_forked_runs_equal_fresh_runs(synthesized):
    table, tests = synthesized
    assert tests
    for test in tests:
        template = materialize(test, VM(table))
        for label, make in _schedulers():
            fresh = _run(table, test, make())
            forked = _run(table, template, make())
            assert forked == fresh, (test.name, label)


def _snapshot(mat):
    vm = mat.vm
    objects = [
        (
            obj.ref,
            obj.class_name,
            dict(obj.fields),
            None if obj.elements is None else list(obj.elements),
            obj.monitor.owner,
            obj.monitor.depth,
            sorted(obj.monitor.wait_set),
            obj.lib_allocated,
        )
        for obj in vm.heap.objects()
    ]
    return (
        objects,
        vm.heap._next_ref,
        vm.rng.getstate(),
        vm._label,
        vm._next_thread_id,
        vm.interp._next_call_index,
        dict(mat.env),
    )


def test_running_a_fork_leaves_the_template_unchanged():
    spec = subject_specs(None)[0]
    table = load(spec.source)
    tests = Narada(table).synthesize_for_class(spec.target_class).tests
    for test in tests[:5]:
        template = materialize(test, VM(table))
        before = _snapshot(template)
        for _, make in _schedulers():
            outcome = TestRunner(table).run(template, make())
            fork = outcome.materialized
            assert fork is not template and fork.vm is not template.vm
            # The run did advance the fork's state ...
            assert fork.vm._label > template.vm._label
            assert fork.vm._next_thread_id > template.vm._next_thread_id
            assert _snapshot(template) == before, test.name
        # ... and forking itself copies every counter exactly.
        assert _snapshot(template.fork()) == before


def test_heap_clone_shares_nothing_mutable():
    heap = Heap()
    obj = heap.alloc("Box", {"x": "int"})
    arr = heap.alloc("IntArray", {}, array_length=2, array_elem_kind="int")
    obj.monitor.acquire(7)
    obj.monitor.wait_set.add(3)
    clone = heap.clone()
    cloned_obj, cloned_arr = clone.get(obj.ref), clone.get(arr.ref)
    cloned_obj.fields["x"] = 5
    cloned_arr.elements[0] = 9
    cloned_obj.monitor.acquire(7)
    cloned_obj.monitor.wait_set.add(4)
    clone.alloc("Box", {"x": "int"})
    assert obj.fields["x"] == 0 and arr.elements == [0, 0]
    assert (obj.monitor.owner, obj.monitor.depth) == (7, 1)
    assert obj.monitor.wait_set == {3}
    assert len(heap) == 2 and len(clone) == 3
    assert heap.alloc("Box", {}).ref == clone.objects()[-1].ref


def test_collection_failure_still_marks_synthesis_failed():
    table, test = _c1()
    # Ask the collector for an invocation past the end of its seed test.
    broken = copy.deepcopy(test)
    racy = broken.plan.right.racy_call
    racy.summary = dataclasses.replace(racy.summary, ordinal=10_000)
    report = RaceFuzzer(table, random_runs=2).fuzz(broken)
    assert report.synthesis_failed
    assert report.random_runs == 0
    assert report.directed_attempts == 0
    assert "SynthesisError" in report.failure_trace
    assert not report.detected and report.trace_events == 0


@pytest.fixture
def materialize_calls(monkeypatch):
    calls = []
    original = runner_module.materialize

    def counting(test, vm):
        calls.append(test.name)
        return original(test, vm)

    monkeypatch.setattr(runner_module, "materialize", counting)
    return calls


def _c1():
    spec = subject_specs(None)[0]
    table = load(spec.source)
    return table, Narada(table).synthesize_for_class(spec.target_class).tests[0]


@pytest.mark.parametrize(
    "fuzz",
    [
        lambda table, test: RaceFuzzer(table, random_runs=3).fuzz(test),
        lambda table, test: DeadlockFuzzer(table, random_runs=3).fuzz(test),
        lambda table, test: BoundedExplorer(table, max_schedules=4).explore(test),
        lambda table, test: CoverageGuidedFuzzer(table, max_runs=4).fuzz(test),
    ],
    ids=["racefuzzer", "deadlock", "chess", "coverage"],
)
def test_each_fuzz_materializes_a_test_once(fuzz, materialize_calls):
    table, test = _c1()
    fuzz(table, test)
    assert materialize_calls == [test.name]


def test_a_test_that_never_runs_is_never_materialized(materialize_calls):
    table, test = _c1()
    report = RaceFuzzer(table, directed=False).fuzz(test, runs=0)
    assert report.random_runs == 0
    assert materialize_calls == []
