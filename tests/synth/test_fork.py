"""Forked runs of a materialized template equal fresh materializations.

The fuzzers materialize each synthesized test once and run every
schedule on a fork of that template (``MaterializedTest.fork``).  That
is sound because of the two properties pinned here: a forked run records
the same trace and ends with the same results as a run on a freshly
materialized VM, and running a fork leaves the template untouched.

Templates of one ``TemplateSource`` share seed collection through a
``SeedTrie``: each prefix of collection calls runs once, on a clone of
its parent prefix's VM.  The same two properties hold for them, and for
the trie's stored VMs.
"""

import copy
import dataclasses
import gc
import weakref

import pytest

from repro._util.errors import SynthesisError
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
from repro.runtime.interp import EMIT_EVENTS, Interpreter
from repro.static.filter import allocate_budgets, verdict_index
from repro.subjects import get_subject
from repro.synth import SeedCollector, TemplateSource, TestRunner, materialize
from repro.synth import collect as collect_module
from repro.synth import runner as runner_module
from repro.synth.synthesizer import collection_key
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
    """Forks of a template, and of a template built through a trie that
    every test of the subject shares, run as a fresh materialization."""
    table, tests = synthesized
    assert tests
    templates = TemplateSource(table, tests=tests)
    for test in tests:
        template = materialize(test, VM(table))
        shared = templates.template(test)()
        for label, make in _schedulers():
            fresh = _run(table, test, make())
            forked = _run(table, template, make())
            assert forked == fresh, (test.name, label)
            assert _run(table, shared, make()) == fresh, (test.name, label)


def _snapshot(mat):
    return (*_vm_snapshot(mat.vm), dict(mat.env))


def _vm_snapshot(vm):
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


def test_running_forks_leaves_every_trie_node_unchanged():
    spec = subject_specs(None)[0]
    table = load(spec.source)
    tests = Narada(table).synthesize_for_class(spec.target_class).tests
    templates = TemplateSource(table, tests=tests)
    nodes = templates._trie._nodes
    half = len(tests) // 2
    made = [templates.template(test)() for test in tests[:half]]
    before = {key: _vm_snapshot(vm) for key, (vm, _) in nodes.items()}
    assert len(before) > 1
    for template in made:
        for _, make in _schedulers():
            TestRunner(table).run(template, make())
    # Extending the stored prefixes clones them, too.
    made += [templates.template(test)() for test in tests[half:]]
    for key, snapshot in before.items():
        if key in nodes:
            assert _vm_snapshot(nodes[key][0]) == snapshot, key
    # Every test has collected: no node past the root is left.
    assert list(nodes) == [()]


@pytest.fixture
def collect_calls(monkeypatch):
    calls = []
    original = SeedCollector.collect

    def counting(self, test_name, ordinal):
        calls.append((test_name, ordinal))
        return original(self, test_name, ordinal)

    monkeypatch.setattr(SeedCollector, "collect", counting)
    return calls


#: Collect runs of the paper subjects of the benchmark's paper-fuzz
#: workload at two random runs: one per distinct prefix of the budgeted
#: tests' collection sequences.  Collecting every test from a fresh VM
#: took 184 for C1 and 576 in all.
PAPER_FUZZ_COLLECTS = {"C1": 55, "C3": 51, "C6": 151, "C7": 19, "C9": 15}


def test_detect_collects_each_prefix_once(collect_calls):
    counts = {}
    for subject in PAPER_FUZZ_COLLECTS:
        (spec,) = subject_specs([get_subject(subject)])
        narada = Narada(spec.source)
        report = narada.synthesize_for_class(spec.target_class)
        budgets = allocate_budgets(report.tests, verdict_index(report), 2)
        prefixes = {
            key[:depth]
            for key in (
                collection_key(test)
                for test in report.tests
                if budgets[test.name].runs
            )
            for depth in range(1, len(key) + 1)
        }
        before = len(collect_calls)
        narada.detect(report, random_runs=2, directed=False)
        counts[subject] = len(collect_calls) - before
        assert counts[subject] == len(prefixes), subject
    assert counts == PAPER_FUZZ_COLLECTS
    assert sum(counts.values()) == 291


def test_collection_elides_everything_but_invocations(monkeypatch):
    spec = subject_specs(None)[0]
    table = load(spec.source)
    tests = Narada(table).synthesize_for_class(spec.target_class).tests

    def collect_all(key):
        vm = VM(table)
        collector = SeedCollector(vm)
        captures = [collector.collect(*seed) for seed in key]
        return _vm_snapshot(vm), captures

    keys = sorted({collection_key(test) for test in tests})
    elided = [collect_all(key) for key in keys]
    # Full emission: the interpreter ignores the collector's filter.
    requested = []
    real_set_emit = Interpreter.set_emit

    def full_emission(self, modes):
        requested.append(modes)
        real_set_emit(self, EMIT_EVENTS)

    monkeypatch.setattr(Interpreter, "set_emit", full_emission)
    full = [collect_all(key) for key in keys]
    # Invocations built, every other data kind skipped.
    assert (True, None, None, None, None) in requested
    assert elided == full


def _emits_everything(interp):
    return (
        interp._emit_invoke,
        interp._emit_return,
        interp._emit_alloc,
        interp._emit_read,
        interp._emit_write,
    ) == (True,) * 5


@pytest.mark.parametrize("budget", [collect_module.MAX_COLLECT_STEPS, 1])
def test_a_failed_collection_restores_the_emit_filter(monkeypatch, budget):
    table, test = _c1()
    monkeypatch.setattr(collect_module, "MAX_COLLECT_STEPS", budget)
    vm = VM(table)
    name, _ = collection_key(test)[0]
    with pytest.raises(SynthesisError):
        SeedCollector(vm).collect(name, 10_000)
    assert _emits_everything(vm.interp)


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
    broken = _broken(test, test.name)
    report = RaceFuzzer(table, random_runs=2).fuzz(broken)
    assert report.synthesis_failed
    assert report.random_runs == 0
    assert report.directed_attempts == 0
    assert "SynthesisError" in report.failure_trace
    assert not report.detected and report.trace_events == 0


def _broken(test, name):
    """``test`` renamed, with a right racy call no seed run reaches."""
    broken = copy.deepcopy(test)
    broken.name = name
    racy = broken.plan.right.racy_call
    racy.summary = dataclasses.replace(racy.summary, ordinal=10_000)
    return broken


def test_tests_sharing_a_broken_prefix_all_fail(collect_calls):
    table, test = _c1()
    first, second = _broken(test, "BrokenA"), _broken(test, "BrokenB")
    assert collection_key(first) == collection_key(second)
    assert collection_key(first)[:-1] == collection_key(test)[:-1]
    templates = TemplateSource(table, tests=[first, second, test])
    fuzzer = RaceFuzzer(table, random_runs=2)
    for broken in (first, second):
        report = fuzzer.fuzz(broken, templates=templates)
        assert report.synthesis_failed, broken.name
        assert report.random_runs == 0
        assert report.directed_attempts == 0
        assert "SynthesisError" in report.failure_trace
        assert not report.detected and report.trace_events == 0
    # The failed collection was stored for neither test: both ran it.
    assert collect_calls.count(collection_key(first)[-1]) == 2
    # The parent prefix survived both failures, and the test that
    # shares only it fuzzes as it does alone.
    before = len(collect_calls)
    shared = fuzzer.fuzz(test, templates=templates)
    assert collect_calls[before:] == [collection_key(test)[-1]]
    assert shared.to_dict() == RaceFuzzer(table, random_runs=2).fuzz(test).to_dict()


def test_vms_and_templates_die_without_the_cycle_collector(monkeypatch):
    table, test = _c1()
    made = []
    original = runner_module.materialize

    def keeping(test, vm):
        template = original(test, vm)
        made.append(weakref.ref(template))
        return template

    monkeypatch.setattr(runner_module, "materialize", keeping)
    enabled = gc.isenabled()
    gc.disable()
    try:
        vm = VM(table)
        vm.run_test(table.program.tests[0].name)
        clone = vm.clone()
        refs = [weakref.ref(x) for x in (vm, vm.interp, vm.heap, clone)]
        del vm, clone
        assert [ref() for ref in refs] == [None] * len(refs)
        RaceFuzzer(table, random_runs=2).fuzz(test)
        assert len(made) == 1 and made[0]() is None
    finally:
        if enabled:
            gc.enable()


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
