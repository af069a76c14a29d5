"""Properties tying the detectors to each other and to ground truth.

FastTrack is the epoch-compressed version of Djit+.  Flanagan & Freund's
guarantee is "at least one race per racy variable", not "every racy
pair": after reporting a write-write race FastTrack forgets the earlier
write epoch, so a later read may miss a pair Djit+ (full write vector
clocks) still sees.  The faithful properties are therefore:

* every race FastTrack reports, Djit+ reports too (site-pair subset),
* both agree on *which fields* are racy (variable-level equivalence),
* on synchronization-clean runs both report nothing.

The second half of this module checks those properties — plus an Eraser
lockset property — on *randomly generated* MiniJ programs against an
independent happens-before oracle implemented directly over the recorded
trace (an O(n²) all-pairs vector-clock check that shares no code with
the optimized detectors).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import interest_union, run_sweep
from repro.detect import DjitDetector, EraserDetector, FastTrackDetector
from repro.lang import load
from repro.runtime import Execution, RandomScheduler, VM
from repro.trace import Recorder
from repro.trace.columnar import ColumnarRecorder
from repro.trace.events import (
    ForkEvent,
    JoinEvent,
    LockEvent,
    ReadEvent,
    UnlockEvent,
    WriteEvent,
)

SOURCE = """
class Cell {
  int a;
  int b;
  void writeA() { this.a = this.a + 1; }
  void readA() { int t = this.a; }
  synchronized void safeWriteA() { this.a = this.a + 1; }
  synchronized void safeReadA() { int t = this.a; }
  void writeB() { this.b = this.b + 1; }
  void mixed() { this.a = this.b; }
  synchronized void safeMixed() { this.b = this.a; }
}
test Seed { Cell c = new Cell(); }
"""

METHODS = [
    "writeA",
    "readA",
    "safeWriteA",
    "safeReadA",
    "writeB",
    "mixed",
    "safeMixed",
]

_table = load(SOURCE)


def run_with_detectors(thread_methods, seed):
    vm = VM(_table)
    _, env = vm.run_test("Seed")
    receiver = env["c"]
    fasttrack = FastTrackDetector()
    djit = DjitDetector()
    recorder = ColumnarRecorder(interests=interest_union((fasttrack, djit)))
    execution = Execution(vm, listeners=(recorder,))
    for methods in thread_methods:
        def body(ctx, methods=methods):
            for method in methods:
                yield from vm.interp.call_method(ctx, receiver, method, [])

        execution.spawn(body)
    execution.run(RandomScheduler(seed))
    run_sweep((fasttrack, djit), recorder.packed)
    return fasttrack, djit


@st.composite
def thread_workloads(draw):
    n_threads = draw(st.integers(min_value=2, max_value=3))
    return [
        draw(st.lists(st.sampled_from(METHODS), min_size=1, max_size=4))
        for _ in range(n_threads)
    ]


class TestFastTrackMatchesDjit:
    @given(thread_workloads(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_fasttrack_races_are_djit_races(self, workloads, seed):
        fasttrack, djit = run_with_detectors(workloads, seed)
        assert fasttrack.races.static_keys() <= djit.races.static_keys()

    @given(thread_workloads(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_same_racy_fields(self, workloads, seed):
        fasttrack, djit = run_with_detectors(workloads, seed)
        ft_fields = {key[:2] for key in fasttrack.races.static_keys()}
        dj_fields = {key[:2] for key in djit.races.static_keys()}
        assert ft_fields == dj_fields

    @given(thread_workloads(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_fully_synchronized_runs_are_race_free(self, workloads, seed):
        safe_only = [
            [m for m in methods if m.startswith("safe")] or ["safeReadA"]
            for methods in workloads
        ]
        fasttrack, djit = run_with_detectors(safe_only, seed)
        assert len(fasttrack.races) == 0
        assert len(djit.races) == 0


# ======================================================================
# Random programs vs. an independent happens-before ground truth.
#
# The generator keeps each field's locking discipline *consistent*:
# every method touching a "locked" field is synchronized, every method
# touching a "free" field holds no locks.  Consistency matters for the
# Eraser property — under mixed discipline the lockset algorithm has
# well-known false negatives that no superset claim survives.


def hb_oracle(trace):
    """All-pairs vector-clock happens-before oracle over a raw trace.

    Returns ``(racy_fields, ww_racy_fields, racy_pairs)`` where fields
    are ``(class_name, field_name)``, ``ww_racy_fields`` is the subset
    with an unordered cross-thread write-write pair, and ``racy_pairs``
    are ``(class_name, field_name, sorted site pair)`` keys for *every*
    unordered conflicting access pair — deliberately exhaustive where
    the online detectors only compare against last accesses.
    """
    clocks: dict[int, dict[int, int]] = {}
    lock_clocks: dict[int, dict[int, int]] = {}
    history: dict[tuple, list] = {}
    racy_fields, ww_racy_fields, racy_pairs = set(), set(), set()

    def clock(tid):
        vc = clocks.get(tid)
        if vc is None:
            vc = clocks[tid] = {tid: 1}
        return vc

    def join(into, other):
        for tid, time in other.items():
            if time > into.get(tid, 0):
                into[tid] = time

    for event in trace.events:
        kind = event.__class__
        tid = event.thread_id
        if kind is LockEvent:
            released = lock_clocks.get(event.obj)
            if released is not None:
                join(clock(tid), released)
        elif kind is UnlockEvent:
            vc = clock(tid)
            lock_clocks[event.obj] = dict(vc)
            vc[tid] += 1
        elif kind is ForkEvent:
            parent = clock(tid)
            join(clock(event.child_thread), parent)
            parent[tid] += 1
        elif kind is JoinEvent:
            child = clock(event.child_thread)
            join(clock(tid), child)
            child[event.child_thread] += 1
        elif kind is ReadEvent or kind is WriteEvent:
            vc = clock(tid)
            is_write = kind is WriteEvent
            address = event.address()
            for prior_tid, prior_time, prior_write, prior_event in history.get(
                address, ()
            ):
                if prior_tid == tid or not (is_write or prior_write):
                    continue
                if prior_time <= vc.get(prior_tid, 0):
                    continue  # ordered: prior happens-before this access
                field = (event.class_name, event.field_name)
                racy_fields.add(field)
                if is_write and prior_write:
                    ww_racy_fields.add(field)
                sites = tuple(sorted((prior_event.node_id, event.node_id)))
                racy_pairs.add((*field, sites))
            history.setdefault(address, []).append(
                (tid, vc[tid], is_write, event)
            )
    return racy_fields, ww_racy_fields, racy_pairs


@st.composite
def random_programs(draw):
    """A random MiniJ class with per-field consistent lock discipline."""
    n_fields = draw(st.integers(min_value=1, max_value=3))
    disciplines = [draw(st.booleans()) for _ in range(n_fields)]  # True=locked
    methods = []
    method_names = []
    for index, locked in enumerate(disciplines):
        keyword = "synchronized " if locked else ""
        for op, body in (
            ("w", f"this.f{index} = this.f{index} + 1;"),
            ("r", f"int t = this.f{index};"),
        ):
            if not draw(st.booleans()) and len(method_names) > 0:
                continue  # drop some methods so programs vary in shape
            name = f"{op}{index}"
            methods.append(f"  {keyword}void {name}() {{ {body} }}")
            method_names.append(name)
    fields = "\n".join(f"  int f{i};" for i in range(n_fields))
    source = (
        "class Subject {\n"
        + fields + "\n"
        + "\n".join(methods) + "\n"
        + "}\n"
        + "test Seed { Subject s = new Subject(); }\n"
    )
    n_threads = draw(st.integers(min_value=2, max_value=3))
    workloads = [
        draw(st.lists(st.sampled_from(method_names), min_size=1, max_size=5))
        for _ in range(n_threads)
    ]
    seed = draw(st.integers(min_value=0, max_value=100_000))
    return source, workloads, seed


def run_random_program(source, workloads, seed):
    table = load(source)
    vm = VM(table)
    _, env = vm.run_test("Seed")
    receiver = env["s"]
    recorder = Recorder()
    detectors = (FastTrackDetector(), DjitDetector(), EraserDetector())
    columnar = ColumnarRecorder(interests=interest_union(detectors))
    execution = Execution(vm, listeners=(recorder, columnar))
    for methods in workloads:
        def body(ctx, methods=methods):
            for method in methods:
                yield from vm.interp.call_method(ctx, receiver, method, [])

        execution.spawn(body)
    result = execution.run(RandomScheduler(seed))
    assert result.completed
    run_sweep(detectors, columnar.packed)
    return (recorder.trace, *detectors)


def _fields(race_set):
    return {key[:2] for key in race_set.static_keys()}


class TestRandomProgramsAgainstOracle:
    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_hb_detectors_match_oracle_fields(self, case):
        source, workloads, seed = case
        trace, fasttrack, djit, _ = run_random_program(source, workloads, seed)
        oracle_fields, _, _ = hb_oracle(trace)
        assert _fields(fasttrack.races) == oracle_fields
        assert _fields(djit.races) == oracle_fields

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_pair_subset_chain(self, case):
        """FastTrack pairs ⊆ Djit+ pairs ⊆ oracle (all unordered) pairs."""
        source, workloads, seed = case
        trace, fasttrack, djit, _ = run_random_program(source, workloads, seed)
        _, _, oracle_pairs = hb_oracle(trace)
        assert fasttrack.races.static_keys() <= djit.races.static_keys()
        assert djit.races.static_keys() <= oracle_pairs

    @given(random_programs())
    @settings(max_examples=60, deadline=None)
    def test_eraser_covers_write_write_races(self, case):
        """Under consistent discipline Eraser sees every ww-racy field.

        The superset is stated over *write-write* racy fields: Eraser's
        state machine deliberately stays silent in the read-shared state,
        so a single initializing write followed only by cross-thread
        reads (a genuine HB write-read race) is the algorithm's known
        false negative and excluded from the property.
        """
        source, workloads, seed = case
        trace, _, _, eraser = run_random_program(source, workloads, seed)
        _, ww_racy_fields, _ = hb_oracle(trace)
        assert ww_racy_fields <= _fields(eraser.races)
