"""Soundness of the static pre-filter against the corpus oracle.

The hard requirement on the filter is *zero lost true races*: a pair
the oracle marks racy must never be discharged.  These tests sweep the
full default 200-subject corpus (cheap — analysis + pair generation
only, no fuzzing) and hypothesis-chosen template compositions, mapping
every pruned pair to the oracle's (field, method-pair) key space and
asserting the intersection is empty.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_traces
from repro.corpus import (
    CorpusConfig,
    compose_subject,
    generate_corpus,
    template_names,
)
from repro.lang import load
from repro.pairs import generate_pairs
from repro.runtime import VM
from repro.trace import ColumnarRecorder


def judged_pairs(subject):
    """Run stages 0-2b (seed, analysis, generate, judge) for a subject."""
    table = load(subject.source)
    traces = []
    for test in table.program.tests:
        vm = VM(table)
        recorder = ColumnarRecorder(test.name)
        vm.run_test(test.name, listeners=(recorder,))
        traces.append(recorder.packed)
    analysis = analyze_traces(traces)
    return generate_pairs(
        analysis, target_class=subject.class_name, table=table
    )


def pair_key(pair):
    methods = tuple(
        sorted((pair.first.method_id()[1], pair.second.method_id()[1]))
    )
    return (pair.field[1], methods)


def assert_no_oracle_race_pruned(subject):
    pairs = judged_pairs(subject)
    assert len(pairs.verdicts) == len(pairs)
    oracle = subject.verdict.race_keys()
    pruned = {
        pair_key(pair)
        for pair, verdict in zip(pairs, pairs.verdicts)
        if verdict.pruned
    }
    lost = pruned & oracle
    assert not lost, (
        f"{subject.key} ({'+'.join(subject.template_keys)}): "
        f"filter pruned oracle race(s) {sorted(lost)}"
    )
    return pairs


def test_default_corpus_never_prunes_an_oracle_race():
    subjects = generate_corpus(CorpusConfig())
    assert len(subjects) == 200
    total = pruned = 0
    for subject in subjects:
        pairs = assert_no_oracle_race_pruned(subject)
        total += len(pairs)
        pruned += pairs.pruned_count()
    # The corpus exists to exercise both halves of the verdict space:
    # a filter that prunes nothing (or everything) is broken.
    assert 0 < pruned < total


def test_alternate_seed_corpus_never_prunes_an_oracle_race():
    for subject in generate_corpus(CorpusConfig(seed=1234, count=50)):
        assert_no_oracle_race_pruned(subject)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(
        st.sampled_from(template_names()), min_size=1, max_size=4
    ),
    ordinal=st.integers(min_value=0, max_value=10_000),
)
def test_random_compositions_never_prune_an_oracle_race(keys, ordinal):
    subject = compose_subject(
        list(keys), class_name="Prop", key=f"H{ordinal}"
    )
    assert_no_oracle_race_pruned(subject)


def test_race_free_disciplines_are_fully_pruned():
    # Templates constructed to be race-free must be cleaned out
    # entirely: that is the filter earning its keep.
    for name in ("consistent_lock", "thread_local_receiver"):
        subject = compose_subject([name], class_name="Clean", key="S0")
        assert not subject.verdict.race_keys()
        pairs = judged_pairs(subject)
        assert pairs, f"{name}: no candidate pairs generated"
        assert pairs.pruned_count() == len(pairs), (
            f"{name}: expected all pairs pruned, got "
            f"{pairs.pruned_count()}/{len(pairs)}"
        )


def test_racy_disciplines_survive():
    for name in ("wrong_mutex", "unguarded_reader", "double_checked_init"):
        subject = compose_subject([name], class_name="Hot", key="S1")
        pairs = assert_no_oracle_race_pruned(subject)
        ranked = len(pairs) - pairs.pruned_count()
        assert ranked >= len(subject.verdict.race_keys())
