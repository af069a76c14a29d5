"""A fuzz pass leaves nothing to the cyclic garbage collector.

Reference counting frees what the pipeline drops as soon as it drops
it; only objects in a reference cycle wait for the cyclic collector,
whose collections then walk them while they live.  The pass below is
the paper subjects' detection run, under ``gc.DEBUG_SAVEALL``, which
keeps every object the collector finds unreachable in ``gc.garbage``.
"""

import gc
import types

import pytest

from repro.narada import PipelineConfig, PipelineOrchestrator
from repro.narada.orchestrator import subject_specs
from repro.subjects import get_subject

SUBJECTS = ("C1", "C3", "C6", "C7", "C9")


@pytest.fixture
def garbage():
    """``gc.garbage`` under ``gc.DEBUG_SAVEALL``, empty at the start."""
    gc.collect()
    flags = gc.get_debug()
    del gc.garbage[:]
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        yield gc.garbage
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]


def _is_ours(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return obj.__module__.startswith("repro.")
    return type(obj).__module__.startswith("repro.")


def test_a_paper_fuzz_pass_leaves_no_cycles(garbage):
    specs = subject_specs([get_subject(key) for key in SUBJECTS])
    config = PipelineConfig(random_runs=2)
    with PipelineOrchestrator(jobs=1, config=config) as orch:
        outcomes = orch.run(specs)
    assert all(o.detection is not None for o in outcomes)
    # Faulted runs are among them: their errors are kept without the
    # tracebacks that would pin the interpreter's frames.
    assert sum(r.faults for o in outcomes for r in o.detection.fuzz_reports)
    del orch, outcomes
    gc.collect()
    leaked = [
        obj
        for obj in garbage
        if isinstance(obj, (types.FrameType, types.TracebackType))
        or _is_ours(obj)
    ]
    assert leaked == []
