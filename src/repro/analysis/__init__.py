"""Stage 1 of Narada: analysis of sequential execution traces (§3.1-3.2).

Also home of the sweep engine (:mod:`repro.analysis.sweep`) that runs
every packed-trace analysis pass — detectors, probes, coverage,
lock-order — in one walk over the trace's rows.
"""

from repro.analysis.analyzer import SequentialTraceAnalyzer, analyze_traces
from repro.analysis.sweep import (
    UnknownPassError,
    interest_union,
    memo_key,
    registered_passes,
    resolve_pass,
    run_sweep,
)
from repro.analysis.model import (
    AccessRecord,
    AnalysisResult,
    MethodSummary,
    WriteableEntry,
)
from repro.analysis.paths import (
    RECEIVER,
    RETURN,
    AccessPath,
    param_path,
    receiver_path,
    return_path,
)

__all__ = [
    "RECEIVER",
    "RETURN",
    "AccessPath",
    "AccessRecord",
    "AnalysisResult",
    "MethodSummary",
    "SequentialTraceAnalyzer",
    "UnknownPassError",
    "WriteableEntry",
    "analyze_traces",
    "interest_union",
    "memo_key",
    "param_path",
    "receiver_path",
    "registered_passes",
    "resolve_pass",
    "return_path",
    "run_sweep",
]
