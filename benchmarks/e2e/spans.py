"""Layer spans recorded from outside the program.

A traced pass needs a per-layer breakdown of the same work the
end-to-end metrics time, without changing the program.  So the tracer
wraps each layer's public entry points in place: a method is patched on
its class, and a module-level function is patched in every loaded
``repro.*`` module that bound the same object (``load`` is bound by name
in the orchestrator, the cache, the pipeline and the corpus runner).
Each call becomes a span with a name, start, end and parent span, and a
few entry points also record counts read from the report they return.

Spans are kept in memory and appended to ``<span dir>/<pid>.jsonl``
whenever a root span (one with no open parent in its thread) ends.
Writing per root rather than at exit matters for the daemon's pool
workers: they are forked with the tracer installed, and the pool may
terminate them on close, so an exit hook would lose their spans.

Run as a script, this module starts a traced ``repro`` command::

    python benchmarks/e2e/spans.py SPAN_DIR serve --jobs 2 --socket PATH
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pathlib
import sys
import threading
import time
from collections import defaultdict


def _cache_get_counts(entry) -> dict:
    return {"hits": int(entry is not None)}


def _pairs_counts(candidates) -> dict:
    verdicts = getattr(candidates, "verdicts", ())
    return {
        "candidates": len(candidates),
        "pruned": sum(1 for v in verdicts if v.pruned),
    }


def _tests_counts(tests) -> dict:
    return {"tests": len(tests)}


def _fuzz_counts(report) -> dict:
    return {
        "runs": report.random_runs + report.directed_attempts,
        "trace_events": report.trace_events,
        "memo_hits": report.memo_hits,
        "memo_runs": report.memo_hits + report.memo_misses,
        "detected": len(report.detected),
        "reproduced": len(report.reproduced),
    }


_SERIAL_KINDS = (
    "analysis",
    "synthesis",
    "detection",
    "fuzz_bundle",
    "static_facts",
    "seed_traces",
    "test_bundle",
    "fault_ledger",
)

#: ``(span name, module, attribute, counts-from-result)`` for every
#: wrapped entry point.  ``Class.method`` attributes are patched on the
#: class; plain names are patched wherever a ``repro`` module bound them.
ENTRY_POINTS = (
    ("lang.load", "repro.lang", "load", None),
    ("cache.table_digest", "repro.narada.cache", "table_digest", None),
    ("cache.get", "repro.narada.cache", "ArtifactCache.get", _cache_get_counts),
    ("cache.put", "repro.narada.cache", "ArtifactCache.put", None),
    *(
        ("serial.encode", "repro.narada.serial", f"encode_{kind}", None)
        for kind in _SERIAL_KINDS
    ),
    *(
        ("serial.decode", "repro.narada.serial", f"decode_{kind}", None)
        for kind in _SERIAL_KINDS
    ),
    ("serial.report_digest", "repro.narada.serial", "report_digest", None),
    ("narada.run", "repro.narada.orchestrator", "PipelineOrchestrator.run", None),
    ("narada.run_seed_suite", "repro.narada.pipeline", "Narada.run_seed_suite", None),
    ("analysis.analyze_traces", "repro.analysis.analyzer", "analyze_traces", None),
    ("analysis.run_sweep", "repro.analysis.sweep", "run_sweep", None),
    ("static.analyze_program", "repro.static.facts", "analyze_program", None),
    ("pairs.generate_pairs", "repro.pairs.generator", "generate_pairs", _pairs_counts),
    ("context.derive_plans", "repro.context.deriver", "derive_plans", None),
    (
        "synth.synthesize",
        "repro.synth.synthesizer",
        "TestSynthesizer.synthesize",
        _tests_counts,
    ),
    ("synth.materialize", "repro.synth.synthesizer", "materialize", None),
    ("runtime.prepare", "repro.synth.runner", "TestRunner.prepare", None),
    ("runtime.finish", "repro.synth.runner", "TestRunner.finish", None),
    ("fuzz.fuzz", "repro.fuzz.racefuzzer", "RaceFuzzer.fuzz", _fuzz_counts),
    ("trace.compress_trace", "repro.trace.compressed", "compress_trace", None),
    ("corpus.score_outcome", "repro.corpus.runner", "score_outcome", None),
    (
        "daemon.handle_request",
        "repro.narada.daemon",
        "ReproDaemon.handle_request",
        None,
    ),
)


class Tracer:
    """Wraps the entry points and writes their spans under ``span_dir``."""

    def __init__(self, span_dir: str | pathlib.Path) -> None:
        self.span_dir = pathlib.Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self._ids = itertools.count(1)
        self._reset()
        # A forked pool worker inherits the open spans of the thread that
        # forked it; they never end in the child, so start it clean.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[dict] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, count=None):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "name": name,
                "pid": os.getpid(),
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["counts"] = count(result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self._finish(span, root=not stack)

        return traced

    def _finish(self, span: dict, root: bool) -> None:
        with self._lock:
            self._finished.append(span)
            if not root:
                return
            done, self._finished = self._finished, []
        path = self.span_dir / f"{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in done))

    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for _, module_name, _, _ in ENTRY_POINTS:
            importlib.import_module(module_name)
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for name, module_name, attr, count in ENTRY_POINTS:
            module = sys.modules[module_name]
            owner, _, fn_name = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, fn_name, self.wrap(name, cls.__dict__[fn_name], count))
                continue
            original = getattr(module, fn_name)
            traced = self.wrap(name, original, count)
            for bound in modules:
                for key, value in list(vars(bound).items()):
                    if value is original:
                        setattr(bound, key, traced)


def read_spans(span_dir: str | pathlib.Path) -> list[dict]:
    """Every span written under ``span_dir``."""
    spans = []
    for path in sorted(pathlib.Path(span_dir).glob("*.jsonl")):
        with open(path) as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[tuple, list[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(
                (span["start"], span["end"])
            )
    return [
        (span["end"] - span["start"])
        - _covered(
            span["start"], span["end"], children[(span["pid"], span["id"])]
        )
        for span in spans
    ]


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: ``calls``, total ``self_s`` and summed ``counts``."""
    summary: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "counts": defaultdict(int)}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = summary[span["name"]]
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] += value
    return summary


def main(argv: list[str]) -> int:
    """Install a tracer writing to ``argv[0]``, then run ``repro argv[1:]``."""
    Tracer(argv[0]).install()
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
