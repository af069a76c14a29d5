"""Stable serialization of pipeline artifacts.

The orchestrator moves ``SynthesisReport``/``DetectionReport``/
``FuzzReport`` values across two boundaries — worker processes and the
persistent artifact cache — so every report needs a faithful, *canonical*
dict form:

* **faithful** — decoding an encoded report reconstructs an object
  graph equivalent to the original, including the sharing structure that
  matters: plans and tests referencing the same ``MethodSummary``/
  ``RacyPair`` objects, and ``ObjectSlot`` identity (two occurrences of
  one slot in a plan must decode to one object, because slot identity
  *is* the paper's object-sharing constraint).  A synthesis payload
  carries those objects itself.  Detection and fuzz payloads carry none:
  each fuzz report names its test, and ``decode_detection(data, tests)``
  and ``decode_fuzz_bundle(data, test)`` bind that name to the synthesis
  report's own test objects, so a decoded detection report shares its
  tests with its synthesis report just as a freshly computed one does.
* **canonical** — the same pipeline result serializes to the same bytes
  no matter which process produced it.  Process-local artifacts
  (``ObjectSlot.slot_id`` from a global counter, set iteration order)
  are normalized away: shared objects are interned into tables in
  first-use order and every set is emitted sorted.

The codec groups shared objects into five intern tables (summaries,
slots, pairs, plans, tests); references between encoded values are
indices into those tables.  Tables only ever reference *earlier* tables
(pairs -> summaries, plans -> pairs/slots, tests -> plans/pairs), so
decoding is a single pass in table order.

Decoded packed traces round-trip the intern indexes, so a restored
seed trace digests identically to the original — which keeps the sweep
engine's :func:`repro.analysis.sweep.memo_key` stable across cache
replays and worker boundaries.

A synthesis or detection cache entry is the payload plus its
:func:`report_digest` under ``digest``, computed when the entry is
written, so a cache hit never encodes a report again just to digest it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.analysis.model import AccessRecord, MethodSummary, WriteableEntry
from repro.analysis.paths import AccessPath
from repro.context.plan import (
    ObjectSlot,
    PlannedCall,
    SeedArg,
    SidePlan,
    SlotArg,
    TestPlan,
)
from repro.detect.report import AccessInfo, RaceRecord, RaceSet
from repro.pairs.generator import PairSide, RacyPair
from repro.runtime.values import ObjRef, Value
from repro.synth.synthesizer import SynthesizedTest

#: Bump when the encoding changes shape; cache keys include it so stale
#: artifacts from older encodings are never decoded.
SERIAL_VERSION = 7

#: Top-level keys that legitimately differ between identical runs (wall
#: clock); stripped before hashing for determinism comparisons.
VOLATILE_KEYS = ("seconds",)


# ----------------------------------------------------------------------
# Leaf encoders.


def encode_value(value: Value) -> Any:
    """MiniJ runtime value -> JSON value (ObjRef gets a tagged dict)."""
    if isinstance(value, ObjRef):
        return {"$objref": [value.ref, value.class_name]}
    return value


def decode_value(data: Any) -> Value:
    if isinstance(data, dict):
        ref, class_name = data["$objref"]
        return ObjRef(ref, class_name)
    return data


def encode_path(path: AccessPath | None) -> list | None:
    return None if path is None else [path.root, list(path.fields)]


def decode_path(data: list | None) -> AccessPath | None:
    return None if data is None else AccessPath(data[0], tuple(data[1]))


def _encode_access(access: AccessRecord) -> dict:
    return {
        "label": access.label,
        "node_id": access.node_id,
        "kind": access.kind,
        "class_name": access.class_name,
        "field_name": access.field_name,
        "access_path": encode_path(access.access_path),
        "owner_classes": (
            None if access.owner_classes is None else list(access.owner_classes)
        ),
        "unprotected": access.unprotected,
        "writeable": access.writeable,
        "in_constructor": access.in_constructor,
        "value_is_ref": access.value_is_ref,
    }


def _decode_access(data: dict) -> AccessRecord:
    return AccessRecord(
        label=data["label"],
        node_id=data["node_id"],
        kind=data["kind"],
        class_name=data["class_name"],
        field_name=data["field_name"],
        access_path=decode_path(data["access_path"]),
        owner_classes=(
            None
            if data["owner_classes"] is None
            else tuple(data["owner_classes"])
        ),
        unprotected=data["unprotected"],
        writeable=data["writeable"],
        in_constructor=data["in_constructor"],
        value_is_ref=data["value_is_ref"],
    )


def _path_sort_key(encoded: list | None) -> str:
    return json.dumps(encoded)


def _encode_summary(summary: MethodSummary) -> dict:
    projection = sorted(
        [label, bits[0], bits[1]]
        for label, bits in summary.access_projection.items()
    )
    d_entries = []
    for label in sorted(summary.summaries):
        pairs = sorted(
            (
                [encode_path(lhs), encode_path(rhs)]
                for lhs, rhs in summary.summaries[label]
            ),
            key=lambda item: (_path_sort_key(item[0]), _path_sort_key(item[1])),
        )
        d_entries.append([label, pairs])
    return {
        "test_name": summary.test_name,
        "ordinal": summary.ordinal,
        "class_name": summary.class_name,
        "method": summary.method,
        "is_constructor": summary.is_constructor,
        "receiver_ref": summary.receiver_ref,
        "arg_refs": list(summary.arg_refs),
        "arg_classes": list(summary.arg_classes),
        "return_class": summary.return_class,
        "invoke_label": summary.invoke_label,
        "accesses": [_encode_access(a) for a in summary.accesses],
        "writeables": [
            {
                "lhs": encode_path(w.lhs),
                "rhs": encode_path(w.rhs),
                "label": w.label,
                "via": w.via,
            }
            for w in summary.writeables
        ],
        "access_projection": projection,
        "summaries": d_entries,
        "faulted": summary.faulted,
    }


def _decode_summary(data: dict) -> MethodSummary:
    return MethodSummary(
        test_name=data["test_name"],
        ordinal=data["ordinal"],
        class_name=data["class_name"],
        method=data["method"],
        is_constructor=data["is_constructor"],
        receiver_ref=data["receiver_ref"],
        arg_refs=tuple(data["arg_refs"]),
        arg_classes=tuple(data["arg_classes"]),
        return_class=data["return_class"],
        invoke_label=data["invoke_label"],
        accesses=[_decode_access(a) for a in data["accesses"]],
        writeables=[
            WriteableEntry(
                lhs=decode_path(w["lhs"]),
                rhs=decode_path(w["rhs"]),
                label=w["label"],
                via=w["via"],
            )
            for w in data["writeables"]
        ],
        access_projection={
            label: (writeable, unprotected)
            for label, writeable, unprotected in data["access_projection"]
        },
        summaries={
            label: {
                (decode_path(lhs), decode_path(rhs)) for lhs, rhs in pairs
            }
            for label, pairs in data["summaries"]
        },
        faulted=data["faulted"],
    )


def _encode_static_key(key: tuple) -> list:
    class_name, field_name, sites = key
    return [class_name, field_name, list(sites)]


def _decode_static_key(data: list) -> tuple:
    return (data[0], data[1], tuple(data[2]))


# ----------------------------------------------------------------------
# The interning codec.


class Codec:
    """Encodes/decodes a report object graph with shared-object tables."""

    TABLE_KEYS = ("summaries", "slots", "pairs", "plans", "tests")

    def __init__(self) -> None:
        self._encoded: dict[str, list] = {key: [] for key in self.TABLE_KEYS}
        self._index: dict[str, dict[int, int]] = {
            key: {} for key in self.TABLE_KEYS
        }
        self._content_index: dict[str, dict[str, int]] = {
            key: {} for key in self.TABLE_KEYS
        }
        self._decoded: dict[str, list] = {}

    # -- encoding ------------------------------------------------------

    def _intern(self, table: str, obj: object, build) -> int:
        """Assign ``obj`` an index in ``table``, building its dict once.

        The slot is reserved before ``build`` runs so indices follow
        first-use order even when building recurses into other tables.
        """
        key = id(obj)
        existing = self._index[table].get(key)
        if existing is not None:
            return existing
        index = len(self._encoded[table])
        self._index[table][key] = index
        self._encoded[table].append(None)
        self._encoded[table][index] = build(obj)
        return index

    def _intern_by_content(self, table: str, obj: object, build) -> int:
        """Intern by *encoded content*, not object identity.

        Value-like objects (summaries, pairs) may be one shared object in
        a serially-produced graph but N equal copies after per-worker
        decode; keying the table on canonical content makes both shapes
        serialize to identical bytes.
        """
        key = id(obj)
        existing = self._index[table].get(key)
        if existing is not None:
            return existing
        data = build(obj)
        content = canonical_json(data)
        index = self._content_index[table].get(content)
        if index is None:
            index = len(self._encoded[table])
            self._encoded[table].append(data)
            self._content_index[table][content] = index
        self._index[table][key] = index
        return index

    def encode_summary(self, summary: MethodSummary) -> int:
        return self._intern_by_content("summaries", summary, _encode_summary)

    def encode_slot(self, slot: ObjectSlot) -> int:
        # Identity interning on purpose: two distinct slots with equal
        # content are still distinct objects in a plan (the sharing
        # constraint), and must stay distinct table entries.
        return self._intern(
            "slots",
            slot,
            lambda s: {
                "class_name": s.class_name,
                "origin": s.origin,
                "note": s.note,
            },
        )

    def _encode_side(self, side: PairSide) -> dict:
        return {
            "summary": self.encode_summary(side.summary),
            "access": _encode_access(side.access),
        }

    def encode_pair(self, pair: RacyPair) -> int:
        def build(p: RacyPair) -> dict:
            return {
                "first": self._encode_side(p.first),
                "second": self._encode_side(p.second),
                "field": list(p.field),
                "same_site": p.same_site,
                "site_pairs": sorted(list(sp) for sp in p.site_pairs),
            }

        return self._intern_by_content("pairs", pair, build)

    def _encode_call(self, call: PlannedCall) -> dict:
        args = []
        for arg in call.args:
            if isinstance(arg, SeedArg):
                args.append(["seed", arg.index])
            else:
                args.append(["slot", self.encode_slot(arg.slot)])
        return {
            "summary": self.encode_summary(call.summary),
            "receiver": (
                None if call.receiver is None else self.encode_slot(call.receiver)
            ),
            "args": args,
            "produces": (
                None if call.produces is None else self.encode_slot(call.produces)
            ),
        }

    def _encode_side_plan(self, side: SidePlan) -> dict:
        return {
            "side": self._encode_side(side.side),
            "setter_calls": [self._encode_call(c) for c in side.setter_calls],
            "racy_call": self._encode_call(side.racy_call),
            "shared_depth": side.shared_depth,
            "full_context": side.full_context,
        }

    def encode_plan(self, plan: TestPlan) -> int:
        def build(p: TestPlan) -> dict:
            return {
                "pair": self.encode_pair(p.pair),
                "left": self._encode_side_plan(p.left),
                "right": self._encode_side_plan(p.right),
                "shared_slot": (
                    None
                    if p.shared_slot is None
                    else self.encode_slot(p.shared_slot)
                ),
                "receivers_shared": p.receivers_shared,
            }

        return self._intern("plans", plan, build)

    def encode_test(self, test: SynthesizedTest) -> int:
        def build(t: SynthesizedTest) -> dict:
            return {
                "name": t.name,
                "plan": self.encode_plan(t.plan),
                "covered_pairs": [self.encode_pair(p) for p in t.covered_pairs],
            }

        return self._intern("tests", test, build)

    def tables(self) -> dict:
        """The shared-object tables, for embedding in the payload."""
        return {key: self._encoded[key] for key in self.TABLE_KEYS}

    # -- decoding ------------------------------------------------------

    @classmethod
    def from_tables(cls, payload: dict) -> "Codec":
        """Decode the intern tables of an encoded payload, in order."""
        tables = payload["tables"]
        codec = cls()
        codec._decoded["summaries"] = [
            _decode_summary(d) for d in tables.get("summaries", [])
        ]
        codec._decoded["slots"] = [
            ObjectSlot(
                class_name=d["class_name"], origin=d["origin"], note=d["note"]
            )
            for d in tables.get("slots", [])
        ]
        codec._decoded["pairs"] = [
            codec._decode_pair(d) for d in tables.get("pairs", [])
        ]
        codec._decoded["plans"] = [
            codec._decode_plan(d) for d in tables.get("plans", [])
        ]
        codec._decoded["tests"] = [
            codec._decode_test(d) for d in tables.get("tests", [])
        ]
        return codec

    def summary(self, index: int) -> MethodSummary:
        return self._decoded["summaries"][index]

    def slot(self, index: int | None) -> ObjectSlot | None:
        return None if index is None else self._decoded["slots"][index]

    def pair(self, index: int) -> RacyPair:
        return self._decoded["pairs"][index]

    def plan(self, index: int) -> TestPlan:
        return self._decoded["plans"][index]

    def test(self, index: int) -> SynthesizedTest:
        return self._decoded["tests"][index]

    def _decode_side(self, data: dict) -> PairSide:
        return PairSide(
            summary=self.summary(data["summary"]),
            access=_decode_access(data["access"]),
        )

    def _decode_pair(self, data: dict) -> RacyPair:
        return RacyPair(
            first=self._decode_side(data["first"]),
            second=self._decode_side(data["second"]),
            field=tuple(data["field"]),
            same_site=data["same_site"],
            site_pairs={tuple(sp) for sp in data["site_pairs"]},
        )

    def _decode_call(self, data: dict) -> PlannedCall:
        args: list = []
        for kind, value in data["args"]:
            if kind == "seed":
                args.append(SeedArg(value))
            else:
                args.append(SlotArg(self.slot(value)))
        return PlannedCall(
            summary=self.summary(data["summary"]),
            receiver=self.slot(data["receiver"]),
            args=args,
            produces=self.slot(data["produces"]),
        )

    def _decode_side_plan(self, data: dict) -> SidePlan:
        return SidePlan(
            side=self._decode_side(data["side"]),
            setter_calls=[self._decode_call(c) for c in data["setter_calls"]],
            racy_call=self._decode_call(data["racy_call"]),
            shared_depth=data["shared_depth"],
            full_context=data["full_context"],
        )

    def _decode_plan(self, data: dict) -> TestPlan:
        return TestPlan(
            pair=self.pair(data["pair"]),
            left=self._decode_side_plan(data["left"]),
            right=self._decode_side_plan(data["right"]),
            shared_slot=self.slot(data["shared_slot"]),
            receivers_shared=data["receivers_shared"],
        )

    def _decode_test(self, data: dict) -> SynthesizedTest:
        return SynthesizedTest(
            name=data["name"],
            plan=self.plan(data["plan"]),
            covered_pairs=[self.pair(i) for i in data["covered_pairs"]],
        )


# ----------------------------------------------------------------------
# Fuzz reports.  They carry no shared objects of their own: a report
# names its test, and decoding binds that name to a test object the
# caller already holds (its synthesis report's, or the one it fuzzed).


def _encode_access_info(info: AccessInfo) -> dict:
    return {
        "thread_id": info.thread_id,
        "node_id": info.node_id,
        "label": info.label,
        "kind": info.kind,
        "value": encode_value(info.value),
        "old_value": encode_value(info.old_value),
    }


def _decode_access_info(data: dict) -> AccessInfo:
    return AccessInfo(
        thread_id=data["thread_id"],
        node_id=data["node_id"],
        label=data["label"],
        kind=data["kind"],
        value=decode_value(data["value"]),
        old_value=decode_value(data["old_value"]),
    )


def _encode_race(record: RaceRecord) -> dict:
    return {
        "detector": record.detector,
        "class_name": record.class_name,
        "field_name": record.field_name,
        "address": list(record.address),
        "first": _encode_access_info(record.first),
        "second": _encode_access_info(record.second),
    }


def _decode_race(data: dict) -> RaceRecord:
    return RaceRecord(
        detector=data["detector"],
        class_name=data["class_name"],
        field_name=data["field_name"],
        address=tuple(data["address"]),
        first=_decode_access_info(data["first"]),
        second=_decode_access_info(data["second"]),
    )


def _encode_fuzz_report(report) -> dict:
    return {
        "test": report.test.name,
        "detected": {
            "races": [_encode_race(record) for record in report.detected],
            "dynamic_count": report.detected.dynamic_count,
        },
        "reproduced": sorted(
            (_encode_static_key(k) for k in report.reproduced),
            key=json.dumps,
        ),
        "confirmed_raw": sorted(
            (_encode_static_key(k) for k in report.confirmed_raw),
            key=json.dumps,
        ),
        "random_runs": report.random_runs,
        "directed_attempts": report.directed_attempts,
        "deadlocks": report.deadlocks,
        "faults": report.faults,
        "timeouts": report.timeouts,
        "synthesis_failed": report.synthesis_failed,
        "constant_sites": sorted(report.constant_sites),
        "trace_events": report.trace_events,
        "packed_bytes": report.packed_bytes,
        "memo_hits": report.memo_hits,
        "memo_misses": report.memo_misses,
        "budget_runs": report.budget_runs,
        "rank_score": report.rank_score,
        "failure_trace": report.failure_trace,
    }


def _decode_fuzz_report(data: dict, test: SynthesizedTest):
    from repro.fuzz import FuzzReport

    race_set = RaceSet(dynamic_count=data["detected"]["dynamic_count"])
    for race in data["detected"]["races"]:
        race_set.races.append(_decode_race(race))
    race_set._seen = {r.static_key() for r in race_set.races}
    return FuzzReport(
        test=test,
        detected=race_set,
        reproduced={_decode_static_key(k) for k in data["reproduced"]},
        confirmed_raw={_decode_static_key(k) for k in data["confirmed_raw"]},
        random_runs=data["random_runs"],
        directed_attempts=data["directed_attempts"],
        deadlocks=data["deadlocks"],
        faults=data["faults"],
        timeouts=data["timeouts"],
        synthesis_failed=data["synthesis_failed"],
        constant_sites=set(data["constant_sites"]),
        trace_events=data["trace_events"],
        packed_bytes=data["packed_bytes"],
        memo_hits=data["memo_hits"],
        memo_misses=data["memo_misses"],
        budget_runs=data["budget_runs"],
        rank_score=data["rank_score"],
        failure_trace=data["failure_trace"],
    )


# ----------------------------------------------------------------------
# Report-level entry points.


def encode_analysis(result) -> dict:
    """Encode an AnalysisResult (the stage-1 artifact)."""
    codec = Codec()
    order = [codec.encode_summary(s) for s in result.summaries]
    return {
        "kind": "analysis",
        "version": SERIAL_VERSION,
        "order": order,
        "tables": codec.tables(),
    }


def decode_analysis(data: dict):
    from repro.analysis.model import AnalysisResult

    codec = Codec.from_tables(data)
    return AnalysisResult([codec.summary(i) for i in data["order"]])


def encode_synthesis(report) -> dict:
    codec = Codec()
    pair_ids = [codec.encode_pair(p) for p in report.pairs]
    plan_ids = [codec.encode_plan(p) for p in report.plans]
    test_ids = [codec.encode_test(t) for t in report.tests]
    return {
        "kind": "synthesis",
        "version": SERIAL_VERSION,
        "class_name": report.class_name,
        "method_count": report.method_count,
        "loc": report.loc,
        "seconds": report.seconds,
        "pairs": pair_ids,
        "plans": plan_ids,
        "tests": test_ids,
        "verdicts": [v.to_dict() for v in report.verdicts],
        "tables": codec.tables(),
    }


def decode_synthesis(data: dict):
    from repro.narada.pipeline import SynthesisReport
    from repro.static.filter import PairVerdict

    codec = Codec.from_tables(data)
    return SynthesisReport(
        class_name=data["class_name"],
        method_count=data["method_count"],
        loc=data["loc"],
        pairs=[codec.pair(i) for i in data["pairs"]],
        plans=[codec.plan(i) for i in data["plans"]],
        tests=[codec.test(i) for i in data["tests"]],
        seconds=data["seconds"],
        verdicts=[
            PairVerdict.from_dict(v) for v in data.get("verdicts", ())
        ],
    )


def encode_detection(report) -> dict:
    """Encode a DetectionReport; its fuzz reports name their tests."""
    return {
        "kind": "detection",
        "version": SERIAL_VERSION,
        "class_name": report.class_name,
        "fuzz_reports": [_encode_fuzz_report(fr) for fr in report.fuzz_reports],
        "pruned_tests": report.pruned_tests,
    }


def decode_detection(data: dict, tests: list[SynthesizedTest]):
    """Decode a detection payload against its synthesis report's tests.

    Raises:
        ValueError: when a fuzz report names a test not in ``tests``.
    """
    from repro.narada.pipeline import DetectionReport

    by_name = {test.name: test for test in tests}
    report = DetectionReport(
        class_name=data["class_name"], pruned_tests=data["pruned_tests"]
    )
    for fuzz in data["fuzz_reports"]:
        test = by_name.get(fuzz["test"])
        if test is None:
            raise ValueError(
                f"detection entry names test {fuzz['test']!r}, "
                "which its synthesis does not have"
            )
        report.add(_decode_fuzz_report(fuzz, test))
    return report


def encode_fuzz_bundle(report) -> dict:
    """Self-contained encoding of one FuzzReport (``FuzzReport.to_dict``)."""
    return {
        "kind": "fuzz",
        "version": SERIAL_VERSION,
        "report": _encode_fuzz_report(report),
    }


def decode_fuzz_bundle(data: dict, test: SynthesizedTest):
    """Decode a fuzz bundle, binding it to ``test``, the test it names.

    No pipeline path calls it since fuzz reports travel inside
    detection payloads; ``benchmarks/e2e/spans.py`` wraps it by name.

    Raises:
        ValueError: when the bundle names a different test.
    """
    name = data["report"]["test"]
    if name != test.name:
        raise ValueError(f"fuzz bundle names test {name!r}, not {test.name!r}")
    return _decode_fuzz_report(data["report"], test)


def encode_static_facts(facts) -> dict:
    """Encoding of the lockset pre-filter facts.

    No pipeline stage caches the facts (they are recomputed with each
    synthesis); the pair stays as their serial form, which the e2e
    tracer in ``benchmarks/e2e/spans.py`` wraps by name.
    """
    return {
        "kind": "staticfilter",
        "version": SERIAL_VERSION,
        "facts": facts.to_dict(),
    }


def decode_static_facts(data: dict):
    from repro.static.facts import StaticFacts

    return StaticFacts.from_dict(data["facts"])


def _encode_cell(payload) -> list:
    """Side-table cell -> tagged JSON value.

    Cells hold the rare non-integer payloads of a packed trace: invoke
    argument tuples / notify woken tuples (``vals``), fault message
    strings (``str``), and integers past 64 bits (``big``).
    """
    if isinstance(payload, tuple):
        return ["vals", [encode_value(v) for v in payload]]
    if isinstance(payload, str):
        return ["str", payload]
    return ["big", str(payload)]


def _decode_cell(data: list):
    tag, value = data
    if tag == "vals":
        return tuple(decode_value(v) for v in value)
    if tag == "str":
        return value
    return int(value)


def encode_packed_trace(packed) -> dict:
    """PackedTrace -> JSON dict (columns as plain int lists)."""
    return {
        "test_name": packed.test_name,
        "columns": {
            name: list(getattr(packed, name)) for name in packed.COLUMNS
        },
        "strtab": list(packed.strtab),
        "locktab": [sorted(locks) for locks in packed.locktab],
        "addrtab": [list(key) for key in packed.addrtab],
        "cells": [_encode_cell(c) for c in packed.cells],
    }


def decode_packed_trace(data: dict):
    from array import array

    from repro.trace.columnar import PackedTrace

    packed = PackedTrace(test_name=data["test_name"])
    for name in PackedTrace.COLUMNS:
        setattr(
            packed, name, array(PackedTrace._TYPECODES[name], data["columns"][name])
        )
    packed.strtab = list(data["strtab"])
    packed.locktab = [frozenset(locks) for locks in data["locktab"]]
    packed.addrtab = [tuple(key) for key in data["addrtab"]]
    packed.cells = [_decode_cell(c) for c in data["cells"]]
    # Rebuild the intern indexes so the decoded trace stays appendable
    # and digests/packs exactly like the original.
    packed._strid = {s: i for i, s in enumerate(packed.strtab)}
    packed._lockid = {locks: i for i, locks in enumerate(packed.locktab)}
    packed._addrid = {key: i for i, key in enumerate(packed.addrtab)}
    return packed


def encode_seed_traces(traces) -> dict:
    """Encode the seed-suite packed traces."""
    return {
        "kind": "seedtrace",
        "version": SERIAL_VERSION,
        "traces": [encode_packed_trace(t) for t in traces],
    }


def decode_seed_traces(data: dict) -> list:
    return [decode_packed_trace(t) for t in data["traces"]]


def encode_test_bundle(test: SynthesizedTest) -> dict:
    """Self-contained encoding of one SynthesizedTest.

    No pipeline path calls it since a subject's tests stay in one unit;
    it is kept because ``benchmarks/e2e/spans.py`` wraps every
    ``encode_*``/``decode_*`` codec by name.
    """
    codec = Codec()
    index = codec.encode_test(test)
    return {
        "kind": "test",
        "version": SERIAL_VERSION,
        "test": index,
        "tables": codec.tables(),
    }


def decode_test_bundle(data: dict) -> SynthesizedTest:
    codec = Codec.from_tables(data)
    return codec.test(data["test"])


def encode_fault_ledger(ledger) -> dict:
    """Self-contained encoding of a FaultLedger (the run's fault report).

    Failures are emitted in recording order — it is chronology, not an
    artifact of scheduling, that the operator wants to read back — and
    the payload carries no shared-object tables: failures are flat
    strings by construction (exception reprs and traceback text).
    """
    return {
        "kind": "faults",
        "version": SERIAL_VERSION,
        "failures": [f.to_dict() for f in ledger.failures],
        "counters": {
            "completed": ledger.completed,
            "retries": ledger.retries,
            "pool_respawns": ledger.pool_respawns,
            "timeouts": ledger.timeouts,
            "quarantined": ledger.quarantined,
            "batches": ledger.batches,
            "warm_reuses": ledger.warm_reuses,
        },
    }


def decode_fault_ledger(data: dict):
    from repro.narada.faults import FaultLedger, UnitFailure

    counters = data["counters"]
    return FaultLedger(
        failures=[UnitFailure.from_dict(f) for f in data["failures"]],
        completed=counters["completed"],
        retries=counters["retries"],
        pool_respawns=counters["pool_respawns"],
        timeouts=counters["timeouts"],
        quarantined=counters["quarantined"],
        # Batching-era counters; absent in pre-batching payloads.
        batches=counters.get("batches", 0),
        warm_reuses=counters.get("warm_reuses", 0),
    )


# ----------------------------------------------------------------------
# Daemon error frames.

#: Machine-readable daemon error codes.  ``busy``/``overloaded``/
#: ``draining`` are load-shed responses (the request was never started,
#: retrying is safe); ``deadline_exceeded`` means the request was
#: admitted but cancelled at its deadline; ``protocol`` covers framing
#: violations (torn/oversize frames, malformed JSON); ``bad_request``
#: and ``internal`` keep their CLI-era meanings.
ERROR_CODES = (
    "bad_request",
    "busy",
    "deadline_exceeded",
    "draining",
    "internal",
    "overloaded",
    "protocol",
)


def encode_error_frame(
    code: str, message: str, retry_after_s: float | None = None
) -> dict:
    """Structured daemon error response.

    Every shed/failure path through the daemon answers with this shape
    so clients can branch on ``error_code`` instead of parsing prose;
    ``retry_after_s`` (when present) is the server's EMA-based hint for
    when capacity is likely to free up.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code: {code!r}")
    frame: dict = {
        "ok": False,
        "kind": "error",
        "version": SERIAL_VERSION,
        "error_code": code,
        "error": message,
    }
    if retry_after_s is not None:
        frame["retry_after_s"] = round(max(0.0, retry_after_s), 3)
    return frame


# ----------------------------------------------------------------------
# Canonical bytes + digests.


def canonical_json(data: dict) -> str:
    """Deterministic JSON text for an encoded payload."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def report_digest(data: dict) -> str:
    """Content digest of an encoded report, ignoring volatile keys.

    Wall-clock fields (``seconds``) differ between otherwise identical
    runs; everything else must be bit-identical across worker counts and
    cache replays, which is exactly what this digest checks.  Synthesis
    and detection cache entries store this value under ``digest``, which
    the digest itself leaves out.
    """
    stripped = {
        k: v for k, v in data.items() if k not in VOLATILE_KEYS and k != "digest"
    }
    return hashlib.sha256(canonical_json(stripped).encode()).hexdigest()
