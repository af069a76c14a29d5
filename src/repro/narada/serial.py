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
(pairs -> summaries, plans -> pairs/slots, tests -> plans/pairs).  A
decoder follows the references from the payload's id lists and decodes
each index once, on first use.

Decoded packed traces round-trip the intern indexes, so a restored
seed trace digests identically to the original — which keeps the sweep
engine's :func:`repro.analysis.sweep.memo_key` stable across cache
replays and worker boundaries.

A synthesis or detection cache entry is two JSON documents, one line
each: a **head** holding what a replay reads (:func:`synthesis_head`,
:func:`detection_head`), and a **body** that is the report's canonical
bytes (:func:`report_bytes`), the text :func:`report_digest` hashes.
The head stores that digest under ``digest``, computed when the entry
is written, so a cache hit never encodes a report again just to digest
it, and the cache checks the body against it.

A replayed report parses and decodes only the head, and the body is
parsed only when a field it holds is first read (:func:`_pending`).
Until then the report holds the entry's text.

* A synthesis head holds the top-level id lists, each checked to be in
  range; the pairs, with each side's summary header; the verdicts; and
  the tests, as name plus covered pairs.  The plans, the slots, the
  summary bodies (``accesses``, ``writeables``, ``access_projection``,
  ``summaries``) and the pair sides' ``access`` records are read from
  the body.  They all decode at once, through the same index memo, so
  shared objects keep their identity; a row whose head object a reader
  dropped decodes again from the body, which holds every row whole.
* A detection head holds every field of each fuzz report but its race
  records, and in their place the records' sorted static keys.  A
  replayed race set holds those keys (``static_keys()``, which scoring
  and the report's ``detected``/``reproduced`` counts read) and decodes
  its records, checked against the keys, on first read.  Beside the
  report, outside the bytes it digests, the head carries the source's
  site map, which scorers read (:func:`decode_sites`).

A replay holds no parsed table: a ``str`` is one object the garbage
collector never scans, while the parsed tables of one stock corpus
synthesis entry are a median 458 dicts and lists (about 12,000 for a
wave of 25) that every collection would walk while they lived.  The
deferred part reaches the objects it completes through weak
references, so a replayed report is no reference cycle and dies with
its last reader.
"""

from __future__ import annotations

import hashlib
import json
import weakref
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
from repro.fuzz import FuzzReport
from repro.narada.pipeline import DetectionReport, SynthesisReport
from repro.pairs.generator import PairSide, RacyPair
from repro.runtime.values import ObjRef, Value
from repro.synth.synthesizer import SynthesizedTest

#: Bump when the encoding changes shape; cache keys include it so stale
#: artifacts from older encodings are never decoded.
SERIAL_VERSION = 10

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


def _summary_head(data: dict) -> dict:
    """The fields of an encoded summary that a replay decodes eagerly."""
    return {
        "test_name": data["test_name"],
        "ordinal": data["ordinal"],
        "class_name": data["class_name"],
        "method": data["method"],
        "is_constructor": data["is_constructor"],
        "receiver_ref": data["receiver_ref"],
        "arg_refs": tuple(data["arg_refs"]),
        "arg_classes": tuple(data["arg_classes"]),
        "return_class": data["return_class"],
        "invoke_label": data["invoke_label"],
        "faulted": data["faulted"],
    }


def _decode_summary_body(data: dict) -> dict:
    """The fields of an encoded summary that a replay defers."""
    return {
        "accesses": [_decode_access(a) for a in data["accesses"]],
        "writeables": [
            WriteableEntry(
                lhs=decode_path(w["lhs"]),
                rhs=decode_path(w["rhs"]),
                label=w["label"],
                via=w["via"],
            )
            for w in data["writeables"]
        ],
        "access_projection": {
            label: (writeable, unprotected)
            for label, writeable, unprotected in data["access_projection"]
        },
        "summaries": {
            label: {
                (decode_path(lhs), decode_path(rhs)) for lhs, rhs in pairs
            }
            for label, pairs in data["summaries"]
        },
    }


def _decode_summary(data: dict) -> MethodSummary:
    return MethodSummary(**_summary_head(data), **_decode_summary_body(data))


def _pending(cls: type, *fields: str) -> type:
    """The stand-in subclass of dataclass ``cls`` for a replayed object
    whose ``fields`` are not decoded yet.

    The first read of one of them, or an ``==`` or ``repr``, calls
    ``_deferred.load()``, which sets the fields and makes the object an
    instance of ``cls``, so every later read is a plain attribute hit.
    ``cls`` itself gets no ``__getattr__``: a class with one reads every
    attribute of every instance about twice as slowly, since CPython then
    calls a hook on each read instead of specializing it.
    """
    deferred = frozenset(fields)

    def __getattr__(self, name: str):
        if name not in deferred:
            raise AttributeError(
                f"{cls.__name__!r} object has no attribute {name!r}"
            )
        self._deferred.load()
        return getattr(self, name)

    def __eq__(self, other):
        self._deferred.load()
        return self == other

    def __repr__(self) -> str:
        self._deferred.load()
        return repr(self)

    return type(
        f"Pending{cls.__name__}",
        (cls,),
        {
            "__slots__": (),
            "__getattr__": __getattr__,
            "__eq__": __eq__,
            "__repr__": __repr__,
            "__hash__": None,
        },
    )


_PendingSummary = _pending(
    MethodSummary, "accesses", "writeables", "access_projection", "summaries"
)
_PendingSide = _pending(PairSide, "access")
_PendingTest = _pending(SynthesizedTest, "plan")
_PendingReport = _pending(SynthesisReport, "plans")
_PendingRaceSet = _pending(RaceSet, "races")


def _partial(cls: type, deferred: "_Deferred", fields: dict):
    """A ``cls`` instance (a :func:`_pending` class) holding ``fields``
    and waiting on ``deferred`` for the rest."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    obj.__dict__["_deferred"] = deferred
    return obj


def _settle(obj, fields: dict) -> None:
    """Give a :func:`_partial` object its deferred fields and make it an
    instance of its dataclass."""
    obj.__dict__.update(fields)
    del obj.__dict__["_deferred"]
    # Through ``object``: a frozen dataclass refuses its own setattr.
    object.__setattr__(obj, "__class__", type(obj).__base__)


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
        #: Decoding: the tables read, and per table index -> object.
        self._tables: dict = {}
        self._decoded: dict[str, dict[int, Any]] = {
            key: {} for key in self.TABLE_KEYS
        }
        self._deferred: _DeferredPart | None = None

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
    def reading(
        cls, tables: dict, deferred: "_DeferredPart | None" = None
    ) -> "Codec":
        """A decoder over ``tables``, the intern tables of a payload.

        Each index decodes once, on first use, so an object shared in
        the encoded graph is one object in the decoded graph.  With
        ``deferred``, ``tables`` are a two-part entry's head: a summary
        decodes its header only, a pair side its summary and a test its
        name and covered pairs; they then wait on ``deferred``.
        """
        codec = cls()
        codec._tables = tables
        codec._deferred = deferred
        return codec

    def _memo(self, table: str, index: int, decode):
        memo = self._decoded[table]
        obj = memo.get(index)
        if obj is None:
            obj = memo[index] = decode(self._tables[table][index])
        return obj

    def summary(self, index: int) -> MethodSummary:
        return self._memo("summaries", index, self._summary_entry)

    def slot(self, index: int | None) -> ObjectSlot | None:
        if index is None:
            return None
        return self._memo(
            "slots",
            index,
            lambda d: ObjectSlot(
                class_name=d["class_name"], origin=d["origin"], note=d["note"]
            ),
        )

    def pair(self, index: int) -> RacyPair:
        return self._memo("pairs", index, self._decode_pair)

    def plan(self, index: int) -> TestPlan:
        return self._memo("plans", index, self._decode_plan)

    def test(self, index: int) -> SynthesizedTest:
        return self._memo("tests", index, self._test_entry)

    def _summary_entry(self, data: dict) -> MethodSummary:
        if self._deferred is None:
            return _decode_summary(data)
        return _partial(_PendingSummary, self._deferred, _summary_head(data))

    def _test_entry(self, data: dict) -> SynthesizedTest:
        if self._deferred is None:
            return self._decode_test(data)
        return _partial(
            _PendingTest,
            self._deferred,
            {
                "name": data["name"],
                "covered_pairs": [self.pair(i) for i in data["covered_pairs"]],
            },
        )

    def _decode_side(self, data: dict) -> PairSide:
        summary = self.summary(data["summary"])
        if self._deferred is not None:
            return _partial(_PendingSide, self._deferred, {"summary": summary})
        return PairSide(summary=summary, access=_decode_access(data["access"]))

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


class _Deferred:
    """What one replayed report decodes from its entry's body on the
    first read of a deferred field.

    It holds the two-part entry's text and weak references to the
    stand-ins (:func:`_partial` objects) that wait on it.  :meth:`load`
    parses the body, decodes what the stand-ins still alive lack
    (:meth:`_decode`) and settles them all at once.  A load that fails
    is handed to ``on_failure``, whose exception every read then raises;
    without one the decode error itself propagates.
    """

    __slots__ = ("text", "on_failure", "failure", "refs")

    def __init__(self, text: str, on_failure=None) -> None:
        self.text = text
        self.on_failure = on_failure
        self.failure: Exception | None = None
        self.refs: tuple | list = []

    def _decode(self, body: dict) -> list[tuple[object, dict]]:
        """``(stand-in, its deferred fields)`` for each live stand-in."""
        raise NotImplementedError

    def load(self) -> None:
        if self.failure is not None:
            raise self.failure
        try:
            settled = self._decode(parse_body(self.text))
        except Exception as error:
            if self.on_failure is None:
                raise
            self.failure = self.on_failure(error)
            self.text = None
            raise self.failure from error
        for obj, fields in settled:
            _settle(obj, fields)
        self.text = None
        self.refs = ()


class _DeferredPart(_Deferred):
    """The part of one replayed synthesis report decoded on first read.

    Its references reach the objects decoded from the head: the report,
    its pairs and their sides, and the summaries and tests that wait on
    this part.  A load decodes, against an index memo seeded with those
    objects, every summary body, every side's access, every test's plan
    and the report's plans.  The body holds every row whole, so a row
    whose object a reader dropped decodes again from the body alone.
    """

    __slots__ = ()

    def hold(self, codec: Codec, report) -> None:
        """Remember what ``codec`` decoded eagerly for ``report``."""
        self.refs = (
            weakref.ref(report),
            {
                table: {i: weakref.ref(obj) for i, obj in memo.items()}
                for table, memo in codec._decoded.items()
            },
            {
                i: (weakref.ref(pair.first), weakref.ref(pair.second))
                for i, pair in codec._decoded["pairs"].items()
            },
        )

    def _decode(self, body: dict) -> list[tuple[object, dict]]:
        tables = body["tables"]
        codec = Codec.reading(tables)
        report_ref, refs, side_refs = self.refs
        for table, memo in refs.items():
            for index, ref in memo.items():
                obj = ref()
                if obj is not None:
                    codec._decoded[table][index] = obj
        summaries, pairs, tests = (
            tables[table] for table in ("summaries", "pairs", "tests")
        )
        settled: list[tuple[object, dict]] = [
            (summary, _decode_summary_body(summaries[index]))
            for index, summary in codec._decoded["summaries"].items()
        ]
        settled += [
            (side, {"access": _decode_access(pairs[index][which]["access"])})
            for index, sides in side_refs.items()
            for which, ref in zip(("first", "second"), sides)
            if (side := ref()) is not None
        ]
        settled += [
            (test, {"plan": codec.plan(tests[index]["plan"])})
            for index, test in codec._decoded["tests"].items()
        ]
        report = report_ref()
        if report is not None:
            plans = [codec.plan(i) for i in _ids(body, "plans")]
            settled.append((report, {"plans": plans}))
        return settled


class _DeferredRaces(_Deferred):
    """The race records of one replayed detection report.

    Its references reach, per fuzz report in entry order, that report's
    race set, which holds the static keys the entry's head lists.  A
    load decodes each live race set's records and checks that their
    keys are the head's keys.  A replayed race set is read, never added
    to, before its records are.
    """

    __slots__ = ()

    def _decode(self, body: dict) -> list[tuple[object, dict]]:
        reports = body["fuzz_reports"]
        if len(reports) != len(self.refs):
            raise ValueError("entry head and body hold different fuzz reports")
        settled: list[tuple[object, dict]] = []
        for ref, fuzz in zip(self.refs, reports):
            race_set = ref()
            if race_set is None:
                continue
            races = fuzz["detected"]["races"]
            records = [_decode_race(race) for race in races]
            keys = {record.static_key() for record in records}
            if len(keys) != len(records) or keys != race_set._seen:
                raise ValueError("race records disagree with their head keys")
            settled.append((race_set, {"races": records}))
        return settled


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


def _decode_fuzz_report(
    data: dict, test: SynthesizedTest, deferred: "_DeferredRaces | None" = None
):
    """Decode an encoded fuzz report bound to ``test``.  With
    ``deferred``, ``data`` is its part of a detection entry's head, and
    its race set holds the head's static keys and waits on ``deferred``
    for its records."""
    detected = data["detected"]
    if deferred is None:
        race_set = RaceSet(dynamic_count=detected["dynamic_count"])
        race_set.races = [_decode_race(race) for race in detected["races"]]
        race_set._seen = {r.static_key() for r in race_set.races}
    else:
        race_set = _partial(
            _PendingRaceSet,
            deferred,
            {
                "_seen": {_decode_static_key(k) for k in detected["keys"]},
                "dynamic_count": detected["dynamic_count"],
            },
        )
        deferred.refs.append(weakref.ref(race_set))
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

    codec = Codec.reading(data["tables"])
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


#: What the head of a synthesis entry keeps of each row a replay reads,
#: per intern table: ``True`` keeps a field whole, a dict keeps the
#: fields it names of a nested object.  The body, the whole report,
#: holds every row whole.
_HEAD_ROWS = {
    "summaries": dict.fromkeys(
        (
            "test_name",
            "ordinal",
            "class_name",
            "method",
            "is_constructor",
            "receiver_ref",
            "arg_refs",
            "arg_classes",
            "return_class",
            "invoke_label",
            "faulted",
        ),
        True,
    ),
    "pairs": {
        "field": True,
        "same_site": True,
        "site_pairs": True,
        "first": {"summary": True},
        "second": {"summary": True},
    },
    "tests": {"name": True, "covered_pairs": True},
}


def _cut(row: dict, spec: dict) -> dict:
    """The fields of ``row`` that ``spec`` (a :data:`_HEAD_ROWS` value)
    keeps."""
    return {
        key: row[key] if keep is True else _cut(row[key], keep)
        for key, keep in spec.items()
    }


def synthesis_head(data: dict) -> dict:
    """The head of a synthesis payload's cache entry.

    It holds what a replay decodes: every top-level field but the plan
    ids, and the rows it reaches from the pair and test ids, cut to
    their :data:`_HEAD_ROWS` fields.  Every other row of those tables
    stands in the head as ``{}``, so each table keeps its length.  The
    entry's body, the whole report, holds the rest.
    """
    tables = data["tables"]
    reached = {"tests": set(data["tests"]), "pairs": set(data["pairs"])}
    for index in reached["tests"]:
        reached["pairs"].update(tables["tests"][index]["covered_pairs"])
    reached["summaries"] = {
        tables["pairs"][index][side]["summary"]
        for index in reached["pairs"]
        for side in ("first", "second")
    }
    head = {k: v for k, v in data.items() if k not in ("plans", "tables")}
    head["tables"] = {
        table: [
            _cut(row, spec) if index in reached[table] else {}
            for index, row in enumerate(tables[table])
        ]
        for table, spec in _HEAD_ROWS.items()
    }
    return head


def _race_key(race: dict) -> list:
    """The static key of an encoded race record, encoded: class, field
    and the sorted node ids of its two sides."""
    sites = sorted((race["first"]["node_id"], race["second"]["node_id"]))
    return [race["class_name"], race["field_name"], sites]


def detection_head(data: dict, sites: dict[int, str]) -> dict:
    """The head of a detection payload's cache entry: the payload with
    each fuzz report's race records replaced by their sorted static
    keys, under ``keys`` beside ``dynamic_count``, and the source's site
    map ``sites`` under ``sites``, its node ids grouped by method.  The
    entry's body, the whole report, holds the records."""
    reports = []
    for fuzz in data["fuzz_reports"]:
        detected = fuzz["detected"]
        keys = sorted(_race_key(race) for race in detected["races"])
        reports.append(
            {
                **fuzz,
                "detected": {
                    "dynamic_count": detected["dynamic_count"],
                    "keys": keys,
                },
            }
        )
    methods: dict[str, list[int]] = {}
    for node_id, name in sorted(sites.items()):
        methods.setdefault(name, []).append(node_id)
    return {**data, "fuzz_reports": reports, "sites": methods}


def decode_sites(head: dict) -> dict[int, str]:
    """The site map of a detection entry's ``head``: node id -> name of
    the method whose body contains it.

    Raises:
        ValueError: when the head holds no well-typed site map.
    """
    methods = head.get("sites")
    if not isinstance(methods, dict):
        raise ValueError("detection head holds no site map")
    sites: dict[int, str] = {}
    for name, node_ids in methods.items():
        if not isinstance(node_ids, list) or not all(
            type(node_id) is int for node_id in node_ids
        ):
            raise ValueError(f"ill-typed site ids for method {name!r}")
        for node_id in node_ids:
            sites[node_id] = name
    return sites


_DECODER = json.JSONDecoder()


def parse_body(text: str) -> dict:
    """The body of a two-part entry's ``text``: the JSON document after
    its first newline, which ends the head."""
    start = text.index("\n") + 1
    body, end = _DECODER.raw_decode(text, start)
    if end != len(text) or type(body) is not dict:
        raise ValueError("an entry body is not one JSON object")
    return body


def _ids(data: dict, table: str) -> list[int]:
    """The top-level id list ``data[table]``, each id in range."""
    ids = data[table]
    size = len(data["tables"][table])
    if not isinstance(ids, list) or not all(
        type(i) is int and 0 <= i < size for i in ids
    ):
        raise ValueError(f"{table} ids out of range of their table")
    return ids


def decode_synthesis(data: dict, text: str | None = None, on_failure=None):
    """Decode a synthesis payload.

    ``text``, when given, is the text of a two-part cache entry and
    ``data`` its parsed head: then the plans, the slots, the summary
    bodies and the pair sides' accesses wait until one of them is first
    read, and decode from the body of ``text``.  ``on_failure(error)``
    turns a failure of that later decode into the exception to raise.
    Without ``text``, ``data`` is the whole payload and everything
    decodes now.
    """
    from repro.static.filter import PairVerdict

    pair_ids, test_ids = (_ids(data, table) for table in ("pairs", "tests"))
    deferred = None if text is None else _DeferredPart(text, on_failure)
    codec = Codec.reading(data["tables"], deferred)
    fields = {
        "class_name": data["class_name"],
        "method_count": data["method_count"],
        "loc": data["loc"],
        "pairs": [codec.pair(i) for i in pair_ids],
        "tests": [codec.test(i) for i in test_ids],
        "seconds": data["seconds"],
        "verdicts": [
            PairVerdict.from_dict(v) for v in data.get("verdicts", ())
        ],
    }
    if deferred is None:
        plans = [codec.plan(i) for i in _ids(data, "plans")]
        return SynthesisReport(plans=plans, **fields)
    report = _partial(_PendingReport, deferred, fields)
    deferred.hold(codec, report)
    return report


def encode_detection(report) -> dict:
    """Encode a DetectionReport; its fuzz reports name their tests."""
    return {
        "kind": "detection",
        "version": SERIAL_VERSION,
        "class_name": report.class_name,
        "fuzz_reports": [_encode_fuzz_report(fr) for fr in report.fuzz_reports],
        "pruned_tests": report.pruned_tests,
    }


def decode_detection(
    data: dict,
    tests: list[SynthesizedTest],
    text: str | None = None,
    on_failure=None,
):
    """Decode a detection payload against its synthesis report's tests.

    ``text``, when given, is the text of a two-part cache entry and
    ``data`` its parsed head: then each fuzz report's race set holds the
    static keys the head lists, and its records wait until they are
    first read (``races``, iteration or ``len``) and decode from the
    body of ``text``.  ``on_failure`` is as for
    :func:`decode_synthesis`.  Without ``text``, ``data`` is the whole
    payload and everything decodes now.

    Raises:
        ValueError: when a fuzz report names a test not in ``tests``.
    """
    by_name = {test.name: test for test in tests}
    deferred = None if text is None else _DeferredRaces(text, on_failure)
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
        report.add(_decode_fuzz_report(fuzz, test, deferred))
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
    from repro.trace.columnar import COLUMNS, ROW, PackedTrace

    packed = PackedTrace(test_name=data["test_name"])
    columns = [data["columns"][name] for name in COLUMNS]
    packed._buf = bytearray(b"".join(map(ROW.pack, *columns)))
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
    return Codec.reading(data["tables"]).test(data["test"])


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


def report_bytes(data: dict) -> bytes:
    """The canonical bytes of an encoded report, without its volatile
    keys and stored ``digest``: what :func:`report_digest` hashes, and
    the body of the report's two-part cache entry."""
    stripped = {
        k: v for k, v in data.items() if k not in VOLATILE_KEYS and k != "digest"
    }
    return canonical_json(stripped).encode()


def report_digest(data: dict) -> str:
    """Content digest of an encoded report, ignoring volatile keys.

    Wall-clock fields (``seconds``) differ between otherwise identical
    runs; everything else must be bit-identical across worker counts and
    cache replays, which is exactly what this digest checks.  Synthesis
    and detection cache entries store this value under ``digest``, which
    the digest itself leaves out.
    """
    return hashlib.sha256(report_bytes(data)).hexdigest()
