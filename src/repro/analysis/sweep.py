"""The single-sweep analysis engine over packed traces.

Every packed-trace consumer — the race detectors, the adjacency and
coverage probes, the GoodLock and lock-order analyses — runs through
:func:`run_sweep`, the one driver that walks the rows of an in-memory
:class:`~repro.trace.columnar.PackedTrace` once and hands each row to
every pass that handles its opcode (DESIGN.md §9).

An **analysis pass** is an object with the protocol described in
:func:`run_sweep`: it maps opcodes to per-row handlers that read the
trace's columns directly.  The registry below maps pass names to
classes.  Each pass keeps its own state, so sweeping several passes
together gives every pass exactly the result it gets swept alone
(tests/analysis/test_sweep_engine.py), and each pass matches its
event-at-a-time reference in tests/detect/reference.py
(tests/detect/test_packed_equivalence.py).
"""

from __future__ import annotations

import hashlib

from repro.trace.columnar import OP_NAMES

__all__ = [
    "UnknownPassError",
    "interest_union",
    "memo_key",
    "registered_passes",
    "resolve_pass",
    "run_sweep",
]


# ----------------------------------------------------------------------
# Registry: pass names to lazily imported "module:attr" entries,
# replaced by the class on first resolution.

_REGISTRY: dict[str, str | type] = {
    "fasttrack": "repro.detect.fasttrack:FastTrackDetector",
    "eraser": "repro.detect.eraser:EraserDetector",
    "djit+": "repro.detect.djit:DjitDetector",
    "adjacency": "repro.fuzz.probes:AdjacencyProbe",
    "coverage": "repro.fuzz.coverage:InterleavingCoverageProbe",
    "goodlock": "repro.deadlock.goodlock:GoodLockDetector",
    "lockorder": "repro.deadlock.analysis:LockOrderPass",
}


class UnknownPassError(ValueError):
    """An unregistered pass name; the message lists what is registered."""


def registered_passes() -> list[str]:
    return sorted(_REGISTRY)


def resolve_pass(name: str) -> type:
    """Resolve a registered pass name to its class (lazy import)."""
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(registered_passes())
        raise UnknownPassError(
            f"unknown analysis pass {name!r}; registered passes: {known}"
        )
    if isinstance(entry, str):
        module_name, _, attr = entry.partition(":")
        module = __import__(module_name, fromlist=[attr])
        entry = getattr(module, attr)
        _REGISTRY[name] = entry
    return entry


def interest_union(passes) -> tuple:
    """Union of the passes' declared interests, first-seen order.

    A recorder created with this union records every row the passes
    handle, with the same event-construction elision and scheduling
    points a listener with these interests would get.  Accepts pass
    instances or classes.
    """
    seen: list = []
    for p in passes:
        for interest in p.interests:
            if interest not in seen:
                seen.append(interest)
    return tuple(seen)


def memo_key(pass_names, packed) -> str:
    """Memo key for the results of sweeping ``passes`` over ``packed``.

    Two runs with equal keys fed the same pass set a byte-identical
    event stream, so the (pure) passes would reproduce exactly the
    memoized results.  Derived from content only — safe across
    processes and schedule orders (see DESIGN.md §8/§9).
    """
    h = hashlib.sha256()
    for name in pass_names:
        h.update(name.encode())
        h.update(b"\x1f")
    h.update(packed.digest().encode())
    return h.hexdigest()


def run_sweep(passes, packed) -> None:
    """Walk the rows of ``packed`` once, calling every pass's handler
    for each row's opcode.

    This is the only way a trace is analysed: ``packed`` is an
    in-memory :class:`~repro.trace.columnar.PackedTrace`, swept row by
    row from first to last.

    A pass is any object with::

        name: str                      # registry / report name
        interests: tuple[type, ...]    # event classes consumed (drives
                                       # the recorder's elision)
        def handlers(self, packed) -> dict[int, Callable[[int], None]]:
            ...                        # opcode -> fn(row index)

    and optionally ``finish()`` returning a report fragment, which the
    caller invokes after the sweep.  Passes keep their results on the
    instance (``races``, ``confirmed``, ``units``, ...).  Handlers of
    one opcode run in pass order, so a pass sees exactly the rows it
    would see swept alone.  Per-row state refers to rows of ``packed``:
    sweep each pass instance over one trace.
    """
    table: dict[int, list] = {}
    for sweep_pass in passes:
        for op, handler in sweep_pass.handlers(packed).items():
            table.setdefault(op, []).append(handler)
    dispatch = [tuple(table.get(op, ())) for op in range(len(OP_NAMES))]
    for i, op in enumerate(packed.op):
        for handler in dispatch[op]:
            handler(i)
