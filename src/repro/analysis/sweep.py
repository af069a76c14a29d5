"""The fused single-sweep analysis engine over packed traces.

Every packed-trace consumer — the race detectors, the adjacency and
coverage probes, the GoodLock and lock-order analyses — runs through
:func:`run_sweep`, the one driver that decodes each row of an in-memory
:class:`~repro.trace.columnar.PackedTrace` once and dispatches it to
every pass, row by row.

Architecture (DESIGN.md §9):

* An **analysis pass** is an object with the protocol described in
  :func:`run_sweep`; the registry below maps pass names to classes.
* A :class:`KernelSpec` describes how the pass consumes rows: either
  **source fragments** (per-opcode Python statements, inlined into a
  generated sweep function) or **handlers** (per-opcode callables, for
  cold passes where codegen is not worth it).  Fragments of every pass
  in a sweep are fused into a single generated loop — one opcode
  branch, one ``tid``/``adr`` decode, one clock lookup per row — and
  compiled once per pass-class tuple.
* Passes that need happens-before clocks (``needs_clock``) share one
  clock store per sweep: FastTrack and Djit+ evolve identical thread
  and lock clocks, so the fused sweep maintains them once.
* Fragment passes that key state on the access address share one
  per-address **slot list**: the driver resolves ``adr`` to a slot
  once and each pass reads ``slot[k]``, replacing k per-pass dict
  lookups with one.

Fragment contract: placeholder ``P_`` prefixes are rewritten to a
per-pass prefix, ``SLOT`` to the pass's slot index, and ``OP_*`` tokens
to their opcode literals.  Fragments may use the shared driver locals
``i``, ``tid``, ``adr``, ``my_time`` (access rows of clocked sweeps),
``clock``, ``times_get``, ``packed``, and any column local they
mention (``ops``, ``tids``, ``nodes``, ``lcks``, ``locktab``, ...).
The fragment/handler opcode set and the fragment text must be a
function of the pass *class* (kernels are cached per class tuple);
per-instance state enters through :attr:`KernelSpec.env`.

Determinism: a fused sweep produces bit-identical per-pass results to
running each pass standalone — pass states are disjoint (the shared
clock store is an identical-evolution merge, not an approximation) —
and the standalone sweep is bit-identical to the passes' ``on_event``
listeners (gated by tests/detect/test_packed_equivalence.py and
tests/analysis/test_sweep_engine.py).
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field

# NB: VectorClock is imported lazily inside kernel compilation; importing
# repro.detect here would cycle (the detectors import this module).

__all__ = [
    "KernelSpec",
    "UnknownPassError",
    "interest_union",
    "memo_key",
    "registered_passes",
    "resolve_pass",
    "run_sweep",
]


@dataclass
class KernelSpec:
    """How one pass plugs into the fused sweep.

    Exactly the per-sweep inputs: ``fragments`` maps opcodes to source
    fragments (see the module docstring for the placeholder contract),
    ``handlers`` maps opcodes to ``fn(i)`` callables for closure-based
    passes, and ``env`` carries the per-instance objects the fragments
    reference (hoisted into locals of the generated function).
    """

    needs_clock: bool = False
    fragments: dict[int, str] = field(default_factory=dict)
    handlers: dict[int, object] = field(default_factory=dict)
    env: dict[str, object] = field(default_factory=dict)


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

    A recorder created with this union triggers the same
    event-construction elision and the same scheduling points as
    attaching the passes as live listeners directly — which is what
    keeps record-then-sweep bit-identical to live listening.  Accepts
    pass instances or classes.
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


# ----------------------------------------------------------------------
# Kernel codegen.

#: Opcode literals substituted into fragments (canonical set lives in
#: trace/columnar.py; resolved lazily to avoid an import cycle).
def _op_table() -> dict[str, int]:
    from repro.trace import columnar

    return {
        name: getattr(columnar, name)
        for name in dir(columnar)
        if name.startswith("OP_") and isinstance(getattr(columnar, name), int)
    }


#: Driver locals a fragment may reference, bound from ``packed`` once.
_COLUMN_LOCALS = (
    ("ops", "packed.op"),
    ("tids", "packed.tid"),
    ("xs", "packed.x"),
    ("ys", "packed.y"),
    ("nodes", "packed.node"),
    ("adrs", "packed.adr"),
    ("lcks", "packed.lck"),
    ("clss", "packed.cls"),
    ("flds", "packed.fld"),
    ("locktab", "packed.locktab"),
    ("strtab", "packed.strtab"),
)

#: Shared decode for access rows of a clocked sweep: thread id, cached
#: per-thread clock (``_times`` re-bound only on thread switch; sync
#: blocks invalidate with ``cur_tid = -1`` since they may replace the
#: dict under copy-on-write), local time, and interned address.
_ACCESS_DECODE_CLOCK = """\
tid = tids[i]
if tid != cur_tid:
    clock = threads_get(tid)
    if clock is None:
        clock = threads[tid] = VectorClock({tid: 1})
    cur_tid = tid
    times_get = clock._times.get
my_time = times_get(tid, 0)
adr = adrs[i]
"""

_ACCESS_DECODE_PLAIN = """\
tid = tids[i]
adr = adrs[i]
"""

#: Happens-before clock maintenance, emitted once per sweep when any
#: pass needs clocks (FastTrack and Djit+ evolve identical clocks, so
#: the shared store is exact, not an approximation).
_CLOCK_SYNC = {
    "OP_LOCK": """\
x = xs[i]
_lock_clock = locks_get(x)
if _lock_clock is not None:
    _c = threads_get(tid)
    if _c is None:
        _c = threads[tid] = VectorClock({tid: 1})
    _c.join(_lock_clock)
cur_tid = -1
""",
    "OP_UNLOCK": """\
x = xs[i]
_c = threads_get(tid)
if _c is None:
    _c = threads[tid] = VectorClock({tid: 1})
locks[x] = _c.snapshot()
_c.tick(tid)
cur_tid = -1
""",
    "OP_FORK": """\
x = xs[i]
_parent = threads_get(tid)
if _parent is None:
    _parent = threads[tid] = VectorClock({tid: 1})
_child = threads_get(x)
if _child is None:
    _child = threads[x] = VectorClock({x: 1})
_child.join(_parent)
_parent.tick(tid)
cur_tid = -1
""",
    "OP_JOIN": """\
x = xs[i]
_child = threads_get(x)
if _child is None:
    _child = threads[x] = VectorClock({x: 1})
_self = threads_get(tid)
if _self is None:
    _self = threads[tid] = VectorClock({tid: 1})
_self.join(_child)
_child.tick(x)
cur_tid = -1
""",
}

_OP_TOKEN = re.compile(r"\bOP_[A-Z]+\b")


def _indent(text: str, prefix: str) -> str:
    return "".join(
        prefix + line if line.strip() else line
        for line in text.splitlines(keepends=True)
    )


def _pass_fragments(k: int, spec: KernelSpec, op_values: dict[str, int]):
    """Normalize one pass's spec into {opcode: prefixed fragment}."""
    fragments: dict[int, str] = {}
    for op, frag in spec.fragments.items():
        frag = _OP_TOKEN.sub(lambda m: str(op_values[m.group(0)]), frag)
        fragments[op] = frag.replace("P_", f"p{k}_")
    for op in spec.handlers:
        # Closure passes become a single generated call site.
        fragments[op] = f"p{k}_h{op}(i)\n"
    return fragments


def _compile_kernel(specs: list[KernelSpec], timed: bool, label: str):
    """Generate and compile the fused sweep function for ``specs``."""
    op_values = _op_table()
    op_read, op_write = op_values["OP_READ"], op_values["OP_WRITE"]
    needs_clock = any(s.needs_clock for s in specs)

    per_pass = [_pass_fragments(k, s, op_values) for k, s in enumerate(specs)]
    # Shared per-address slots: one list per address, one index per
    # slot-using pass, resolved once per access row.
    slot_index: dict[int, int] = {}
    for k, fragments in enumerate(per_pass):
        if any("SLOT" in frag for frag in fragments.values()):
            slot_index[k] = len(slot_index)
    n_slots = len(slot_index)

    bodies: dict[int, str] = {}
    all_ops = sorted({op for fragments in per_pass for op in fragments})
    for op in all_ops:
        parts: list[str] = []
        uses_slot = False
        for k, fragments in enumerate(per_pass):
            frag = fragments.get(op)
            if not frag:
                continue
            if "SLOT" in frag:
                uses_slot = True
                frag = frag.replace("SLOT", str(slot_index[k]))
            if timed:
                frag = (
                    "_t0 = _pc()\n" + frag + f"_tacc[{k}] += _pc() - _t0\n"
                )
            parts.append(frag)
        if op in (op_read, op_write):
            decode = _ACCESS_DECODE_CLOCK if needs_clock else _ACCESS_DECODE_PLAIN
            if uses_slot:
                decode += (
                    "slot = slots_get(adr)\n"
                    "if slot is None:\n"
                    f"    slot = slots[adr] = [None] * {n_slots}\n"
                )
        else:
            decode = "tid = tids[i]\n"
        bodies[op] = decode + "".join(parts)
    if needs_clock:
        for op_name, block in _CLOCK_SYNC.items():
            op = op_values[op_name]
            sync = "tid = tids[i]\n" + block
            # Sync first, then any pass fragments already present for
            # this opcode (their decode line is subsumed by the sync's).
            existing = bodies.get(op)
            if existing is not None:
                existing = existing.split("\n", 1)[1]  # drop duplicate decode
                sync += existing
            bodies[op] = sync

    body_text = "".join(
        f"        {'if' if j == 0 else 'elif'} op == {op}:\n"
        + _indent(bodies[op], "            ")
        for j, op in enumerate(sorted(bodies))
    )
    col_lines = "".join(
        f"    {name} = {expr}\n"
        for name, expr in _COLUMN_LOCALS
        if name == "ops" or re.search(rf"\b{name}\b", body_text)
    )
    env_names = [
        f"p{k}_{name}" for k, s in enumerate(specs) for name in s.env
    ] + [f"p{k}_h{op}" for k, s in enumerate(specs) for op in s.handlers]
    env_lines = "".join(f'    {name} = env["{name}"]\n' for name in env_names)
    if n_slots:
        env_lines += '    slots = env["__slots"]\n    slots_get = slots.get\n'
    if needs_clock:
        env_lines += (
            '    threads = env["__threads"]\n'
            "    threads_get = threads.get\n"
            '    locks = env["__locks"]\n'
            "    locks_get = locks.get\n"
            "    cur_tid = -1\n"
            "    times_get = None\n"
            "    clock = None\n"
        )
    if timed:
        env_lines += '    _tacc = env["__timings"]\n    _pc = _perf_counter\n'
    src = (
        "def _sweep(packed, env):\n"
        + col_lines
        + env_lines
        + "    for i in range(len(ops)):\n"
        "        op = ops[i]\n" + body_text
    )
    from repro.detect.clock import VectorClock

    namespace = {"VectorClock": VectorClock, "_perf_counter": time.perf_counter}
    exec(compile(src, f"<sweep:{label}>", "exec"), namespace)
    return namespace["_sweep"], needs_clock, n_slots > 0


#: Compiled kernels per (pass-class tuple, timed) — specs are required
#: to be class-constant, so one compile serves every instance tuple.
_KERNELS: dict[tuple, tuple] = {}


def run_sweep(passes, packed, timings: list | None = None) -> None:
    """Decode ``packed`` once, dispatching every row to all ``passes``.

    This is the only way a trace is analysed: ``packed`` is an
    in-memory :class:`~repro.trace.columnar.PackedTrace`, swept row by
    row from first to last.  With ``timings`` (a list), the timed
    kernel variant runs instead and per-pass seconds are written into
    it — the ``--trace-stats`` per-pass attribution.

    A pass is any object with::

        name: str                      # registry / report name
        interests: tuple[type, ...]    # event classes consumed (listener
                                       # protocol; drives recorder elision)
        def kernel_spec(self, packed) -> KernelSpec: ...

    and optionally ``finish()`` returning a report fragment.  Passes
    keep their results on the instance (``races``, ``confirmed``,
    ``units``, ...).

    Sweep state (the shared slot store, and each clocked pass's clock
    dicts) persists on the pass instances, so repeatedly sweeping the
    same instances over successive traces accumulates state exactly
    like feeding their ``on_event`` listeners the concatenated
    streams.  Reuse instances only across sweeps of the same pass
    tuple.
    """
    passes = tuple(passes)
    if not passes:
        return
    specs = [p.kernel_spec(packed) for p in passes]
    timed = timings is not None
    key = (tuple(type(p) for p in passes), timed)
    cached = _KERNELS.get(key)
    if cached is None:
        label = "+".join(getattr(p, "name", type(p).__name__) for p in passes)
        cached = _KERNELS[key] = _compile_kernel(specs, timed, label)
    kernel, needs_clock, uses_slots = cached

    env: dict[str, object] = {}
    for k, spec in enumerate(specs):
        for name, obj in spec.env.items():
            env[f"p{k}_{name}"] = obj
        for op, handler in spec.handlers.items():
            env[f"p{k}_h{op}"] = handler
    if uses_slots:
        holder = next(
            p for p, s in zip(passes, specs)
            if any("SLOT" in f for f in s.fragments.values())
        )
        slots = getattr(holder, "_sweep_slots", None)
        if slots is None:
            slots = {}
            holder._sweep_slots = slots
        env["__slots"] = slots
    if needs_clock:
        clocked = [p for p, s in zip(passes, specs) if s.needs_clock]
        threads, locks = clocked[0]._threads, clocked[0]._locks
        for p in clocked[1:]:
            p._threads = threads
            p._locks = locks
        env["__threads"] = threads
        env["__locks"] = locks
    if timed:
        acc = [0.0] * len(passes)
        env["__timings"] = acc

    kernel(packed, env)

    if timed:
        timings[:] = acc
