"""Execution probes used by the fuzzing layer.

:class:`AdjacencyProbe` sweeps a recorded concurrent execution and records
every pair of *temporally adjacent conflicting accesses*: two successive
accesses **to the same address** (other addresses may be touched in
between) from different threads, at least one a write, with no common
lock held.  When such a pair occurs the race has *manifested* in the
concrete execution — this is the confirmation criterion our RaceFuzzer
analogue uses for the paper's "reproduced" column, and it matches
RaceFuzzer's semantics: one thread is paused at an access while the
other runs up to the conflicting access, regardless of what unrelated
memory it touches on the way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.trace.columnar import OP_READ, OP_WRITE
from repro.trace.events import AccessEvent


@dataclass
class AdjacencyProbe:
    """Records site pairs of adjacent conflicting same-address accesses."""

    name = "adjacency"

    interests = (AccessEvent,)

    #: (class_name, field_name, sorted site pair) for each manifestation.
    confirmed: set[tuple] = field(default_factory=set)
    #: Interned address id -> the row of its most recent access.
    _last_by_address: dict[int, int] = field(default_factory=dict)

    def handlers(self, packed) -> dict:
        """Row handlers for access rows (see analysis/sweep.py).  A read
        only pairs with a preceding write."""
        ops, tids, adrs, nodes = packed.op, packed.tid, packed.adr, packed.node
        lcks, locktab = packed.lck, packed.locktab
        clss, flds, strtab = packed.cls, packed.fld, packed.strtab
        last, add = self._last_by_address, self.confirmed.add

        def on_access(is_write: bool, i: int) -> None:
            adr = adrs[i]
            previous = last.get(adr)
            last[adr] = i
            if previous is None or tids[previous] == tids[i]:
                return
            if not (is_write or ops[previous] == OP_WRITE):
                return
            if locktab[lcks[previous]] & locktab[lcks[i]]:
                return
            a, b = nodes[previous], nodes[i]
            sites = (a, b) if a <= b else (b, a)
            add((strtab[clss[i]], strtab[flds[i]], sites))

        return {
            OP_READ: partial(on_access, False),
            OP_WRITE: partial(on_access, True),
        }
