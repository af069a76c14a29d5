"""Repeat-block view of a packed trace, for ``--trace-stats``.

Hot loops can dominate a recorded interleaving: a ``Worker.spin`` body
emits the same few access rows thousands of times, differing only in
the event label and the observed values.  :func:`compress_trace` finds
those maximal tandem repeats and describes the trace as a segment list
— literal row ranges plus ``(start, period, count)`` repeat blocks —
over the unchanged :class:`~repro.trace.columnar.PackedTrace` (SEQ-style,
per *Data Race Detection on Compressed Traces*, Kini/Mathur/
Viswanathan).  ``repro run --trace-stats`` reports how many rows sit in
repeat blocks, which is how a repetitive workload would show up; the
sweep itself always runs row by row (DESIGN.md §13 records why the
block-skipping sweep was removed).

Repetition is detected on a **projection signature**: every column
except the event ``label`` and the six value columns
(``vkind``/``vint``/``vcls``/``okind``/``oint``/``ocls``), which are
exactly what varies between loop iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

#: Columns participating in the repeat-detection signature: everything
#: except ``label`` and the value columns (see module docstring).
SIGNATURE_COLUMNS = (
    "op", "tid", "node", "call",
    "x", "y", "z", "cls", "fld", "lck", "adr", "aux", "flags",
)

#: Longest repeat period considered (rows per loop iteration times the
#: thread interleaving granularity is small in practice).
DEFAULT_MAX_PERIOD = 128

#: Minimum rows a repeat block must save ``((count - 1) * period)`` to
#: be worth a segment; sub-threshold repeats stay literal.
DEFAULT_MIN_SAVED = 8


class LiteralSeg(NamedTuple):
    """Rows ``[start, stop)`` replayed row-at-a-time."""

    start: int
    stop: int


class RepeatSeg(NamedTuple):
    """``count`` back-to-back occurrences of a ``period``-row block.

    Covers rows ``[start, start + period * count)``; every occurrence
    is signature-identical to the first (verified row-by-row during
    detection, never assumed).
    """

    start: int
    period: int
    count: int

    @property
    def stop(self) -> int:
        return self.start + self.period * self.count


@dataclass(frozen=True)
class CompressionStats:
    """Accounting for ``--trace-stats``."""

    total_rows: int
    repeat_blocks: int
    rows_in_repeats: int
    #: Literal rows plus one period per repeat block.
    compressed_rows: int

    @property
    def ratio(self) -> float:
        if self.compressed_rows == 0:
            return 1.0
        return self.total_rows / self.compressed_rows


class CompressedTrace:
    """A segment plan over an unchanged :class:`PackedTrace`."""

    __slots__ = ("packed", "segments")

    def __init__(self, packed, segments: list) -> None:
        self.packed = packed
        self.segments = segments

    def stats(self) -> CompressionStats:
        blocks = 0
        in_repeats = 0
        compressed = 0
        for seg in self.segments:
            if type(seg) is RepeatSeg:
                blocks += 1
                in_repeats += seg.period * seg.count
                compressed += seg.period
            else:
                compressed += seg.stop - seg.start
        return CompressionStats(
            total_rows=len(self.packed),
            repeat_blocks=blocks,
            rows_in_repeats=in_repeats,
            compressed_rows=compressed,
        )


def _signature_ids(packed) -> list[int]:
    """Intern each row's projection signature to a dense int id."""
    columns = [getattr(packed, name) for name in SIGNATURE_COLUMNS]
    ids: dict[tuple, int] = {}
    out: list[int] = []
    append = out.append
    setdefault = ids.setdefault
    for row in zip(*columns):
        append(setdefault(row, len(ids)))
    return out


def compress_trace(
    packed,
    max_period: int = DEFAULT_MAX_PERIOD,
    min_saved: int = DEFAULT_MIN_SAVED,
) -> CompressedTrace:
    """Detect maximal tandem repeats and build the segment plan.

    Detection is lag-array based: ``lag[i]`` is the distance to the
    previous row with the same signature.  A run of small finite lags
    marks a candidate repetitive region; the candidate period is the
    *maximum* lag over the run (the rarest row in a periodic region
    recurs at exactly the true period, while denser rows recur
    sooner), and the periodic span is then **verified row-by-row**
    (``sig[i] == sig[i - L]``) and extended in both directions, so a
    wrong candidate only loses compression, never correctness.

    Repeats need ``count >= 3`` and must save at least ``min_saved``
    rows.
    """
    n = len(packed)
    sig = _signature_ids(packed)

    # lag[i]: distance to the previous identical signature, 0 if none.
    last_seen: dict[int, int] = {}
    lag = [0] * n
    for i, s in enumerate(sig):
        prev = last_seen.get(s)
        if prev is not None:
            lag[i] = i - prev
        last_seen[s] = i

    repeats: list[RepeatSeg] = []
    done = 0  # rows [0, done) already assigned to an accepted repeat
    i = 1
    while i < n:
        if not 0 < lag[i] <= max_period:
            i += 1
            continue
        # Maximal run of plausibly-periodic rows and its max lag.
        run_end = i
        period = 0
        while run_end < n and 0 < lag[run_end] <= max_period:
            if lag[run_end] > period:
                period = lag[run_end]
            run_end += 1
        # First verifiable position for this candidate period.
        w = i
        while w < run_end and (w < period or sig[w] != sig[w - period]):
            w += 1
        if w == run_end:
            i = run_end
            continue
        # Verified periodic span: extend forward past the run (later
        # rows may match at `period` even where their own lag is
        # smaller), then backward, then clip to unassigned rows.
        v = w
        while v < n and sig[v] == sig[v - period]:
            v += 1
        start = w - period
        while start > done and sig[start - 1] == sig[start - 1 + period]:
            start -= 1
        if start < done:
            start += -(-(done - start) // period) * period  # ceil-align
        count = (v - start) // period
        if count >= 3 and (count - 1) * period >= min_saved:
            repeats.append(RepeatSeg(start, period, count))
            done = start + period * count
            i = max(v, done)
        else:
            i = max(i + 1, v)

    segments: list = []
    cursor = 0
    for rep in repeats:
        if rep.start > cursor:
            segments.append(LiteralSeg(cursor, rep.start))
        segments.append(rep)
        cursor = rep.stop
    if cursor < n:
        segments.append(LiteralSeg(cursor, n))
    return CompressedTrace(packed, segments)


__all__ = [
    "CompressedTrace",
    "CompressionStats",
    "DEFAULT_MAX_PERIOD",
    "DEFAULT_MIN_SAVED",
    "LiteralSeg",
    "RepeatSeg",
    "SIGNATURE_COLUMNS",
    "compress_trace",
]
