"""Crash-injection rates that are certain to fire and to recover.

An injected crash is a sha-keyed draw on (unit key, attempt)
(:func:`repro.narada.faults.draw`), and a detect run's unit key is its
subject's detection stage key, which moves with the code salt, the
serial version and every detection config field.  So a fixed rate
drifts: after one such change, ``crash:0.5`` drew no crash at all for C1
at ``runs=2``, and the gates that require the retry path to have run
failed.  These helpers compute the draws a run will make and pick the
rate from them.
"""

from __future__ import annotations

from repro.narada import PipelineConfig, SubjectSpec
from repro.narada.cache import source_digest
from repro.narada.faults import draw
from repro.narada.orchestrator import spec_keys


def crash_draws(
    specs: list[SubjectSpec], config: PipelineConfig, max_retries: int
) -> dict[str, list[float]]:
    """Per subject, its crash draw at each attempt a detect run under
    ``config`` may make.  The unit key is the subject's detection stage
    key, as ``PipelineOrchestrator`` derives it."""
    draws = {}
    for spec in specs:
        _, key = spec_keys(source_digest(spec.source), spec.target_class, config)
        draws[spec.name] = [
            draw("crash", key, attempt) for attempt in range(max_retries + 1)
        ]
    return draws


def recoverable_rate(draws: dict[str, list[float]]) -> float | None:
    """A crash rate at which some unit crashes on its first attempt and
    every unit passes by its last, or None when there is none.

    An attempt crashes when its draw is below the rate.  The rate is
    midway between a unit's first draw and the first later draw above it.
    """
    for row in draws.values():
        later = [d for d in row[1:] if d > row[0]]
        if not later:
            continue
        rate = (row[0] + later[0]) / 2
        if all(max(other) >= rate for other in draws.values()):
            return rate
    return None


def show(draws: dict[str, list[float]]) -> str:
    """The draws, rounded, for a failure message."""
    return "; ".join(
        f"{name}: {[round(d, 3) for d in row]}" for name, row in draws.items()
    )
