"""Schedule fuzzing and systematic exploration of synthesized tests."""

from repro.fuzz.chess import BoundedExplorer, ChessResult, explore_test
from repro.fuzz.probes import AdjacencyProbe
from repro.fuzz.racefuzzer import FuzzReport, RaceFuzzer

__all__ = [
    "AdjacencyProbe",
    "BoundedExplorer",
    "ChessResult",
    "FuzzReport",
    "RaceFuzzer",
    "explore_test",
]

from repro.fuzz.coverage import (
    CoverageGuidedFuzzer,
    CoverageReport,
    InterleavingCoverageProbe,
)

__all__ += [
    "CoverageGuidedFuzzer",
    "CoverageReport",
    "InterleavingCoverageProbe",
]
