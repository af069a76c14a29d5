"""Internal utilities shared by the repro packages."""

from repro._util.errors import (
    DeadlockError,
    LexError,
    MiniJRuntimeError,
    ParseError,
    ReproError,
    SourceError,
    SynthesisError,
    TypeError_,
)

__all__ = [
    "DeadlockError",
    "LexError",
    "MiniJRuntimeError",
    "ParseError",
    "ReproError",
    "SourceError",
    "SynthesisError",
    "TypeError_",
]
