"""Common error types shared across the repro packages.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch library failures without also catching programming mistakes in the
caller's own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SourceError(ReproError):
    """An error that points at a location in MiniJ source text.

    Attributes:
        line: 1-based line number in the source text, or 0 when unknown.
        column: 1-based column number, or 0 when unknown.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class LexError(SourceError):
    """Raised by the lexer on malformed input."""


class ParseError(SourceError):
    """Raised by the parser on a syntax error."""


class TypeError_(SourceError):
    """Raised during class-table construction or resolution.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class MiniJRuntimeError(ReproError):
    """Raised when a MiniJ program faults at run time.

    These are the faults the ConTeGe-style oracle observes: null
    dereference, out-of-bounds array access, division by zero, assertion
    failure.

    Attributes:
        kind: a short machine-readable fault category.
        thread_id: the VM thread that faulted, or -1 for the client.
    """

    def __init__(self, kind: str, message: str, thread_id: int = -1) -> None:
        self.kind = kind
        self.thread_id = thread_id
        super().__init__(f"{kind}: {message}")


class StaleExecutionError(ReproError):
    """Raised when a finished :class:`~repro.runtime.vm.Execution` is reused.

    Once ``run`` has driven an execution to quiescence (every thread
    done), spawning another thread into it is almost certainly a bug:
    the new thread would never be scheduled unless ``run`` were called
    again, and listeners would see a trace with a silent gap.  Create a
    fresh Execution on the same VM instead.
    """


class DeadlockError(ReproError):
    """Raised when every live VM thread is blocked on a monitor."""

    def __init__(self, blocked: dict[int, int]) -> None:
        self.blocked = dict(blocked)
        desc = ", ".join(
            f"thread {tid} on object #{obj}" for tid, obj in sorted(blocked.items())
        )
        super().__init__(f"deadlock: {desc}")


class SynthesisError(ReproError):
    """Raised when the synthesizer cannot build a runnable test."""
