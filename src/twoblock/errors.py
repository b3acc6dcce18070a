"""Exception types shared across the library."""

from __future__ import annotations


class TwoBlockError(Exception):
    """Base class for every error raised by this library."""


class LoopArc(TwoBlockError):
    """An arc with equal tail and head was supplied."""


class DuplicateArc(TwoBlockError):
    """The same arc appeared twice in an input arc list."""


class VertexOutOfRange(TwoBlockError):
    """A vertex id falls outside [0, vertex_count)."""


class EmptySet(TwoBlockError):
    """An operation that needs a nonempty vertex set received an empty one."""


class NotOnCycle(TwoBlockError):
    """A vertex was expected to lie on a given cycle but does not."""


class NotAChord(TwoBlockError):
    """A supposed chord coincides with a cycle arc or misses the cycle."""


class PreconditionViolated(TwoBlockError):
    """An operation's documented precondition does not hold."""


class Acyclic(TwoBlockError):
    """A cycle was requested from a digraph that has none."""


class CapExceeded(TwoBlockError):
    """An exact search was demanded beyond the configured instance-size cap."""


class NotStrong(TwoBlockError):
    """The digraph is not strongly connected."""


class NotHamiltonian(TwoBlockError):
    """The supplied cycle is not a Hamiltonian cycle of the digraph."""


class AttachMismatch(TwoBlockError):
    """Un-contracting a cycle found two distinct attach vertices.

    This signals an upstream violation: either a contracted cycle was not a
    longest cycle or the host digraph contains a two-block cycle after all.
    """


class StructuralViolation(TwoBlockError):
    """A structural guarantee of the coloring pipeline failed to hold.

    Carries a human-readable witness description in ``args[0]``.
    """


class ParseError(TwoBlockError):
    """A text input could not be parsed; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class UsageError(TwoBlockError):
    """The command line or its environment holds a malformed setting."""
