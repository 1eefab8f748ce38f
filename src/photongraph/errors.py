"""Exception types shared across the package.

Every exception carries a stable, machine-parsable ``reason`` code that the
CLI prints on a single line and maps to an exit code (domain errors exit 1,
scale-limit refusals exit 3).
"""

from __future__ import annotations


class PhotonGraphError(Exception):
    """Base class for all library errors."""

    reason = "error"

    def __init__(self, message: str, *, reason: str | None = None):
        super().__init__(message)
        if reason is not None:
            self.reason = reason


class GraphParseError(PhotonGraphError):
    """A document failed structural validation; ``location`` points at the
    offending field (e.g. ``edges[3].u``)."""

    reason = "parse-error"

    def __init__(self, message: str, *, location: str = "<document>"):
        super().__init__(f"{location}: {message}")
        self.location = location


class DomainError(PhotonGraphError):
    """Input is well-formed but outside an operation's domain."""

    reason = "domain-error"


class FieldError(DomainError):
    """A value breaks a rule of the graph model.  ``field`` names the
    argument that broke it (``mode_u``, ``edges[3].u``, ``vertices[1]``; empty
    for a whole edge) and ``problem`` states the rule, so that a document
    reader can report the problem at the field's place in the document."""

    def __init__(self, field: str, problem: str, *, reason: str | None = None):
        super().__init__(f"{field}: {problem}" if field else problem, reason=reason)
        self.field = field
        self.problem = problem


class NotBipartiteError(DomainError):
    """Raised with an odd-cycle witness when a bipartition is required."""

    reason = "not-bipartite"

    def __init__(self, message: str, *, odd_cycle: tuple[str, ...] = ()):
        super().__init__(message)
        self.odd_cycle = tuple(odd_cycle)


class ScaleLimitError(PhotonGraphError):
    """Exact algorithms refuse inputs beyond their intended scale unless the
    caller overrides the guard explicitly."""

    reason = "scale-limit"


class FullyFrustratedError(DomainError):
    """All coincidence amplitudes cancelled; there is no state to normalize."""

    reason = "fully-frustrated"
