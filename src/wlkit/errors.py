"""Exception types shared across the package."""
from __future__ import annotations


class WlkitError(Exception):
    """Base class for all package errors."""


class ParseError(WlkitError):
    """Malformed WLG or scheme text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedGraphError(WlkitError):
    """Input graph violates an operation's preconditions."""


class ResourceLimitError(WlkitError):
    """`what` would pass the `Limits` field `budget`: it needs about
    `required` against that field's `cap`.  Raised by `Limits.check`."""

    def __init__(self, what: str, budget: str, required: int, cap: int):
        self.budget = budget
        self.required = required
        self.cap = cap
        super().__init__(f"{what} passes {budget} (required ~{required}, cap {cap})")


class CoherenceError(WlkitError):
    """A pair partition failed a coherence axiom; carries a witness."""

    def __init__(self, message: str, axiom: int, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom {axiom}: {message} witness={witness}")


class DecompositionError(WlkitError):
    """Decomposition assumptions (unique prime closures, disjointness) failed."""
