"""Exception hierarchy shared across the package.

Every error raised on a user-facing path derives from MDResError so the CLI
can map it to an exit code: InputError -> 1, NotEligibleError -> 2,
BoundsExceededError -> 3.
"""

from __future__ import annotations


class MDResError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MDResError):
    """Malformed or inconsistent input: files, values, schemas, queries."""


class ParseError(InputError):
    """Syntax error in one of the little DSLs (schema, sims, MDs, queries)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotEligibleError(MDResError):
    """The requested fast path does not apply to this input.

    Raised when an MD set falls outside the tractable classes a fast
    operation needs, or when a query is not join-safe for rewriting.
    `ujcq` is the query's join-safety verdict (ok, witness) when the
    refusal is `query.rewrite`'s, which computes it; None otherwise.
    """

    def __init__(self, message: str, ujcq: tuple[bool, str | None] | None = None):
        self.ujcq = ujcq
        super().__init__(message)


class BoundsExceededError(MDResError):
    """The exhaustive oracle hit one of its configured resource limits."""
