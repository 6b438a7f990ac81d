"""Exception hierarchy.

Everything raised on purpose by this package derives from DualFitError, so a
caller can catch a single base type.  The leaf classes separate the failure
modes of CSV ingestion, statistics, and the fit itself.
"""

from __future__ import annotations


class DualFitError(Exception):
    """Base class for all errors raised by dualfit."""


class InvalidInput(DualFitError, ValueError):
    """Input violates a contract: wrong shape, non-finite values, bad ranges."""


class OutOfRange(InvalidInput):
    """The data's sums of squares overflow or underflow float64.

    The data may still define a line; rescaling x and y brings its
    statistics back into range.
    """


class DegenerateData(DualFitError):
    """All x values or all y values coincide, so no line is identifiable."""


class ZeroCorrelation(DualFitError):
    """Correlation is numerically zero; no slope direction is defensible."""


class NonPositiveCorrelation(DualFitError):
    """Correlation is negative or zero where the fit needs it positive."""


class SingularSlope(DualFitError):
    """Slope is zero where horizontal residuals or the inverse map need it nonzero."""


class SolverFailure(DualFitError):
    """The slope quartic overflowed, or Newton's method hit its step cap."""


class NoAdmissibleRoot(DualFitError):
    """No root of the slope equation lies in the slope bounds.

    The fit does not raise this, because the quartic always has exactly one
    root there; callers that catch it keep working.
    """


class BracketFailure(DualFitError):
    """The widened slope interval does not bracket an interior minimum."""


class ParseError(DualFitError):
    """A CSV row could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
