"""Exception hierarchy and the two rules for malformed arguments.

Two families matter downstream: RegimeError and its children mean the
requested quantity is statistically undefined for the given dimensions or
degenerate inputs (CLI exit code 2); DomainError and DataFormatError mean the
caller passed something malformed (CLI exit code 1).

The rules decide what a malformed argument is, each in one place:
check_integer for counts (a Python or numpy integer, never a float or a bool,
at least a lower bound) and check_level for levels (a real number, not a
bool, inside the open interval (0, 1)). Both raise DomainError.
"""

import numbers


class MvlrtError(Exception):
    """Base class for all library errors."""


class DomainError(MvlrtError, ValueError):
    """Argument outside an operation's domain (bad alpha, shape mismatch, ...)."""


class RegimeError(MvlrtError):
    """Statistic undefined in this dimension regime (e.g. n <= p + m)."""


class SingularDesignError(RegimeError):
    """Design matrix numerically rank deficient."""


class HypothesisRankError(RegimeError):
    """Hypothesis matrix C does not have full row rank."""


class DegenerateMatrixError(RegimeError):
    """A matrix required to be positive definite is not (Cholesky failed)."""


class DegenerateRootError(RegimeError):
    """Largest-root statistic undefined because theta is exactly 0 or 1."""


class SplitInfeasibleError(RegimeError):
    """A data split leaves too few rows for the reduced test dimensions."""


class DataFormatError(MvlrtError, ValueError):
    """Malformed CSV or config input."""


def check_integer(name: str, v, low=1) -> None:
    """DomainError unless v is an integer, not a bool, and at least ``low``;
    with low None any integer passes. A float such as 3.0 is not an integer."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or (low is not None and v < low):
        bound = "" if low is None else f" >= {low}"
        raise DomainError(f"{name} must be an integer{bound}, got {v!r}")


def check_level(name: str, v) -> None:
    """DomainError unless v is a real number, not a bool, in the open interval (0, 1)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0.0 < v < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
