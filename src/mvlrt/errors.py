"""Exception hierarchy and the rules for malformed arguments.

Two families matter downstream: RegimeError and its children mean the
requested quantity is statistically undefined for the given dimensions or
degenerate inputs (CLI exit code 2); DomainError and DataFormatError mean the
caller passed something malformed (CLI exit code 1).

The rules decide what a malformed argument is, each in one place:
check_integer for counts (a Python or numpy integer, never a float or a bool,
from a lower end up to an upper end if one is given) and check_real for real
settings (a real number, not a bool, or each entry of a numpy array, inside an
interval whose ends are given); check_level is its case for levels, the open
interval (0, 1). All raise DomainError, naming the value or entry at fault.
"""

import math
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


def check_integer(name: str, v, low=1, high=None) -> None:
    """DomainError unless v is an integer, not a bool, at least ``low`` and at most
    ``high``; a None end passes any integer. A float such as 3.0 is not an integer."""
    if (isinstance(v, bool) or not isinstance(v, numbers.Integral)
            or (low is not None and v < low) or (high is not None and v > high)):
        bound = (("" if low is None else f" >= {low}") if high is None else
                 f" <= {high}" if low is None else f" in [{low}, {high}]")
        raise DomainError(f"{name} must be an integer{bound}, got {v!r}")


def check_real(name: str, v, low=-math.inf, high=math.inf, ends="()") -> None:
    """DomainError unless v, or each entry of a numpy integer or float array, is a real number,
    not a bool, between low and high; ``ends`` marks each end open, "(" or ")", or closed."""
    def inside(x):
        return (low < x if ends[0] == "(" else low <= x) & (x < high if ends[1] == ")" else x <= high)

    if hasattr(v, "dtype") and v.dtype.kind in "iuf":
        if not v.size or inside(v.min()) and inside(v.max()):  # a NaN entry makes both NaN
            return
        v = v.flat[inside(v).argmin()].item()  # the first entry outside, as a Python number
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not inside(v):
        raise DomainError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {v!r}")


def check_level(name: str, v) -> None:
    """check_real on the open interval (0, 1)."""
    check_real(name, v, 0.0, 1.0)
