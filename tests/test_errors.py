"""The argument rules: counts are integers, real settings lie in an interval,
levels in (0, 1)."""

import math

import numpy as np
import pytest

from mvlrt.errors import DomainError, check_integer, check_level, check_real


def test_check_integer_takes_python_and_numpy_integers_only():
    for v in (1, 7, np.int64(3), np.int32(1), np.uint8(2)):
        check_integer("count", v)
    check_integer("count", 0, low=0)
    for v in (-5, 0, np.int64(-(2**40))):
        check_integer("seed", v, low=None)
    for v in (0, -1, 3.0, 2.5, True, np.bool_(True), None, "3", np.float64(3.0)):
        with pytest.raises(DomainError, match="count must be an integer >= 1"):
            check_integer("count", v)
    with pytest.raises(DomainError, match="seed must be an integer, got 1.5"):
        check_integer("seed", 1.5, low=None)


def test_check_level_takes_reals_strictly_inside_the_unit_interval():
    for v in (0.05, 0.5, np.float32(0.25), np.float64(0.999)):
        check_level("alpha", v)
    for v in (0.0, 1.0, -0.1, 1.5, math.nan, math.inf, True, False, None, "0.05", 0, 1):
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
            check_level("alpha", v)


def test_check_real_takes_reals_inside_the_given_interval():
    for v in (-0.5, 0, 0.999, np.float64(0.25), np.int64(0)):
        check_real("rho", v, -1.0, 1.0)
    for v in (-1.0, 1.0, math.nan, None, "0.5", True, np.bool_(False)):
        with pytest.raises(DomainError, match=r"rho must lie in \(-1, 1\)"):
            check_real("rho", v, -1.0, 1.0)
    check_real("delta", 1.0, 0.0, 1.0, "(]")
    check_real("rho", 0.0, 0.0, 1.0, "[]")
    check_real("x", -1e300)
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"x must lie in \(-inf, inf\)"):
            check_real("x", v)
    with pytest.raises(DomainError, match=r"delta must lie in \(0, 1\], got 0.0"):
        check_real("delta", 0.0, 0.0, 1.0, "(]")
    with pytest.raises(DomainError, match=r"a must lie in \(0, inf\)"):
        check_real("a", 0.0, 0.0)
