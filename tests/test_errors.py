"""The argument rules: counts are integers, up to an upper end where one is
given, real settings and each entry of a real array lie in an interval,
levels in (0, 1)."""

import itertools
import math

import numpy as np
import pytest

from mvlrt.distributions import chi_sq_tail, std_normal_tail, tw1_cdf
from mvlrt.errors import DomainError, check_integer, check_level, check_real
from mvlrt.lrt import TestReport as Report


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


def test_check_real_checks_each_entry_of_an_array():
    for v in (np.array([-0.5, 0.0, 0.999]), np.zeros((2, 2), dtype=int), np.array(0.25),
              np.array(0), np.zeros((2, 0))):
        check_real("rho", v, -1.0, 1.0)
    for v, got in ((np.array([0.5, math.nan, 2.0]), "nan"), (np.array(math.inf), "inf"),
                   (np.array([[0.0, 0.5], [-1.0, 3.0]]), "-1.0"), (np.array([-5, 0]), "-5")):
        with pytest.raises(DomainError, match=rf"^rho must lie in \(-1, 1\), got {got}$"):
            check_real("rho", v, -1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=rf"^x must lie in \(-inf, inf\), got {bad!r}$"):
            check_real("x", np.array([0.0, 1.0, bad, math.nan]))
    with pytest.raises(DomainError, match=r"^p must lie in \[0, 1\], got 1.5$"):
        check_real("p", np.array([0.0, 1.0, 1.5]), 0.0, 1.0, "[]")
    for v in (np.array([True, False]), np.array(False), np.array([0.5], dtype=object),
              np.array([0.5 + 0j])):
        with pytest.raises(DomainError, match=r"^x must lie in \(-inf, inf\), got array\("):
            check_real("x", v)


def test_check_integer_takes_an_upper_end():
    check_integer("protect", 5, low=0, high=5)
    check_integer("protect", np.int64(0), low=0, high=5)
    for v in (6, -1, True, 3.0):
        with pytest.raises(DomainError, match=rf"^protect must be an integer in \[0, 5\], got {v!r}$"):
            check_integer("protect", v, low=0, high=5)
    with pytest.raises(DomainError, match=r"^shift must be an integer <= 2, got 3$"):
        check_integer("shift", 3, low=None, high=2)


def test_a_bad_entry_reads_as_the_same_bad_value():
    """The tails and a TestReport refuse an array's bad entry in the words that
    the same bad float gets."""
    tails = (std_normal_tail, tw1_cdf, lambda x: chi_sq_tail(x, 3))
    for tail, bad in itertools.product(tails, (math.nan, math.inf, -math.inf)):
        assert _message(lambda: tail(bad)) == _message(lambda: tail(np.array([0.0, bad])))
    good = {"statistic": 1.0, "p_value": 0.5, "diagnostics": {"mu_n": 2.0}}
    for field, bad in (("statistic", math.nan), ("p_value", 1.5), ("p_value", -math.inf),
                       ("diagnostics", {"mu_n": math.inf})):
        pair = {**good, field: bad}
        stack = {k: _stacked(v) for k, v in pair.items()}
        assert _message(lambda: Report("t1", **pair)) == _message(
            lambda: Report("t1", **stack))


def _stacked(v):
    """A two-pair stack of v: a good first entry, then v."""
    if isinstance(v, dict):
        return {k: _stacked(x) for k, x in v.items()}
    return np.array([0.5, v])


def _message(call) -> str:
    with pytest.raises(DomainError) as caught:
        call()
    return str(caught.value)
