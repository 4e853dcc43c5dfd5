"""Distribution primitives against frozen high-precision oracles.

The literal constants below were produced by a 50-digit evaluation
(complementary error function for the normal, regularized incomplete gamma
plus bisection for chi-square) and are independent of the implementation
under test.
"""

import math
import re

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.stats import beta as beta_law

from mvlrt.distributions import (
    _embedded_table,
    _pchip_coeffs,
    _pchip_eval,
    chi_sq_tail,
    chi_sq_upper_quantile,
    sample_beta,
    std_normal_tail,
    std_normal_upper_quantile,
    tw1_cdf,
    tw1_upper_quantile,
    wilks_lrt_tail,
)
from mvlrt.errors import DomainError
from mvlrt.rng import stream

# x -> 1 - Phi(x), 50-digit erfc oracle
NORMAL_TAILS = {
    0.0: 0.5,
    1.0: 0.15865525393145705,
    1.6449: 0.0499952174683463,
    2.0: 0.02275013194817921,
    3.0: 0.0013498980316300946,
    -1.0: 0.8413447460685429,
}

# alpha -> z_alpha, bisection against the same oracle
NORMAL_QUANTILES = {
    0.05: 1.6448536269514726,
    0.025: 1.9599639845400543,
    0.01: 2.326347874040841,
    0.1: 1.2815515655446004,
    0.5: 0.0,
}

# (df, alpha) -> upper quantile, series/continued-fraction gamma oracle
CHI2_QUANTILES = {
    (2, 0.5): 1.3862943611198906,
    (4, 0.05): 9.487729036781157,
    (1, 0.05): 3.841458820694126,
    (40, 0.01): 63.69073975156446,
    (10, 0.9): 4.865182051925329,
}


def test_normal_tail_oracle_values():
    for x, want in NORMAL_TAILS.items():
        assert std_normal_tail(x) == pytest.approx(want, abs=1e-12)


def test_normal_tail_decay():
    assert std_normal_tail(40.0) < 1e-300


def test_normal_quantile_oracle_values():
    for alpha, want in NORMAL_QUANTILES.items():
        assert std_normal_upper_quantile(alpha) == pytest.approx(want, abs=1e-10)


def test_normal_round_trip_grid():
    # 100-probability grid, quantile then tail must invert to 1e-10
    for a in np.linspace(0.005, 0.995, 100):
        z = std_normal_upper_quantile(float(a))
        assert std_normal_tail(z) == pytest.approx(float(a), abs=1e-10)


def test_normal_domain_errors():
    with pytest.raises(DomainError):
        std_normal_tail(float("nan"))
    with pytest.raises(DomainError):
        std_normal_tail(float("inf"))
    for bad in (0.0, 1.0, -0.1, 1.5, None, "0.05"):
        with pytest.raises(DomainError):
            std_normal_upper_quantile(bad)


def test_chi2_quantile_oracle_values():
    for (df, alpha), want in CHI2_QUANTILES.items():
        assert chi_sq_upper_quantile(alpha, df) == pytest.approx(want, rel=1e-8)


def test_chi2_closed_forms():
    # df=2 is exponential: upper median is 2 ln 2
    assert chi_sq_upper_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    # df=1 is a squared normal
    z = std_normal_upper_quantile(0.025)
    assert chi_sq_upper_quantile(0.05, 1) == pytest.approx(z * z, rel=1e-9)


def test_chi2_tail_at_zero_and_round_trip():
    assert chi_sq_tail(0.0, 3) == 1.0
    assert chi_sq_tail(-5.0, 3) == 1.0
    for df in (1, 2, 7, 40):
        for a in np.linspace(0.01, 0.99, 100):
            x = chi_sq_upper_quantile(float(a), df)
            assert chi_sq_tail(x, df) == pytest.approx(float(a), rel=1e-8)


def test_chi2_domain_errors():
    for bad_alpha in (0.0, 1.0, -1.0, None):
        with pytest.raises(DomainError):
            chi_sq_upper_quantile(bad_alpha, 3)
    for bad_df in (0, -2, 2.5, 3.0, True, None):
        with pytest.raises(DomainError):
            chi_sq_upper_quantile(0.05, bad_df)
        with pytest.raises(DomainError):
            chi_sq_tail(3.0, bad_df)
    assert chi_sq_tail(3.0, np.int64(2)) == chi_sq_tail(3.0, 2)
    assert chi_sq_upper_quantile(0.05, np.int64(2)) == chi_sq_upper_quantile(0.05, 2)
    with pytest.raises(DomainError):
        chi_sq_tail(float("inf"), 2)


def test_chi2_quantile_against_monte_carlo():
    """Exceedance count of summed squared normals is binomial around N alpha."""
    alpha = 0.05
    n_draws = 20_000
    for df in (1, 4, 40):
        rng = stream(2024, df)
        draws = np.sum(rng.standard_normal((n_draws, df)) ** 2, axis=1)
        q = chi_sq_upper_quantile(alpha, df)
        hits = int(np.sum(draws > q))
        slack = 3.0 * math.sqrt(n_draws * alpha * (1.0 - alpha))
        assert abs(hits - n_draws * alpha) <= slack, f"df={df}: {hits} exceedances"


# === Tracy-Widom order 1 ===


def test_tw1_table_invariants():
    s, F, _ = _embedded_table()
    assert s[0] <= -10.0 and s[-1] >= 6.0
    assert np.all(np.diff(s) > 0)
    assert np.max(np.diff(s)) <= 0.05 + 1e-12
    assert np.all(np.diff(F) >= 0)
    i10 = np.searchsorted(s, -10.0, side="right") - 1
    assert F[i10] < 1e-8
    assert F[-1] > 1.0 - 1e-8


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_tw1_interpolant_has_the_bits_of_scipy_pchip():
    """The numpy PCHIP equals scipy's PchipInterpolator bit for bit on the shipped
    table: at 100,000 draws over the grid, at every knot and at the doubles on
    either side of each knot (beyond the grid ends both extend the end cubics)."""
    s, F, c = _embedded_table()
    oracle = PchipInterpolator(s, F)
    draws = np.random.default_rng(14).uniform(s[0], s[-1], 100_000)
    pts = np.concatenate([draws, s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)])
    assert np.array_equal(_bits(_pchip_eval(s, c, pts)), _bits(oracle(pts)))
    inside = (draws > s[0]) & (draws < s[-1])
    assert np.array_equal(_bits(tw1_cdf(draws[inside])),
                          _bits(np.clip(oracle(draws[inside]), 0.0, 1.0)))


# every secant slope of the shipped table is positive, so these two tables reach
# the branches it does not: a flat secant, a change of sign, and both end rules
_SYNTHETIC = [
    # secants 1, 4, 0, -2, 3, -10, 1: left end slope set to 0 (its estimate has
    # the wrong sign), right end slope clipped to 3 times its secant
    (np.arange(8.0), np.array([0.0, 1.0, 5.0, 5.0, 3.0, 6.0, -4.0, -3.0])),
    # uneven spacing; the end estimates keep their values
    (np.array([-1.0, -0.5, 1.0, 1.2, 4.0, 4.5, 6.5]),
     np.array([2.0, 1.0, 1.0, 3.5, -1.0, 0.0, 3.0])),
]


@pytest.mark.parametrize("x, y", _SYNTHETIC)
def test_pchip_matches_scipy_on_synthetic_tables(x, y):
    oracle = PchipInterpolator(x, y)
    c = _pchip_coeffs(x, y)
    assert np.array_equal(_bits(c.T), _bits(oracle.c))
    pts = np.concatenate([np.random.default_rng(1).uniform(x[0] - 1, x[-1] + 1, 20_000),
                          x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    assert np.array_equal(_bits(_pchip_eval(x, c, pts)), _bits(oracle(pts)))


def test_synthetic_tables_reach_every_branch():
    for x, y in _SYNTHETIC:
        m = np.diff(y) / np.diff(x)
        assert (m == 0).any() and (np.sign(m[1:]) * np.sign(m[:-1]) < 0).any()
    x, y = _SYNTHETIC[0]
    m = np.diff(y) / np.diff(x)
    slope = PchipInterpolator(x, y).derivative()
    assert m[0] != 0.0 and slope(x[0]) == 0.0
    assert slope(x[-1]) == pytest.approx(3.0 * m[-1])


def test_tw1_interpolant_monotone_between_grid_points():
    dense = np.linspace(-11.0, 7.0, 4001)
    vals = np.array([tw1_cdf(float(s)) for s in dense])
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] >= 0.0 and vals[-1] <= 1.0


def test_tw1_cdf_never_decreases():
    """The t2/t3 screen counts a pair whose t2 is proven below the critical
    value as not rejected, which needs tw1_cdf nondecreasing. It is on a dense
    grid over [-12, 12] and within 1e-9 of both table ends. On the double just
    below a knot, the cubic of the interval on the left rounds up to 1 ulp
    above the knot's value (scipy's PPoly gives the same bits): a fall of
    1.1e-16, allowed here up to 2 eps and far below the screen's margin,
    which keeps a cleared pair's CDF about 1e-5 below 1 - alpha."""
    s, _, _ = _embedded_table()
    ends = np.concatenate([e + np.linspace(-1e-9, 1e-9, 5) for e in (s[0], s[-1])])
    dense = np.sort(np.concatenate([np.linspace(-12.0, 12.0, 200_001), ends]))
    assert np.all(np.diff(tw1_cdf(dense)) >= 0.0)
    knots = np.sort(np.concatenate([dense, s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)]))
    assert np.diff(tw1_cdf(knots)).min() >= -2.0 * np.finfo(float).eps


def test_tw1_cdf_monotone_points():
    assert tw1_cdf(-5.0) < tw1_cdf(0.0) < tw1_cdf(2.0)


def test_tw1_upper_quantile_value():
    # offline Painleve II oracle puts the upper 5% point near 0.9793
    assert tw1_upper_quantile(0.05) == pytest.approx(0.9793, abs=1e-2)


def test_tw1_round_trips():
    assert tw1_cdf(tw1_upper_quantile(0.1)) == pytest.approx(0.9, abs=1e-3)
    for a in (0.01, 0.05, 0.5, 0.9):
        s = tw1_upper_quantile(a)
        assert tw1_cdf(s) == pytest.approx(1.0 - a, abs=1e-3)


def test_tw1_tail_extrapolation():
    # beyond the grid the tails keep decaying / saturating in the right direction
    assert tw1_cdf(-14.0) < tw1_cdf(-12.0) < 1e-8
    assert tw1_cdf(14.0) >= tw1_cdf(11.0)
    assert tw1_cdf(14.0) <= 1.0
    with pytest.raises(DomainError):
        tw1_cdf(float("nan"))
    for bad in (1.5, None):
        with pytest.raises(DomainError):
            tw1_upper_quantile(bad)


# === element-wise tails ===


def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


# points across the normal and chi-square bodies and both Tracy-Widom tails
_POINTS = np.concatenate([np.linspace(-14.0, 14.0, 561), [0.0, 40.0, -40.0, 1e-300]])


@pytest.mark.parametrize("tail", [
    std_normal_tail,
    tw1_cdf,
    lambda x: chi_sq_tail(x, 1),
    lambda x: chi_sq_tail(x, 600),
])
def test_array_tails_agree_with_float_calls(tail):
    got = tail(_POINTS.reshape(5, -1))
    assert got.shape == (5, _POINTS.size // 5)
    one = np.array([tail(float(x)) for x in _POINTS])
    assert all(isinstance(tail(float(x)), float) for x in _POINTS[:3])
    assert np.max(_ulps(got.ravel(), one)) <= 2.0


@pytest.mark.parametrize("tail, what", [
    (std_normal_tail, "std_normal_tail: x"),
    (tw1_cdf, "tw1_cdf: s"),
    (lambda x: chi_sq_tail(x, 3), "chi_sq_tail: x"),
], ids=["std_normal_tail", "tw1_cdf", "<lambda>"])
def test_array_tails_reject_any_non_finite_entry(tail, what):
    for bad in (np.nan, np.inf, -np.inf):
        message = f"{what} must lie in (-inf, inf), got {bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tail(np.array([0.5, 1.0, bad, 2.0]))


# === beta sampling ===


def test_beta_moments():
    rng = stream(7)
    draws = sample_beta(rng, 2.0, 3.0, size=100_000)
    assert draws.mean() == pytest.approx(0.4, abs=0.01)
    # closed form ab / ((a+b)^2 (a+b+1)) = 0.04
    assert draws.var() == pytest.approx(0.04, abs=0.005)


def test_beta_support_and_scalar():
    rng = stream(8)
    draws = sample_beta(rng, 0.5, 0.5, size=5000)
    assert np.all(draws > 0.0) and np.all(draws < 1.0)
    one = sample_beta(stream(9), 2.0, 2.0)
    assert isinstance(one, float) and 0.0 < one < 1.0


def test_beta_reproducible_and_domain():
    a = sample_beta(stream(5, 1), 2.0, 3.0, size=10)
    b = sample_beta(stream(5, 1), 2.0, 3.0, size=10)
    assert np.array_equal(a, b)
    for bad in ((0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0), (None, 1.0), (1.0, "2.0"),
                (True, 1.0)):
        with pytest.raises(DomainError):
            sample_beta(stream(0), *bad)


# === exact null tail of the likelihood ratio ===

TAIL_LEVELS = (0.9, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@pytest.mark.parametrize("n,p,r", [(70, 24, 1), (70, 24, 2), (70, 24, 24),
                                   (30, 5, 4), (12, 9, 2), (200, 20, 1)])
def test_wilks_tail_single_factor_against_beta_cdf(n, p, r):
    # m = 1: Lambda = exp(-x / n) is exactly Beta((n - p)/2, r/2)
    a, b = (n - p) / 2.0, r / 2.0
    for q in TAIL_LEVELS:
        x = -n * math.log(beta_law.ppf(q, a, b))
        assert wilks_lrt_tail(x, n, p, 1, r) == pytest.approx(q, rel=0.05), q


def test_wilks_tail_swaps_m_and_r():
    # r = 1: Lambda is Beta((n - p - m + 1)/2, m/2), reached through the swap
    n, p, m = 40, 10, 5
    for q in TAIL_LEVELS:
        x = -n * math.log(beta_law.ppf(q, (n - p - m + 1) / 2.0, m / 2.0))
        assert wilks_lrt_tail(x, n, p, m, 1) == pytest.approx(q, rel=0.05), q


def test_wilks_tail_against_beta_product_draws():
    # the multi-split testing geometry: n_T = 70, 24 kept columns, m = 20
    n, p, m, r = 70, 24, 20, 24
    reps = 400_000
    rng = stream(31)
    neg_log = np.zeros(reps)
    for i in range(1, m + 1):
        neg_log -= np.log(sample_beta(rng, (n - p - i + 1) / 2.0, r / 2.0, size=reps))
    for q in (0.5, 0.1, 1e-2, 1e-3):
        x = n * float(np.quantile(neg_log, 1.0 - q))
        se = math.sqrt(q * (1.0 - q) / reps)
        assert abs(wilks_lrt_tail(x, n, p, m, r) - q) <= 4.0 * se + 0.01 * q, q


def test_wilks_tail_shape_and_domain():
    n, p, m, r = 70, 24, 20, 24
    assert wilks_lrt_tail(0.0, n, p, m, r) == 1.0
    assert wilks_lrt_tail(-3.0, n, p, m, r) == 1.0
    assert wilks_lrt_tail(1e5, n, p, m, r) == 0.0
    # strictly decreasing, also through the interpolated window at the mean
    grid = np.linspace(600.0, 800.0, 401)
    vals = [wilks_lrt_tail(x, n, p, m, r) for x in grid]
    assert np.all(np.diff(vals) < 0.0)
    assert vals[0] > 0.5 > vals[-1]
    for bad in ((math.nan, n, p, m, r), (1.0, 30, 20, 11, 2), (1.0, n, p, 0, r),
                (1.0, n, p, m, 2.5), (1.0, n, p, m, 24.0), (1.0, 70.0, p, m, r),
                (1.0, n, p, True, r), (1.0, n, None, m, r), (None, n, p, m, r),
                ("1.0", n, p, m, r), (True, n, p, m, r)):
        with pytest.raises(DomainError):
            wilks_lrt_tail(*bad)
    assert wilks_lrt_tail(700.0, *np.array([n, p, m, r])) == vals[200]


@pytest.mark.parametrize("dims", [(70, 24, 20, 2), (70, 30, 5, 1), (100, 10, 5, 5),
                                  (70, 24, 16, 24), (70, 30, 1, 1), (40, 10, 5, 3)])
def test_wilks_tail_takes_its_limits_where_the_saddlepoint_fails(dims):
    """Near x = 0 and toward infinity the saddlepoint divides by zero or loses
    K(s) to rounding; the tail is then 1 or 0, and never increases with x."""
    xs = np.concatenate([[0.0, 5e-324], np.geomspace(1e-300, 1e300, 20_000)])
    vals = [wilks_lrt_tail(float(x), *dims) for x in xs]
    assert all(type(v) is float and 0.0 <= v <= 1.0 for v in vals)
    assert np.all(np.diff(vals) <= 0.0)
    assert vals[0] == 1.0 and vals[-1] == 0.0


@pytest.mark.parametrize("dims", [(70, 24, 20, 2), (70, 30, 5, 1), (100, 10, 5, 5),
                                  (70, 24, 16, 24), (70, 30, 1, 1), (40, 10, 5, 3)])
def test_wilks_tail_returns_the_newton_zero_above_its_cut(monkeypatch, dims):
    """Above y_zero the tail returns 0.0 at once; Newton, run there with the
    cut removed, returns 0.0 too, so the cut moves no value."""
    import mvlrt.distributions as dist

    n, p, m, r = dims
    df = n - p
    if r < m:
        m, r, df = r, m, df + r - m
    terms = dist._wilks_terms(df, m, r)
    xs = n * terms[-1] * np.array([1.0 + 1e-12, 1.001, 1.1, 2.0, 10.0, 1e3, 1e10, 1e100])
    assert all(wilks_lrt_tail(float(x), *dims) == 0.0 for x in xs)
    monkeypatch.setattr(dist, "_wilks_terms", lambda *law: (*terms[:-1], math.inf))
    assert [wilks_lrt_tail(float(x), *dims) for x in xs] == [0.0] * xs.size


@pytest.mark.parametrize("dims", [(70, 24, 16, 24), (70, 24, 20, 24), (70, 30, 20, 10),
                                  (200, 20, 20, 20), (1000, 50, 40, 40)])
def test_wilks_tail_returns_the_newton_one_below_its_cut(monkeypatch, dims):
    """Below y_one the tail returns 1.0 at once; Newton, run there with the cut
    removed, returns 1.0 too, so the cut moves no value."""
    import mvlrt.distributions as dist

    n, p, m, r = dims
    df = n - p
    if r < m:
        m, r, df = r, m, df + r - m
    terms = dist._wilks_terms(df, m, r)
    assert terms[-2] > 0.0
    xs = n * terms[-2] * np.array([1.0 - 1e-12, 0.999, 0.9, 0.5, 1e-3, 1e-10, 1e-100, 1e-300])
    assert all(wilks_lrt_tail(float(x), *dims) == 1.0 for x in xs)
    monkeypatch.setattr(dist, "_wilks_terms", lambda *law: (*terms[:-2], -math.inf, terms[-1]))
    assert [wilks_lrt_tail(float(x), *dims) for x in xs] == [1.0] * xs.size


def test_wilks_tail_limits_at_the_reported_points():
    assert wilks_lrt_tail(9.325873406851312e-14, 70, 30, 1, 1) == 1.0
    assert wilks_lrt_tail(1e17, 70, 24, 20, 2) == 0.0
