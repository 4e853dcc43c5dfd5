"""Distribution primitives.

Standard normal and chi-square tails and quantiles, beta sampling, the exact
null tail of the likelihood ratio (Wilks' Lambda), and the Tracy-Widom law of
order 1. Order 1 is the orthogonal (real-data) case; that
choice matters for the largest-root test and is documented in the README.

The three tails the tests refer to (``std_normal_tail``, ``chi_sq_tail`` and
``tw1_cdf``) work element-wise: a float gives a float, an array gives an
array of the same shape, and an array entry gets the same bits as the float
would. Any non-finite entry raises ``DomainError``. The quantiles, the
Wilks' Lambda tail and the sampler take floats.

The Tracy-Widom CDF is realized as an embedded table (``data/tw1_cdf.csv``,
regenerated by ``scripts/make_tw1_table.py``) with monotone cubic
interpolation inside the grid and asymptotically shaped tails outside it.
The interpolant is PCHIP (Fritsch & Carlson 1980, with scipy's one-sided
three-point end rule), computed in numpy so that ``tw1_cdf`` needs no scipy;
it gives the same bits as scipy's ``PchipInterpolator``.
The table is read once, as shipped; its invariants (grid over [-12, 10] at
spacing 0.02, monotone F, both tails reached) are checked by the test suite,
not at load time.

``scipy.special`` is imported on first use, by the first call that needs one
of its functions (``_special``), not when this module loads: the normal tail,
the Tracy-Widom law and the sampler never load it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DomainError, check_integer, check_level, check_real

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


#: libm's erfc as a ufunc, so an array entry gets the bits of the float
_erfc = np.frompyfunc(math.erfc, 1, 1)


@lru_cache(maxsize=1)
def _special():
    """``scipy.special``, imported on the first call."""
    import scipy.special

    return scipy.special


def _finite(x, what: str) -> np.ndarray:
    """x as a float array; DomainError naming the first entry that is not finite."""
    a = np.asarray(x, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        raise DomainError(f"{what} must be finite, got {float(a[~finite][0])!r}")
    return a


def std_normal_tail(x):
    """Upper tail 1 - Phi(x) of the standard normal, element-wise."""
    a = _finite(x, "std_normal_tail: x")
    out = 0.5 * np.asarray(_erfc(a / _SQRT2), dtype=float)
    return out if a.ndim else float(out)


def std_normal_upper_quantile(alpha: float) -> float:
    """The z with P(Z > z) = alpha, for alpha in (0, 1)."""
    check_level("std_normal_upper_quantile: alpha", alpha)
    return float(-_special().ndtri(alpha))


def chi_sq_tail(x, df: int):
    """Upper tail P(chi2_df > x), element-wise; the regularized upper incomplete gamma."""
    a = _finite(x, "chi_sq_tail: x")
    check_integer("chi_sq_tail: df", df)
    out = np.where(a <= 0.0, 1.0, _special().gammaincc(0.5 * df, 0.5 * a))
    return out if a.ndim else float(out)


def chi_sq_upper_quantile(alpha: float, df: int) -> float:
    """Upper alpha-quantile of the chi-square law with df degrees of freedom.

    Computed through the inverse regularized incomplete gamma function:
    the returned x satisfies P(chi2_df > x) = alpha.
    """
    check_level("chi_sq_upper_quantile: alpha", alpha)
    check_integer("chi_sq_upper_quantile: df", df)
    return float(2.0 * _special().gammainccinv(0.5 * df, alpha))


def _pchip_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PCHIP coefficients ``(c0, c1, c2, c3)``, one row per interval, as scipy builds them.

    Knot slopes: Fritsch & Carlson's weighted harmonic mean of the two secants,
    0 where they change sign or either is 0; Moler's one-sided rule at the ends.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.zeros_like(y)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    e[np.sign(e) != np.sign(m0)] = 0.0
    big = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3.0 * np.abs(m0))
    d[[0, -1]] = np.where(big, 3.0 * m0, e)
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]), axis=1)


def _pchip_eval(x: np.ndarray, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The piecewise cubic at a, in the operation order of scipy's ``PPoly``."""
    # the interval searchsorted(x, a, "right") - 1, clamped to [0, len(x) - 2]
    i = np.searchsorted(x[1:-1], a, "right")
    z = a - x[i]
    ci = c[i]
    zz = z * z
    return ((ci[..., 3] + ci[..., 2] * z) + ci[..., 1] * zz) + ci[..., 0] * (zz * z)


@lru_cache(maxsize=1)
def _embedded_table():
    """The grid s, the CDF values F and their PCHIP coefficients (Fritsch &
    Carlson 1980, scipy's end rule), computed in numpy with the bits of scipy's
    ``PchipInterpolator``; one row per interval, so ``_pchip_eval`` gathers
    all four with one index."""
    ref = resources.files("mvlrt").joinpath("data/tw1_cdf.csv")
    with resources.as_file(ref) as path:
        s, F = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    return s, F, _pchip_coeffs(s, F)


def _tw1_tail(s: float) -> float:
    """The Tracy-Widom CDF at one s outside the open interval of the grid."""
    grid, F, _ = _embedded_table()
    s0, s1 = grid[0], grid[-1]
    if s <= s0:
        # left tail falls like exp(-|s|^3 / 24), matched at the grid end
        return float(F[0] * math.exp(-(abs(s) ** 3 - abs(s0) ** 3) / 24.0))
    # right tail: 1 - F ~ exp(-(2/3) s^{3/2})
    surv = (1.0 - F[-1]) * math.exp(-(2.0 / 3.0) * (s**1.5 - s1**1.5))
    return float(1.0 - surv)


_tw1_tails = np.frompyfunc(_tw1_tail, 1, 1)


def tw1_cdf(s):
    """CDF of the Tracy-Widom law of order 1 (embedded table), element-wise."""
    a = _finite(s, "tw1_cdf: s")
    grid, _, coeffs = _embedded_table()
    out = np.array(np.clip(_pchip_eval(grid, coeffs, a), 0.0, 1.0))
    tails = (a <= grid[0]) | (a >= grid[-1])
    if tails.any():
        out[tails] = _tw1_tails(a[tails])
    return out if a.ndim else float(out)


def tw1_upper_quantile(alpha: float) -> float:
    """Upper alpha-quantile of the Tracy-Widom law of order 1, by bisection on tw1_cdf."""
    check_level("tw1_upper_quantile: alpha", alpha)
    target = 1.0 - alpha
    grid = _embedded_table()[0]
    lo, hi = float(grid[0]), float(grid[-1])
    while tw1_cdf(lo) > target:
        lo -= 5.0
    while tw1_cdf(hi) < target:
        hi += 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tw1_cdf(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


#: half-width, in standard deviations of -log(Lambda), of the window around
#: the mean where the saddlepoint terms cancel and the tail is interpolated
_CENTER_SD = 0.02

#: the largest rounding error of K(s), about eps times the sum of its |lgamma|
#: terms, at which the saddlepoint is still used: the smaller tail then has a
#: relative error of about that size, below the approximation's own few percent
_K_ROUNDING_MAX, _EPS = 1e-2, float(np.finfo(float).eps)


def _k1(shapes, signs, s: float) -> float:
    """K'(s) = -sum(signs * psi(shapes - s)), the mean of the tilted law at s."""
    return -float(signs @ _special().psi(shapes - s))


def _lr_tail(shapes, signs, s: float, y: float) -> float:
    """Second-order Lugannani-Rice upper tail at saddlepoint s of the point y.

    Daniels (1987); Butler (2007), eq. 2.48. The cumulant generating function
    K(s) = sum(signs * (lgamma(shapes - s) - lgamma(shapes))) has derivatives
    K^(k)(s) = (k-1)! sum(signs * zeta(k, shapes - s)) for k >= 2.
    FloatingPointError when the rounding of K(s) passes _K_ROUNDING_MAX.
    """
    sp = _special()
    z = shapes - s
    lgz = sp.gammaln(z)
    if _EPS * float(np.abs(lgz).sum()) > _K_ROUNDING_MAX:
        raise FloatingPointError("K(s) is lost to rounding")
    k0 = float(signs @ (lgz - sp.gammaln(shapes)))
    k2 = float(signs @ sp.zeta(2, z))
    l3 = 2.0 * float(signs @ sp.zeta(3, z)) / k2 ** 1.5
    l4 = 6.0 * float(signs @ sp.zeta(4, z)) / k2 ** 2
    w = math.copysign(math.sqrt(max(2.0 * (s * y - k0), 0.0)), s)
    u = s * math.sqrt(k2)
    terms = (1.0 / u - 1.0 / w + (l4 / 8.0 - 5.0 * l3 * l3 / 24.0) / u
             - l3 / (2.0 * u * u) - 1.0 / u ** 3 + 1.0 / w ** 3)
    return float(sp.ndtr(-w)) + math.exp(-0.5 * w * w) / _SQRT_2PI * terms


def wilks_lrt_tail(x: float, n: int, p: int, m: int, r: int) -> float:
    """Exact null upper tail P(-2 log L_n > x) of the likelihood ratio for C B = 0.

    Under the null, Wilks' Lambda = exp(-x / n) is distributed as a product of
    independent Beta((n - p - i + 1)/2, r/2), i = 1..m (Anderson 2003,
    Thm 8.4.1), the same law as with m and r swapped and n - p replaced by
    n - p + r - m. The tail of -log(Lambda) is evaluated by the second-order
    Lugannani-Rice saddlepoint on the closed-form cumulant generating function
    sum_i [lgamma(a_i - s) - lgamma(a_i) + lgamma(a_i + b) - lgamma(a_i + b - s)]
    (Butler, Huzurbazar & Booth 1992). Its relative error stays within a few
    percent far into the tail, where a normal or chi-square reference for the
    same statistic is off by orders of magnitude. Needs n - p >= m.
    """
    check_real("wilks_lrt_tail: x", x)
    for name, v in (("n", n), ("p", p), ("m", m), ("r", r)):
        check_integer(f"wilks_lrt_tail: {name}", v)
    df = n - p
    if df < m:
        raise DomainError(f"wilks_lrt_tail needs n - p >= m, got n={n}, p={p}, m={m}")
    y = x / n
    if y <= 0.0:
        return 1.0
    if r < m:
        m, r, df = r, m, df + r - m
    shapes, signs, a_min, h, y_lo, y_hi, p_lo, p_hi = _wilks_terms(df, m, r)
    if y_lo <= y <= y_hi:
        return p_lo + (p_hi - p_lo) * (y - y_lo) / (y_hi - y_lo)
    # K'(s) = y has one root below the pole at a_min; 1/K' is nearly linear in
    # s at both ends, so Newton runs on it, safeguarded by the bracket
    lo, hi = (h, a_min) if y > y_hi else (-math.inf, -h)
    s = lo if y > y_hi else hi
    # far out at either end the saddlepoint divides by zero, leaves the domain
    # of its terms or loses K(s) to rounding; the tail is then its limit there
    try:
        for _ in range(100):
            g = _k1(shapes, signs, s)
            if abs(g - y) <= 1e-12 * y:
                break
            if g > y:
                hi = s
            else:
                lo = s
            step = s + g * (1.0 - g / y) / float(signs @ _special().zeta(2, shapes - s))
            if not lo < step < hi:
                step = 0.5 * (lo + hi) if math.isfinite(lo) else 2.0 * s - 1.0
            if step == s:
                break  # a fixed point: every later iteration would repeat this one
            s = step
        return min(1.0, max(0.0, _lr_tail(shapes, signs, s, y)))
    except (ArithmeticError, ValueError):
        return 0.0 if y > y_hi else 1.0


@lru_cache(maxsize=1024)
def _wilks_terms(df: int, m: int, r: int):
    """The parts of wilks_lrt_tail that depend only on the law, with m <= r.

    The shapes and signs of the cumulant generating function, the smallest
    shape a_min (its pole), and the center window: its half-width h, the
    points y_lo = K'(-h) and y_hi = K'(h), and the tails at both ends. Near
    the mean the saddlepoint terms u and w both vanish and their reciprocals
    cancel, so the tail is interpolated linearly between -h and +h there.
    """
    a = 0.5 * (df - np.arange(m, dtype=float))
    shapes = np.concatenate([a, a + 0.5 * r])
    signs = np.concatenate([np.ones(m), -np.ones(m)])
    shapes.flags.writeable = signs.flags.writeable = False
    h = _CENTER_SD / math.sqrt(float(signs @ _special().zeta(2, shapes)))
    y_lo, y_hi = _k1(shapes, signs, -h), _k1(shapes, signs, h)
    p_lo, p_hi = _lr_tail(shapes, signs, -h, y_lo), _lr_tail(shapes, signs, h, y_hi)
    return shapes, signs, float(a[-1]), h, y_lo, y_hi, p_lo, p_hi


def sample_beta(rng: np.random.Generator, a: float, b: float, size=None):
    """Draw Beta(a, b) variates from two gamma draws on the given stream."""
    check_real("sample_beta: a", a, 0.0)
    check_real("sample_beta: b", b, 0.0)
    g1 = rng.standard_gamma(a, size=size)
    g2 = rng.standard_gamma(b, size=size)
    out = g1 / (g1 + g2)
    if size is None:
        return float(out)
    return out
