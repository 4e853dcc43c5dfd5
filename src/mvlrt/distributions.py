"""Distribution primitives.

Standard normal and chi-square tails and quantiles, beta sampling, the exact
null tail of the likelihood ratio (Wilks' Lambda), and the Tracy-Widom law of
order 1. Order 1 is the orthogonal (real-data) case; that
choice matters for the largest-root test and is documented in the README.

The four tails the tests refer to (``std_normal_tail``, ``chi_sq_tail``,
``tw1_cdf`` and the Wilks' Lambda tail ``wilks_lrt_tail``) work element-wise:
a float gives a float, an array gives an array of the same shape, and an
array entry gets the same bits as the float would. Any non-finite entry
raises check_real's ``DomainError``, naming it. The Wilks' Lambda tail
shares each Newton step of its saddlepoints among the entries: one special
function call and one stacked vector product per step, which gives each
entry the bits of its own dot product. The quantiles and the sampler take
floats.

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
    """x as a float array, once check_real has passed each entry as finite."""
    a = np.asarray(x, dtype=float)
    check_real(what, a)
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


@lru_cache(maxsize=16)
def tw1_upper_quantile(alpha: float) -> float:
    """Upper alpha-quantile of the Tracy-Widom law of order 1, by bisection on tw1_cdf
    (about 1 ms); the last 16 levels asked for are cached."""
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


def _dot(V: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """signs @ v for each row v of V, by the stacked vector product, which gives each
    row the bits of its own ddot; a product V @ signs would take gemv, which sums in
    another order once a row has 4 entries or more."""
    return np.matmul(V[..., None, :], signs[:, None])[..., 0, 0]


def _k1(z: np.ndarray, signs) -> np.ndarray:
    """K'(s) = -sum(signs * psi(shapes - s)), the mean of the tilted law, at each row
    z = shapes - s."""
    return -_dot(_special().psi(z), signs)


def _lr_tail(shapes, signs, s: list, y: list) -> list:
    """Second-order Lugannani-Rice upper tails at saddlepoints s of points y: a list
    of floats, None where the saddlepoint fails, by dividing by zero, overflowing,
    taking the root of a negative K''(s) or losing K(s) to rounding (past
    _K_ROUNDING_MAX). Each special function takes one call for all points, zeta
    one for all three orders.

    Daniels (1987); Butler (2007), eq. 2.48. The cumulant generating function
    K(s) = sum(signs * (lgamma(shapes - s) - lgamma(shapes))) has derivatives
    K^(k)(s) = (k-1)! sum(signs * zeta(k, shapes - s)) for k >= 2.
    """
    sp = _special()
    z = shapes - np.array(s)[:, None]
    lgz = sp.gammaln(z)
    k0 = _dot(lgz - sp.gammaln(shapes), signs).tolist()
    w = [math.copysign(math.sqrt(max(2.0 * (s_i * y_i - k0_i), 0.0)), s_i)
         for s_i, y_i, k0_i in zip(s, y, k0)]
    tails = []
    for s_i, w_i, rounding, tail_w, k2, k3, k4 in zip(
            s, w, (_EPS * np.abs(lgz).sum(axis=-1)).tolist(), sp.ndtr(-np.array(w)).tolist(),
            *_dot(sp.zeta(np.array([[[2.0]], [[3.0]], [[4.0]]]), z), signs).tolist()):
        try:
            if rounding > _K_ROUNDING_MAX:
                raise FloatingPointError("K(s) is lost to rounding")
            l3 = 2.0 * k3 / k2 ** 1.5
            l4 = 6.0 * k4 / k2 ** 2
            u = s_i * math.sqrt(k2)
            terms = (1.0 / u - 1.0 / w_i + (l4 / 8.0 - 5.0 * l3 * l3 / 24.0) / u
                     - l3 / (2.0 * u * u) - 1.0 / u ** 3 + 1.0 / w_i ** 3)
            tails.append(tail_w + math.exp(-0.5 * w_i * w_i) / _SQRT_2PI * terms)
        except (ArithmeticError, ValueError):
            tails.append(None)
    return tails


def _saddlepoints(shapes, signs, y: list, lo: list, hi: list) -> list:
    """The root s of K'(s) = y in (lo, hi) for each y, lo and hi, None where Newton
    divides by zero; each step makes one special function call for all roots.

    K'(s) = y has one root below the pole at a_min; 1/K' is nearly linear in s at
    both ends, so Newton runs on it, from the bracket's end nearer the mean and
    safeguarded by the bracket.
    """
    s = [l if math.isfinite(l) else h for l, h in zip(lo, hi)]
    live = list(range(len(y)))
    for _ in range(100):
        if not live:
            break
        z = shapes - np.array([s[i] for i in live])[:, None]
        steps = zip(live, _k1(z, signs).tolist(), _dot(_special().zeta(2, z), signs).tolist())
        live = []
        for i, g, k2 in steps:
            if abs(g - y[i]) <= 1e-12 * y[i]:
                continue
            if g > y[i]:
                hi[i] = s[i]
            else:
                lo[i] = s[i]
            try:
                step = s[i] + g * (1.0 - g / y[i]) / k2
            except ZeroDivisionError:
                s[i] = None
                continue
            if not lo[i] < step < hi[i]:
                step = 0.5 * (lo[i] + hi[i]) if math.isfinite(lo[i]) else 2.0 * s[i] - 1.0
            if step != s[i]:  # else a fixed point: every later step would repeat this one
                s[i] = step
                live.append(i)
    return s


def wilks_lrt_tail(x, n: int, p: int, m: int, r: int):
    """Exact null upper tail P(-2 log L_n > x) of the likelihood ratio for C B = 0,
    element-wise in x.

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
    y = np.asarray(x, dtype=float) / n
    if r < m:
        m, r, df = r, m, df + r - m
    shapes, signs, a_min, h, y_lo, y_hi, p_lo, p_hi, y_one, y_zero = _wilks_terms(df, m, r)
    ys = y.ravel().tolist()
    tails, sp_at = [], []
    # outside the center window the tail is its limit, unless the saddlepoint, run
    # only for 0 < y within both cuts, gives one; every law has 0 < y_lo, y_one < y_lo
    # and y_hi < y_zero, so x <= 0 and x past a cut keep the limit of their side
    for i, y_i in enumerate(ys):
        if y_lo <= y_i <= y_hi:
            tails.append(p_lo + (p_hi - p_lo) * (y_i - y_lo) / (y_hi - y_lo))
        else:
            tails.append(0.0 if y_i > y_hi else 1.0)
            if 0.0 < y_i and y_one <= y_i <= y_zero:
                sp_at.append(i)
    if sp_at:
        y_sp = [ys[i] for i in sp_at]
        up = [y_i > y_hi for y_i in y_sp]
        roots = _saddlepoints(shapes, signs, y_sp, [h if u else -math.inf for u in up],
                              [a_min if u else -h for u in up])
        found = [k for k, s in enumerate(roots) if s is not None]
        for k, t in zip(found, _lr_tail(shapes, signs, [roots[k] for k in found],
                                        [y_sp[k] for k in found])):
            if t is not None:
                tails[sp_at[k]] = min(1.0, max(0.0, t))
    return np.array(tails).reshape(y.shape) if y.ndim else tails[0]


@lru_cache(maxsize=1024)
def _wilks_terms(df: int, m: int, r: int):
    """The parts of wilks_lrt_tail that depend only on the law, with m <= r.

    The shapes and signs of the cumulant generating function, the smallest
    shape a_min (its pole), and the center window: its half-width h, the
    points y_lo = K'(-h) and y_hi = K'(h), and the tails at both ends. Near
    the mean the saddlepoint terms u and w both vanish and their reciprocals
    cancel, so the tail is interpolated linearly between -h and +h there.

    Last, y_zero = (K(s0) + 800) / s0 at s0 = a_min / 2, above which the tail
    is 0.0 without Newton: s y - K(s) is concave in s and largest at the
    saddlepoint, so there it exceeds s0 y - K(s0) > 800. Then w > 40, and both
    Lugannani-Rice terms underflow to 0.0, as does the Chernoff bound
    exp(K(s0) - s0 y) on the exact tail; the exception path returns 0.0 too.
    Mirrored at s1 < 0, y_one = (K(s1) + 800) / s1, below which the tail is 1.0:
    there w < -40, so ndtr(-w) is 1.0 and the second term underflows, and the
    exception path returns 1.0. Any s1 < 0 gives a valid cut. Taking K(s) as
    -(m r / 2) log(1 - s / a_min), its growth as s goes to -inf, the largest
    y_one lies near s1 = -a_min (e^(1 + 1600 / (m r)) - 1); the exponent is
    capped at 14, which keeps the rounding of K(s1) far below 800, and y_one
    may then be negative.
    """
    a = 0.5 * (df - np.arange(m, dtype=float))
    shapes = np.concatenate([a, a + 0.5 * r])
    signs = np.concatenate([np.ones(m), -np.ones(m)])
    shapes.flags.writeable = signs.flags.writeable = False
    h = _CENTER_SD / math.sqrt(float(signs @ _special().zeta(2, shapes)))
    ys = _k1(shapes - np.array([[-h], [h]]), signs).tolist()
    ps = _lr_tail(shapes, signs, [-h, h], ys)
    if None in ps:
        raise FloatingPointError("the saddlepoint fails at the center window")
    a_min = float(a[-1])
    s0, s1 = 0.5 * a_min, -a_min * math.expm1(min(1.0 + 1600.0 / (m * r), 14.0))
    k0, k1 = signs @ (_special().gammaln(shapes - np.array([[s0], [s1]]))
                      - _special().gammaln(shapes)).T
    return (shapes, signs, a_min, h, *ys, *ps,
            float(k1 + 800.0) / s1, float(k0 + 800.0) / s0)


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
