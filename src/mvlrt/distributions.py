"""Scalar distribution primitives.

Standard normal and chi-square tails and quantiles, beta sampling, the exact
null tail of the likelihood ratio (Wilks' Lambda), and the Tracy-Widom law of
order 1. Order 1 is the orthogonal (real-data) case; that
choice matters for the largest-root test and is documented in the README.

The Tracy-Widom CDF is realized as an embedded table (``data/tw1_cdf.csv``,
regenerated by ``scripts/make_tw1_table.py``) with monotone cubic
interpolation inside the grid and asymptotically shaped tails outside it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from importlib import resources

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaincc, gammainccinv, gammaln, ndtr, ndtri, psi, zeta

from .errors import DataFormatError, DomainError

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def std_normal_tail(x: float) -> float:
    """Upper tail 1 - Phi(x) of the standard normal."""
    if not math.isfinite(x):
        raise DomainError(f"std_normal_tail: x must be finite, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def std_normal_upper_quantile(alpha: float) -> float:
    """The z with P(Z > z) = alpha, for alpha in (0, 1)."""
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise DomainError(f"std_normal_upper_quantile: alpha must lie in (0,1), got {alpha!r}")
    return float(-ndtri(alpha))


def chi_sq_tail(x: float, df: int) -> float:
    """Upper tail P(chi2_df > x); the regularized upper incomplete gamma."""
    if not math.isfinite(x):
        raise DomainError(f"chi_sq_tail: x must be finite, got {x!r}")
    if int(df) != df or df < 1:
        raise DomainError(f"chi_sq_tail: df must be a positive integer, got {df!r}")
    if x <= 0.0:
        return 1.0
    return float(gammaincc(0.5 * df, 0.5 * x))


def chi_sq_upper_quantile(alpha: float, df: int) -> float:
    """Upper alpha-quantile of the chi-square law with df degrees of freedom.

    Computed through the inverse regularized incomplete gamma function:
    the returned x satisfies P(chi2_df > x) = alpha.
    """
    if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
        raise DomainError(f"chi_sq_upper_quantile: alpha must lie in (0,1), got {alpha!r}")
    if int(df) != df or df < 1:
        raise DomainError(f"chi_sq_upper_quantile: df must be a positive integer, got {df!r}")
    return float(2.0 * gammainccinv(0.5 * df, alpha))


class Tw1Table:
    """Tabulated CDF of the Tracy-Widom law of order 1.

    The table must cover at least s in [-10, 6] with grid spacing <= 0.05,
    reach below 1e-8 at s = -10 and above 1 - 1e-8 at its right end, and be
    monotone. The embedded asset spans [-12, 10] at spacing 0.02.
    """

    #: grid bounds every valid table has to cover
    COVER_LO = -10.0
    COVER_HI = 6.0
    MAX_SPACING = 0.05
    TAIL_EPS = 1e-8

    def __init__(self, s, F):
        s = np.asarray(s, dtype=float)
        F = np.asarray(F, dtype=float)
        if s.ndim != 1 or s.shape != F.shape or s.size < 2:
            raise DomainError("Tw1Table: s and F must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(F))):
            raise DomainError("Tw1Table: non-finite table entries")
        if np.any(np.diff(s) <= 0):
            raise DomainError("Tw1Table: s must be strictly increasing")
        if np.any(np.diff(F) < 0) or F[0] < 0.0 or F[-1] > 1.0:
            raise DomainError("Tw1Table: F must be non-decreasing within [0,1]")
        if s[0] > self.COVER_LO or s[-1] < self.COVER_HI:
            raise DomainError(f"Tw1Table: grid must cover [{self.COVER_LO}, {self.COVER_HI}]")
        if np.max(np.diff(s)) > self.MAX_SPACING + 1e-12:
            raise DomainError(f"Tw1Table: grid spacing exceeds {self.MAX_SPACING}")
        i_lo = np.searchsorted(s, self.COVER_LO, side="right") - 1
        if F[i_lo] >= self.TAIL_EPS:
            raise DomainError("Tw1Table: F at s = -10 must be below 1e-8")
        if F[-1] <= 1.0 - self.TAIL_EPS:
            raise DomainError("Tw1Table: F at the right grid end must exceed 1 - 1e-8")
        self.s = s
        self.F = F
        self._interp = PchipInterpolator(s, F, extrapolate=False)

    @classmethod
    def load(cls, path) -> "Tw1Table":
        """Read a two-column "s,F" CSV, the format of ``data/tw1_cdf.csv``."""
        s_vals, f_vals = [], []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header.replace(" ", "") != "s,F":
                raise DataFormatError(f"{path}: expected header 's,F', got {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise DataFormatError(f"{path}: line {lineno}: expected two fields")
                try:
                    s_vals.append(float(parts[0]))
                    f_vals.append(float(parts[1]))
                except ValueError as exc:
                    raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        return cls(s_vals, f_vals)

    def cdf(self, s: float) -> float:
        """Interpolated CDF with asymptotically shaped tail extrapolation."""
        if not math.isfinite(s):
            raise DomainError(f"tw1_cdf: s must be finite, got {s!r}")
        s0, s1 = self.s[0], self.s[-1]
        if s <= s0:
            # left tail falls like exp(-|s|^3 / 24), matched at the grid end
            return float(self.F[0] * math.exp(-(abs(s) ** 3 - abs(s0) ** 3) / 24.0))
        if s >= s1:
            # right tail: 1 - F ~ exp(-(2/3) s^{3/2})
            surv = (1.0 - self.F[-1]) * math.exp(-(2.0 / 3.0) * (s**1.5 - s1**1.5))
            return float(1.0 - surv)
        return float(min(1.0, max(0.0, self._interp(s))))

    def upper_quantile(self, alpha: float) -> float:
        """The s with cdf(s) = 1 - alpha, by bisection."""
        if not (0.0 < alpha < 1.0) or not math.isfinite(alpha):
            raise DomainError(f"tw1_upper_quantile: alpha must lie in (0,1), got {alpha!r}")
        target = 1.0 - alpha
        lo, hi = float(self.s[0]), float(self.s[-1])
        while self.cdf(lo) > target:
            lo -= 5.0
        while self.cdf(hi) < target:
            hi += 5.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        return 0.5 * (lo + hi)


@lru_cache(maxsize=1)
def _embedded_table() -> Tw1Table:
    ref = resources.files("mvlrt").joinpath("data/tw1_cdf.csv")
    with resources.as_file(ref) as path:
        return Tw1Table.load(path)


def tw1_cdf(s: float) -> float:
    """CDF of the Tracy-Widom law of order 1 (embedded table)."""
    return _embedded_table().cdf(s)


def tw1_upper_quantile(alpha: float) -> float:
    """Upper alpha-quantile of the Tracy-Widom law of order 1."""
    return _embedded_table().upper_quantile(alpha)


#: half-width, in standard deviations of -log(Lambda), of the window around
#: the mean where the saddlepoint terms cancel and the tail is interpolated
_CENTER_SD = 0.02


def _lr_tail(shapes, signs, s: float, y: float) -> float:
    """Second-order Lugannani-Rice upper tail at saddlepoint s of the point y.

    Daniels (1987); Butler (2007), eq. 2.48. The cumulant generating function
    K(s) = sum(signs * (lgamma(shapes - s) - lgamma(shapes))) has derivatives
    K^(k)(s) = (k-1)! sum(signs * zeta(k, shapes - s)) for k >= 2.
    """
    z = shapes - s
    k0 = float(signs @ (gammaln(z) - gammaln(shapes)))
    k2 = float(signs @ zeta(2, z))
    l3 = 2.0 * float(signs @ zeta(3, z)) / k2 ** 1.5
    l4 = 6.0 * float(signs @ zeta(4, z)) / k2 ** 2
    w = math.copysign(math.sqrt(max(2.0 * (s * y - k0), 0.0)), s)
    u = s * math.sqrt(k2)
    terms = (1.0 / u - 1.0 / w + (l4 / 8.0 - 5.0 * l3 * l3 / 24.0) / u
             - l3 / (2.0 * u * u) - 1.0 / u ** 3 + 1.0 / w ** 3)
    return float(ndtr(-w)) + math.exp(-0.5 * w * w) / _SQRT_2PI * terms


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
    if not math.isfinite(x):
        raise DomainError(f"wilks_lrt_tail: x must be finite, got {x!r}")
    for name, v in (("n", n), ("p", p), ("m", m), ("r", r)):
        if int(v) != v or v < 1:
            raise DomainError(f"wilks_lrt_tail: {name} must be a positive integer, got {v!r}")
    df = n - p
    if df < m:
        raise DomainError(f"wilks_lrt_tail needs n - p >= m, got n={n}, p={p}, m={m}")
    y = x / n
    if y <= 0.0:
        return 1.0
    if r < m:
        m, r, df = r, m, df + r - m
    a = 0.5 * (df - np.arange(m, dtype=float))
    shapes = np.concatenate([a, a + 0.5 * r])
    signs = np.concatenate([np.ones(m), -np.ones(m)])

    def k1(s):
        return -float(signs @ psi(shapes - s))

    # near the mean u and w both vanish and their reciprocals cancel:
    # interpolate linearly between the saddlepoints at s = -h and s = +h
    h = _CENTER_SD / math.sqrt(float(signs @ zeta(2, shapes)))
    y_lo, y_hi = k1(-h), k1(h)
    if y_lo <= y <= y_hi:
        p_lo, p_hi = _lr_tail(shapes, signs, -h, y_lo), _lr_tail(shapes, signs, h, y_hi)
        return p_lo + (p_hi - p_lo) * (y - y_lo) / (y_hi - y_lo)
    # K'(s) = y has one root below the pole at a_min; 1/K' is nearly linear in
    # s at both ends, so Newton runs on it, safeguarded by the bracket
    lo, hi = (h, a[-1]) if y > y_hi else (-math.inf, -h)
    s = lo if y > y_hi else hi
    for _ in range(100):
        g = k1(s)
        if abs(g - y) <= 1e-12 * y:
            break
        if g > y:
            hi = s
        else:
            lo = s
        step = s + g * (1.0 - g / y) / float(signs @ zeta(2, shapes - s))
        if not lo < step < hi:
            step = 0.5 * (lo + hi) if math.isfinite(lo) else 2.0 * s - 1.0
        s = step
    return min(1.0, max(0.0, _lr_tail(shapes, signs, s, y)))


def sample_beta(rng: np.random.Generator, a: float, b: float, size=None):
    """Draw Beta(a, b) variates from two gamma draws on the given stream."""
    if not (a > 0.0 and b > 0.0) or not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"sample_beta: shapes must be positive finite, got a={a!r}, b={b!r}")
    g1 = rng.standard_gamma(a, size=size)
    g2 = rng.standard_gamma(b, size=size)
    out = g1 / (g1 + g2)
    if size is None:
        return float(out)
    return out
