"""Hypothesis tests for C B = 0 and their reference distributions.

Five tests share the sums-of-squares pair: the classical chi-square
approximation of -2 log L_n, its Bartlett correction, the dimension-corrected
normal statistic t1, the largest-root statistic t2 referred to a Tracy-Widom
law, and the combination t3 = t1 + t2 * 1{t2 >= F_n}. They read -2 log L_n
and the relative eigenvalues that the pair computes once from one Cholesky
factor of S_E, and TESTS maps each method name to its test. All p-values are
one-sided upper tails: every test here rejects for large statistics.

Each test is one formula, (statistic, p-value, diagnostics) of a
SumsOfSquares, written over arrays: the test function applies it to one
pair and returns a TestReport, and the Monte Carlo sweeps apply it to a
stack of pairs and count rejections (``_rejections``).

boundary_check quantifies how far a dimension quadruple sits from the regime
where the plain chi-square (or Bartlett-corrected) approximation is trusted.
theoretical_power predicts the t1 power under proportional-growth asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    chi_sq_tail,
    std_normal_tail,
    std_normal_upper_quantile,
    tw1_cdf,
)
from .errors import DegenerateRootError, DomainError, RegimeError, check_level, check_real
from .model import Dims, SumsOfSquares, neg2_log_lrt, theta_max


@dataclass
class TestReport:
    """Outcome of a single test: method tag, statistic, p-value, diagnostics."""

    method: str
    statistic: float
    p_value: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in TESTS:
            raise DomainError(f"unknown method tag {self.method!r}")
        check_real("p_value", self.p_value, 0.0, 1.0, "[]")
        check_real("statistic", self.statistic)
        for k, v in self.diagnostics.items():
            check_real(f"diagnostic {k}", v)


def _report(method: str, statistic, p_value, diagnostics: dict) -> TestReport:
    """The TestReport of one pair's formula values."""
    return TestReport(method, float(statistic), float(p_value),
                      {k: float(v) for k, v in diagnostics.items()})


@dataclass(frozen=True)
class BoundaryDiag:
    """Distance-from-validity metrics for the chi-square approximations."""

    chi2_metric: float
    bartlett_metric: float
    lrt_defined: bool

    @staticmethod
    def verdict(metric: float) -> str:
        """Heuristic reading of a metric: safe below 0.1, marginal below 0.5."""
        if metric <= 0.1:
            return "safe"
        if metric <= 0.5:
            return "marginal"
        return "unsafe"


@dataclass(frozen=True)
class PowerSpec:
    """Inputs of the asymptotic power prediction for t1.

    deltas are the fixed nonzero eigenvalues of the per-sample noncentrality;
    rho_p, rho_r, rho_m are the limits of p/n, r/n, m/n.
    """

    deltas: tuple
    rho_p: float
    rho_r: float
    rho_m: float
    alpha: float = 0.05

    def __post_init__(self):
        deltas = tuple(self.deltas)
        for d in deltas:
            check_real("deltas", d, 0.0)
        object.__setattr__(self, "deltas", tuple(map(float, deltas)))
        for name in ("rho_p", "rho_r", "rho_m", "alpha"):
            check_level(name, getattr(self, name))


def mu_sigma(dims: Dims):
    """Centering and scaling of the corrected statistic: returns (mu_n, n*sigma_n).

    sigma_n^2 = (2/n^2) * n^2 log-ratio form; concretely
    sigma^2 = 2 log[ (n+r-p-m)(n-p) / ((n-p-m)(n+r-p)) ], and
    mu_n = n (n-m-p-1/2) log(ratio) + n r log[(n+r-p-m)/(n+r-p)]
         + n m log[(n-p)/(n+r-p)].
    The limits in the classical regime are mu_n -> -mr and (n sigma_n)^2 -> 2mr.
    """
    n, p, m, r = dims.n, dims.p, dims.m, dims.r
    # n > p + m also makes every log argument below positive (Dims has r <= p)
    if not dims.lrt_defined:
        raise RegimeError(f"mu_sigma needs n > p + m, got {dims}")
    a = n + r - p - m
    b = n - p
    c = n - p - m
    d = n + r - p
    log_ratio = math.log(a) + math.log(b) - math.log(c) - math.log(d)
    sigma_sq = 2.0 * log_ratio
    mu = (
        n * (n - m - p - 0.5) * log_ratio
        + n * r * (math.log(a) - math.log(d))
        + n * m * (math.log(b) - math.log(d))
    )
    return float(mu), float(n * math.sqrt(sigma_sq))


def _t1_stat(ss: SumsOfSquares):
    """t1's statistic with its (mu_n, n sigma_n, -2 log L_n)."""
    mu, n_sigma = mu_sigma(ss.dims)
    neg2 = neg2_log_lrt(ss)
    return (neg2 + mu) / n_sigma, mu, n_sigma, neg2


def _t1(ss: SumsOfSquares):
    stat, mu, n_sigma, neg2 = _t1_stat(ss)
    return stat, std_normal_tail(stat), {"mu_n": mu, "n_sigma_n": n_sigma, "neg2_log_lrt": neg2}


def t1_test(ss: SumsOfSquares) -> TestReport:
    """Dimension-corrected normal test: (-2 log L_n + mu_n) / (n sigma_n)."""
    return _report("t1", *_t1(ss))


def _chi2(ss: SumsOfSquares):
    neg2 = neg2_log_lrt(ss)
    df = ss.dims.m * ss.dims.r
    return neg2, chi_sq_tail(neg2, df), {"df": float(df)}


def chi2_test(ss: SumsOfSquares) -> TestReport:
    """Classical approximation: -2 log L_n against chi-square with mr df."""
    return _report("chi2", *_chi2(ss))


def bartlett_rho(dims: Dims) -> float:
    """Bartlett correction factor 1 - (p - r/2 + m/2 + 1/2)/n."""
    return 1.0 - (dims.p - dims.r / 2.0 + dims.m / 2.0 + 0.5) / dims.n


def _bartlett(ss: SumsOfSquares):
    rho = bartlett_rho(ss.dims)
    if rho <= 0.0:
        raise RegimeError(
            f"Bartlett correction factor rho={rho:.4g} <= 0 at {ss.dims}; "
            "the correction is meaningless here"
        )
    df = ss.dims.m * ss.dims.r
    stat = rho * neg2_log_lrt(ss)
    return stat, chi_sq_tail(stat, df), {"rho": rho, "df": float(df)}


def bartlett_test(ss: SumsOfSquares) -> TestReport:
    """Bartlett-corrected chi-square test: rho * (-2 log L_n) against chi2_mr."""
    return _report("bartlett", *_bartlett(ss))


def boundary_check(dims: Dims) -> BoundaryDiag:
    """Metrics that must vanish for the classical approximations to hold.

    chi2_metric = sqrt(mr) (p + m/2 - r/2) / n; the plain chi-square
    approximation is valid exactly when this tends to zero.
    bartlett_metric = sqrt(mr) (r^2 + m^2) / n^2, the analogue after Bartlett
    correction.
    """
    m, r, n, p = dims.m, dims.r, dims.n, dims.p
    root = math.sqrt(m * r)
    return BoundaryDiag(
        chi2_metric=root * (p + m / 2.0 - r / 2.0) / n,
        bartlett_metric=root * (r**2 + m**2) / n**2,
        lrt_defined=dims.lrt_defined,
    )


def t2_params(dims: Dims):
    """Centering and scaling (mu_tilde, sigma_tilde) of the largest-root logit."""
    n, p, m, r = dims.n, dims.p, dims.m, dims.r
    N = n - p + r - 1
    lo, hi = min(m, r), max(m, r)
    # N > hi >= lo >= 1 keeps both asin arguments inside (0, 1)
    if N <= hi:
        raise RegimeError(f"t2 needs n - p + r - 1 > max(m, r), got N={N} at {dims}")
    gamma = 2.0 * math.asin(math.sqrt((lo - 0.5) / N))
    phi = 2.0 * math.asin(math.sqrt((hi - 0.5) / N))
    mu_t = 2.0 * math.log(math.tan((phi + gamma) / 2.0))
    sigma_cubed = 16.0 / (N * N * math.sin(phi + gamma) ** 2 * math.sin(phi) * math.sin(gamma))
    return mu_t, sigma_cubed ** (1.0 / 3.0)


def _t2_stat(ss: SumsOfSquares, convention: str):
    """t2's statistic with its (mu_tilde, sigma_tilde, theta)."""
    mu_t, sigma_t = t2_params(ss.dims)
    theta = theta_max(ss, convention)
    flat = (theta <= 0.0) | (theta >= 1.0)
    if np.any(flat):
        theta = float(np.extract(flat, theta)[0])
        raise DegenerateRootError(f"largest root theta={theta!r} has no logit")
    return (np.log(theta / (1.0 - theta)) - mu_t) / sigma_t, mu_t, sigma_t, theta


def _t2(ss: SumsOfSquares, convention: str = "johnstone"):
    stat, mu_t, sigma_t, theta = _t2_stat(ss, convention)
    return stat, 1.0 - tw1_cdf(stat), {"mu_tilde": mu_t, "sigma_tilde": sigma_t, "theta": theta}


def t2_test(ss: SumsOfSquares, convention: str = "johnstone") -> TestReport:
    """Largest-root test: standardized logit of theta against Tracy-Widom order 1."""
    return _report("t2", *_t2(ss, convention))


def default_f_rule(n: int) -> float:
    """Combination threshold F_n = max(log log n, 2)."""
    if n < 3:
        raise DomainError(f"F_n needs n >= 3, got {n}")
    return max(math.log(math.log(n)), 2.0)


def _t3(ss: SumsOfSquares, convention: str = "johnstone"):
    t1 = _t1_stat(ss)[0]
    t2 = _t2_stat(ss, convention)[0]
    f_n = default_f_rule(ss.dims.n)
    stat = t1 + np.where(t2 >= f_n, t2, 0.0)
    return stat, std_normal_tail(stat), {"t1": t1, "t2": t2, "f_n": f_n}


def t3_test(ss: SumsOfSquares, convention: str = "johnstone") -> TestReport:
    """Combined test t3 = t1 + t2 * 1{t2 >= F_n}, referred to the normal null.

    Under the null the indicator vanishes asymptotically, so the reference
    stays standard normal; the added term only fires on strong largest-root
    evidence. F_n = default_f_rule(n) stays at 2 for every n below e^(e^2),
    about 1618, and there the indicator fires on about 1% of null draws, each
    time adding at least 2 to the statistic, so normal p-values of t3 below
    about 1e-2 are too small. Only the two statistics are computed, not t1's
    and t2's p-values.
    """
    return _report("t3", *_t3(ss, convention))


#: method name -> test; the sweeps, the CLI and TestReport look methods up here
TESTS = {
    "chi2": chi2_test,
    "bartlett": bartlett_test,
    "t1": t1_test,
    "t2": t2_test,
    "t3": t3_test,
}

#: method name -> the formula its test applies to one pair
_FORMULAS = {"chi2": _chi2, "bartlett": _bartlett, "t1": _t1, "t2": _t2, "t3": _t3}


def _rejections(ss: SumsOfSquares, methods, alpha: float) -> np.ndarray:
    """How many pairs of a stack each method rejects at level alpha.

    Every method applies its test's formula to the whole stack, with the
    default largest-root convention. The reference tails raise on a
    non-finite statistic and return values in [0, 1], so each pair meets
    TestReport's checks without a report being built.
    """
    return np.array([np.count_nonzero(_FORMULAS[meth](ss)[1] <= alpha) for meth in methods])


def theoretical_power(spec: PowerSpec) -> float:
    """Predicted t1 power under proportional growth with fixed spike sizes.

    With shorthand g = 1 + rho_r - rho_p:
    W = sum_j log(1 + delta_j / g), sigma^2 = 2 log[(1 - rho_m/g)/(1 - rho_m/(1 - rho_p))],
    and the prediction is 1 - Phi(z_alpha - W / sigma). This sigma is the
    n-scaled limit of the sigma_n in mu_sigma, and n^{-1}(-2 log L_n) moves by
    W under the alternative, so t1 = (-2 log L_n + mu_n)/(n sigma_n) moves by
    W / sigma.
    """
    if spec.rho_p + spec.rho_m >= 1.0:
        raise RegimeError(
            f"power formula needs rho_p + rho_m < 1, got {spec.rho_p} + {spec.rho_m}"
        )
    g = 1.0 + spec.rho_r - spec.rho_p
    sigma_sq = 2.0 * math.log((1.0 - spec.rho_m / g) / (1.0 - spec.rho_m / (1.0 - spec.rho_p)))
    if sigma_sq <= 0.0:
        raise RegimeError(f"power formula variance is nonpositive ({sigma_sq:.4g})")
    w = sum(math.log1p(d / g) for d in spec.deltas)
    z = std_normal_upper_quantile(spec.alpha)
    return std_normal_tail(z - w / math.sqrt(sigma_sq))
