"""Hypothesis tests for C B = 0 and their reference distributions.

Five tests share the sums-of-squares pair: the classical chi-square
approximation of -2 log L_n, its Bartlett correction, the dimension-corrected
normal statistic t1, the largest-root statistic t2 referred to a Tracy-Widom
law, and the combination t3 = t1 + t2 * 1{t2 >= F_n}. They read -2 log L_n
and the relative eigenvalues that the pair computes once from one Cholesky
factor of S_E, and TESTS maps each method name to its test. All p-values are
one-sided upper tails: every test here rejects for large statistics.

Each test is one function written over arrays: given one pair it returns a
TestReport of floats, and given a stack of pairs the same report with one
array entry per pair. The Monte Carlo sweeps count from statistic arrays:
``_statistics`` screens a stack once for t2 and t3 and raises what its tests
raise, and ``_counts`` refers many stacks' arrays at once to their laws.

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
    tw1_upper_quantile,
)
from .errors import DegenerateRootError, DomainError, RegimeError, check_level, check_real
from .model import Dims, SumsOfSquares, neg2_log_lrt, theta_max


@dataclass
class TestReport:
    """Outcome of a test: method tag, statistic, p-value, diagnostics; floats
    for one pair, arrays with an entry per pair for a stack. Each value or
    entry must pass check_real as finite, the p-value in [0, 1]."""

    method: str
    statistic: float
    p_value: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in TESTS:
            raise DomainError(f"unknown method tag {self.method!r}")
        self.p_value = _checked("p_value", self.p_value, unit=True)
        self.statistic = _checked("statistic", self.statistic)
        self.diagnostics = {k: _checked(f"diagnostic {k}", v) for k, v in self.diagnostics.items()}

    def __eq__(self, other):
        """Same method and diagnostic names, and every value equal entry by entry."""
        if not isinstance(other, TestReport) or self.diagnostics.keys() != other.diagnostics.keys():
            return False
        mine, theirs = ([r.statistic, r.p_value, *map(r.diagnostics.get, self.diagnostics)]
                        for r in (self, other))
        return self.method == other.method and all(map(np.array_equal, mine, theirs))


def _checked(name: str, v, unit: bool = False):
    """v once check_real passes it, finite or in [0, 1] if ``unit``; a float unless it has an axis."""
    check_real(name, v, *((0.0, 1.0, "[]") if unit else ()))
    return v if np.ndim(v) else float(v)


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


def _p_value(method: str, stat, dims: Dims):
    """Upper-tail p-value(s) of a method's statistic under its reference law."""
    return (chi_sq_tail(stat, dims.m * dims.r) if method in ("chi2", "bartlett") else
            1.0 - tw1_cdf(stat) if method == "t2" else std_normal_tail(stat))


def t1_test(ss: SumsOfSquares) -> TestReport:
    """Dimension-corrected normal test: (-2 log L_n + mu_n) / (n sigma_n)."""
    stat, mu, n_sigma, neg2 = _t1_stat(ss)
    return TestReport("t1", stat, _p_value("t1", stat, ss.dims),
                      {"mu_n": mu, "n_sigma_n": n_sigma, "neg2_log_lrt": neg2})


def chi2_test(ss: SumsOfSquares) -> TestReport:
    """Classical approximation: -2 log L_n against chi-square with mr df."""
    neg2 = neg2_log_lrt(ss)
    return TestReport("chi2", neg2, _p_value("chi2", neg2, ss.dims), {"df": ss.dims.m * ss.dims.r})


def bartlett_rho(dims: Dims) -> float:
    """Bartlett correction factor 1 - (p - r/2 + m/2 + 1/2)/n."""
    return 1.0 - (dims.p - dims.r / 2.0 + dims.m / 2.0 + 0.5) / dims.n


def _bartlett_stat(ss: SumsOfSquares):
    """Bartlett's statistic rho * (-2 log L_n) with its rho."""
    rho = bartlett_rho(ss.dims)
    if rho <= 0.0:
        raise RegimeError(f"Bartlett correction factor rho={rho:.4g} <= 0 at {ss.dims}; "
                          "the correction is meaningless here")
    return rho * neg2_log_lrt(ss), rho


def bartlett_test(ss: SumsOfSquares) -> TestReport:
    """Bartlett-corrected chi-square test: rho * (-2 log L_n) against chi2_mr."""
    stat, rho = _bartlett_stat(ss)
    return TestReport("bartlett", stat, _p_value("bartlett", stat, ss.dims),
                      {"rho": rho, "df": ss.dims.m * ss.dims.r})


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


def _t2_stat(ss: SumsOfSquares):
    """t2's statistic with its (mu_tilde, sigma_tilde, theta)."""
    mu_t, sigma_t = t2_params(ss.dims)
    theta = theta_max(ss)
    flat = (theta <= 0.0) | (theta >= 1.0)
    if np.any(flat):
        theta = float(np.extract(flat, theta)[0])
        raise DegenerateRootError(f"largest root theta={theta!r} has no logit")
    return (np.log(theta / (1.0 - theta)) - mu_t) / sigma_t, mu_t, sigma_t, theta


def t2_test(ss: SumsOfSquares) -> TestReport:
    """Largest-root test: standardized logit of theta against Tracy-Widom order 1."""
    stat, mu_t, sigma_t, theta = _t2_stat(ss)
    return TestReport("t2", stat, _p_value("t2", stat, ss.dims),
                      {"mu_tilde": mu_t, "sigma_tilde": sigma_t, "theta": theta})


def default_f_rule(n: int) -> float:
    """Combination threshold F_n = max(log log n, 2)."""
    if n < 3:
        raise DomainError(f"F_n needs n >= 3, got {n}")
    return max(math.log(math.log(n)), 2.0)


def _t3_stat(t1, t2, f_n: float):
    """t3's statistic from the t1 and t2 statistics."""
    return t1 + np.where(t2 >= f_n, t2, 0.0)


def t3_test(ss: SumsOfSquares) -> TestReport:
    """Combined test t3 = t1 + t2 * 1{t2 >= F_n}, referred to the normal null.

    Under the null the indicator vanishes asymptotically, so the reference
    stays standard normal; the added term only fires on strong largest-root
    evidence. F_n = default_f_rule(n) stays at 2 for every n below e^(e^2),
    about 1618, and there the indicator fires on about 1% of null draws, each
    time adding at least 2 to the statistic, so normal p-values of t3 below
    about 1e-2 are too small. Only the two statistics are computed, not t1's
    and t2's p-values.
    """
    t1, t2, f_n = _t1_stat(ss)[0], _t2_stat(ss)[0], default_f_rule(ss.dims.n)
    stat = _t3_stat(t1, t2, f_n)
    return TestReport("t3", stat, _p_value("t3", stat, ss.dims), {"t1": t1, "t2": t2, "f_n": f_n})


#: method name -> test; the sweeps, the CLI and TestReport look methods up here
TESTS = {
    "chi2": chi2_test,
    "bartlett": bartlett_test,
    "t1": t1_test,
    "t2": t2_test,
    "t3": t3_test,
}


#: relative gap between the screen's cut and the root at which t2 reaches the
#: critical value or F_n: far above the rounding of a computed root (about
#: 1e-13) and of the bisected critical value (1e-12), it keeps a cleared
#: pair's t2 CDF about 1e-5 below 1 - alpha at alpha = 0.05
_SCREEN_MARGIN = 1e-4


def _flagged(ss: SumsOfSquares, alpha: float) -> np.ndarray:
    """Indices of the pairs of a stack that t2 could reject at level alpha, or
    whose t2 could reach F_n; the screen clears every other pair.

    t2 < s is the largest root below exp(mu_tilde + sigma_tilde s), so a pair
    whose root is proven below that root at s = min(critical value, F_n),
    less _SCREEN_MARGIN, has a t2 p-value above alpha (tw1_cdf falls
    nowhere by more than rounding) and a t3 equal to its t1. The dimension
    checks and the factor of S_E come first, in t2_test's order, so a stack
    raises what t2_test raises.
    """
    mu_t, sigma_t = t2_params(ss.dims)
    s = min(tw1_upper_quantile(alpha), default_f_rule(ss.dims.n))
    return np.flatnonzero(~ss._roots_below(math.exp(mu_t + sigma_t * s) * (1.0 - _SCREEN_MARGIN)))


def _statistics(ss: SumsOfSquares, methods, alpha: float) -> list:
    """Each method's statistic array for a stack, computed and raising in order as its test
    does, t2 only on the pairs that ``_flagged`` flags: a non-finite entry raises here."""
    flagged, stats = None, []
    for meth in methods:
        if meth in ("chi2", "bartlett", "t1"):
            stat = (neg2_log_lrt(ss) if meth == "chi2" else
                    (_bartlett_stat if meth == "bartlett" else _t1_stat)(ss)[0])
        else:
            t1 = _t1_stat(ss)[0] if meth == "t3" else None  # before the root, as in t3_test
            if flagged is None:
                flagged = _flagged(ss, alpha)
                sub = ss._pairs(flagged)  # t2 and t3 share its relative eigenvalues
            stat = _t2_stat(sub)[0]
        if meth == "t3":
            t2 = np.zeros(t1.shape)  # a cleared pair's t2 is below F_n >= 2, which 0 stands for
            t2[flagged] = stat
            stat = _t3_stat(t1, t2, default_f_rule(ss.dims.n))
        if not np.isfinite(stat).all():
            _counts([stat], [meth], ss.dims, alpha)  # raises what the test's report raises
        if meth == "t3":
            _checked("diagnostic t2", t2)  # a NaN t2 leaves t3 at t1, not t3_test's report
        stats.append(stat)
    return stats


def _counts(stats, methods, dims: Dims, alpha: float) -> np.ndarray:
    """How many entries of each statistic array (one stack or many) reject at level alpha,
    each checked as its TestReport checks it: p-value in [0, 1], then a finite statistic."""
    counts = []
    for meth, stat in zip(methods, stats):
        p_value = _checked("p_value", _p_value(meth, stat, dims), unit=True)
        _checked("statistic", stat)
        counts.append(np.count_nonzero(p_value <= alpha))
    return np.array(counts)


def _rejections(ss: SumsOfSquares, methods, alpha: float) -> np.ndarray:
    """How many pairs of a stack each method's test rejects at level alpha."""
    return _counts(_statistics(ss, methods, alpha), methods, ss.dims, alpha)


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
