"""Repeated-split testing for designs where the likelihood ratio is undefined.

When n < p + m the full-data test does not exist. A general hypothesis is
first rotated once, on the whole design, to the leading-identity form by
conditional_transform, and its r columns are protected from screening; a
leading-identity hypothesis is used as it is, with no SVD of C. Then each
round randomly splits the sample, screens predictors (and optionally
PCA-reduces responses) on one part, and tests on the other: its kept
columns, hypothesis first, go to the one QR of ``model._extra_ss``. The
per-split p-value refers -2 log L_n on the testing part to its exact null
law, Wilks' Lambda as a product of betas at the split's (n_T, p0, m0, q),
with q the hypothesis columns screening kept, so it is valid far into the
tail. The J per-split p-values are aggregated through an adaptive quantile
with a correction factor, giving a single p_t whose level is controlled for
any J: the aggregation compares the smallest p-value with a cutoff near
alpha * gamma_min / (1 - log gamma_min), and only a p-value that is valid at
that depth keeps the bound (Meinshausen, Meier & Buehlmann 2009).
no_split_pvalue is the J = 0 negative control: it screens and tests on the
same rows.

The splits run one after another in the calling thread, with BLAS on one
thread (see ``_blas``). A split runs on the private helpers of
``screening``, not on its public functions, because its arrays are slices
of the checked data set: it checks none of them again, forms one response
covariance for parallel analysis and PCA, and builds its (S_E, S_X) pair
with ``SumsOfSquares._of``.

Reproducibility: split j is driven entirely by a seed derived from
(config seed, j), so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import single_thread_blas
from .distributions import wilks_lrt_tail
from .errors import DomainError, SplitInfeasibleError, check_integer, check_level, check_real
from .model import DataSet, Dims, SumsOfSquares, _extra_ss, _hypothesis, neg2_log_lrt
from .rng import derive_seed, stream
from .screening import _budget, _centered_cov, _loadings, _pa_rank, _ranked, conditional_transform

GAMMA_MIN_FLOOR = 1e-4


@dataclass(frozen=True)
class MultiSplitConfig:
    """Knobs for the repeated-split procedure.

    ``pca_policy`` selects response reduction: None leaves Y alone,
    "parallel_analysis" picks the rank from permuted-data eigenvalues per
    split, and a positive integer fixes the rank. ``gamma_min`` defaults to
    0.5 / j_splits (slightly below 1/J) floored at 1e-4.
    """

    j_splits: int = 200
    gamma_min: float = None
    delta: float = 0.2
    split_ratio: float = 0.3
    seed: int = 0
    pca_policy: object = None

    def __post_init__(self):
        check_integer("j_splits", self.j_splits)
        check_integer("seed", self.seed, low=None)
        if self.gamma_min is not None:
            check_level("gamma_min", self.gamma_min)
        check_real("delta", self.delta, 0.0, 1.0, "(]")
        check_level("split_ratio", self.split_ratio)
        if self.pca_policy not in (None, "parallel_analysis"):
            check_integer("pca_policy", self.pca_policy)

    @property
    def resolved_gamma_min(self) -> float:
        if self.gamma_min is not None:
            return self.gamma_min
        return max(0.5 / self.j_splits, GAMMA_MIN_FLOOR)


@dataclass(frozen=True)
class SplitOutcome:
    """One split's p-value plus what the reduction kept."""

    p_value: float
    selected: tuple
    m0: int
    split_seed: int

    def __post_init__(self):
        check_real("p_value", self.p_value, 0.0, 1.0, "[]")


def split_indices(rng, n: int, ratio: float):
    """Uniformly random partition into screening and testing index sets.

    Returns sorted arrays (S, T) with |S| = round(ratio * n).
    """
    check_integer("n", n, low=4)
    check_level("ratio", ratio)
    n_s = int(round(ratio * n))
    if n_s < 1 or n - n_s < 1:
        raise DomainError(f"split sizes {n_s} and {n - n_s} are degenerate")
    perm = rng.permutation(n)
    return np.sort(perm[:n_s]), np.sort(perm[n_s:])


def _prepare_hypothesis(data: DataSet, C):
    """(X, r, protect): the design that every split uses, in which the
    hypothesis says that the coefficients of its first r columns vanish.

    A hypothesis already in leading-identity form is used as it is, with no
    protected columns. Any other is rotated by conditional_transform to
    [I_r 0], and its r rotated columns are protected from screening.
    """
    hyp = _hypothesis(C, data.p)
    return conditional_transform(data.X, hyp), hyp.r, 0 if hyp.rotation is None else hyp.r


def _split_outcome(data: DataSet, X, r, protect, cfg: MultiSplitConfig,
                   j: int, unsplit: bool = False) -> SplitOutcome:
    """Split j on a hypothesis prepared by _prepare_hypothesis: split, reduce, test.

    With unsplit set this is the J = 0 control, which screens and tests on
    every row; j then only seeds the dimension reduction.
    """
    rng = stream(cfg.seed, j)
    if unsplit:
        s_idx = t_idx = np.arange(data.n)
        label = "no-split run"
    else:
        s_idx, t_idx = split_indices(rng, data.n, cfg.split_ratio)
        label = f"split {j}"
    X_s, Y_s = X[s_idx], data.Y[s_idx]
    n_t = len(t_idx)
    m = data.m
    budget = _budget(cfg.delta, data.p, protect)

    w_hat = None
    m_eff = m
    if cfg.pca_policy is not None:
        cap = min(n_t - budget - 2, len(s_idx) - 1, m)
        if cap < 1:
            raise SplitInfeasibleError(
                f"{label}: no room for responses with n_T={n_t}, p0={budget}, m={m}")
        cov = _centered_cov(Y_s)
        if cfg.pca_policy == "parallel_analysis":
            m_eff = _pa_rank(rng, Y_s, cap, cov)
        else:
            m_eff = int(cfg.pca_policy)
            if m_eff > cap:
                raise SplitInfeasibleError(
                    f"{label}: fixed m0={m_eff} exceeds the feasible cap {cap}")
        w_hat, _ = _loadings(cov, m_eff)
        Y_s = Y_s @ w_hat

    cols = np.sort(_ranked(X_s, Y_s, budget, protect)[0])
    p0 = cols.size
    if n_t <= p0 + m_eff + 1:
        raise SplitInfeasibleError(
            f"{label}: testing half has n_T={n_t} but needs more than p0 + m0 + 1 = {p0 + m_eff + 1}")

    q = int(np.searchsorted(cols, r))  # selected hypothesis columns, the first q of cols
    if q == 0:
        # screening removed every hypothesis column: nothing to test, stay conservative
        p_val = 1.0
    else:
        Y_t = data.Y[t_idx]
        if w_hat is not None:
            Y_t = Y_t @ w_hat
        # _extra_ss checks both matrices finite and forms them as A' A by syrk: exactly symmetric
        s_err, s_hyp = _extra_ss(X[np.ix_(t_idx, cols)], Y_t, q)
        ss = SumsOfSquares._of(s_err, s_hyp, Dims(n_t, p0, m_eff, q))
        p_val = wilks_lrt_tail(neg2_log_lrt(ss), n_t, p0, m_eff, q)
    return SplitOutcome(float(p_val), tuple(cols.tolist()), m_eff, derive_seed(cfg.seed, j))


def per_split_pvalue(data: DataSet, C, cfg: MultiSplitConfig, j: int) -> SplitOutcome:
    """Run split j end to end: prepare the hypothesis, split, reduce, test.

    After screening, the hypothesis says that the coefficients of the q
    selected columns among its r vanish; one QR of the testing part's
    [X_rest X_hyp Y] gives the pair (S_E, S_X) at (n_T, p0, m0, q). If
    screening kept none of those columns (q = 0) the split returns p = 1.
    """
    return _split_outcome(data, *_prepare_hypothesis(data, C), cfg, j)


@single_thread_blas()
def no_split_pvalue(data: DataSet, C, cfg: MultiSplitConfig) -> SplitOutcome:
    """Screen and test on the same data: the deliberately unsafe J = 0 mode.

    Selection and testing reuse the same observations, so the p-value is not
    valid; this exists as a negative control demonstrating why splitting is
    required. The command-line front end refuses it without an override.
    """
    return _split_outcome(data, *_prepare_hypothesis(data, C), cfg, -1, unsplit=True)


def adaptive_pt(pvals, gamma_min: float) -> float:
    """Aggregate split p-values: the corrected infimum of Q over (gamma_min, 1).

    Q(gamma) is a step function whose infimum over each interval
    ((k-1)/J, k/J] is attained at the right end with value J p_(k) / k, and
    the last interval contributes its limit p_(J); the infimum over the whole
    range is therefore an exact finite minimum. The (1 - log gamma_min)
    factor pays for optimizing over gamma.
    """
    pv = np.asarray(pvals, dtype=float)
    if pv.size == 0:
        raise DomainError("adaptive_pt needs at least one p-value")
    check_level("gamma_min", gamma_min)
    check_real("p-value", pv, 0.0, 1.0, "[]")
    j = pv.size
    pv = np.sort(pv)
    best = pv[-1]
    ks = np.arange(1, j, dtype=float)
    live = ks / j > gamma_min
    if live.any():
        best = min(best, float((j * pv[:-1][live] / ks[live]).min()))
    inf_q = min(1.0, best)
    return float(min(1.0, (1.0 - math.log(gamma_min)) * inf_q))


@dataclass(frozen=True)
class MultiSplitResult:
    """Aggregated outcome plus the per-split audit trail."""

    p_t: float
    alpha: float
    reject: bool
    gamma_min: float
    outcomes: tuple


@single_thread_blas()
def multisplit_test(data: DataSet, C, cfg: MultiSplitConfig,
                    alpha: float = 0.05, threads: int = 1) -> MultiSplitResult:
    """The full procedure: J splits, per-split p-values, adaptive aggregation.

    The hypothesis is prepared once, then the splits run in the calling
    thread with BLAS on one thread. ``threads`` must be >= 1 and is kept for
    compatibility: the result does not depend on it. An infeasible split
    raises SplitInfeasibleError naming the split and the offending sizes
    rather than silently skipping it.
    """
    check_level("alpha", alpha)
    check_integer("threads", threads)
    prepared = _prepare_hypothesis(data, C)
    outcomes = [_split_outcome(data, *prepared, cfg, j) for j in range(cfg.j_splits)]
    p_t = adaptive_pt([o.p_value for o in outcomes], cfg.resolved_gamma_min)
    return MultiSplitResult(p_t, alpha, p_t <= alpha, cfg.resolved_gamma_min, tuple(outcomes))
