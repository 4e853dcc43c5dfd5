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

The splits run in stacks of ``_SPLIT_STACK`` in the calling thread, with
BLAS on one thread (see ``_blas``). Each split draws its halves and then its
parallel-analysis copies from its own stream. A stack makes one eigvalsh
call on its response covariances, one tridiagonal reduction per permuted
copy, whose eigenvalues parallel analysis counts rather than solves for,
one eigh call for the loadings, one screening pass (one QR and one score
product per shape of reduced responses, a pivoted QR only for responses
that are not provably of full rank), and one QR and one neg2_log_lrt per
group of fits that share (p0, m0, q); the feasibility checks and the Wilks
tail stay per split. A stacked LAPACK call or product gives each matrix the
bits of a call on it alone, so an outcome does not depend on its stack.
_stack is the one split runner:
per_split_pvalue and the J = 0 control run a stack of one, and
multisplit_test reruns a stack that raises split by split, so the first
failing split raises its own error. The stack runs on the private helpers of
``screening`` and ``model``, not on their public functions, because its
arrays are slices of the checked data set: it checks none of them again and
forms one response covariance per split for parallel analysis and PCA.

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
from .model import DataSet, _extra_ss, _hypothesis, neg2_log_lrt
from .rng import derive_seed, stream
from .screening import _budget, _centered_cov, _loadings, _pa_rank, _ranked
from .screening import conditional_transform

GAMMA_MIN_FLOOR = 1e-4

#: splits run at once: one eigen call per stack for parallel analysis and for the
#: loadings, one screening pass, one QR per group of its fits of one shape. On
#: multisplit_hd (2 cores, alternating in one process, 40 ops each) an op took
#: 152, 136, 130 and 125 ms at 8, 16, 32 and 64, and its traced peak was 1.1, 1.7,
#: 3.0 and 5.6 MB: past 32 the time falls by a few percent while the memory grows
_SPLIT_STACK = 32


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


def _stack(data: DataSet, X, r, protect, cfg: MultiSplitConfig, js, unsplit=False) -> list:
    """The outcomes of splits js, run as one stack on a hypothesis prepared by
    _prepare_hypothesis: split, reduce, test.

    With unsplit set, js is (-1,), the J = 0 control, which screens and tests
    on every row; -1 then only seeds the dimension reduction.
    """
    n, m = data.n, data.m
    budget = _budget(cfg.delta, data.p, protect)
    rngs = [stream(cfg.seed, j) for j in js]
    if unsplit:
        S = T = np.arange(n)[None]
        labels = ["no-split run"]
    else:
        S, T = map(np.array, zip(*(split_indices(rng, n, cfg.split_ratio) for rng in rngs)))
        labels = [f"split {j}" for j in js]
    Y_s, n_t = data.Y[S], T.shape[1]
    m0, w_hat = [m] * len(js), [None] * len(js)
    if cfg.pca_policy is not None:
        cap = min(n_t - budget - 2, S.shape[1] - 1, m)
        if cap < 1:
            raise SplitInfeasibleError(
                f"{labels[0]}: no room for responses with n_T={n_t}, p0={budget}, m={m}")
        cov = np.stack([_centered_cov(y) for y in Y_s])
        if cfg.pca_policy == "parallel_analysis":
            m0 = _pa_rank(rngs, Y_s, cap, cov).tolist()
        else:
            m0 = [int(cfg.pca_policy)] * len(js)
            if m0[0] > cap:
                raise SplitInfeasibleError(
                    f"{labels[0]}: fixed m0={m0[0]} exceeds the feasible cap {cap}")
        w_hat = _loadings(cov, m0)[0]
        Y_s = [y @ w for y, w in zip(Y_s, w_hat)]

    # each split keeps budget columns (p0 = budget); fits groups them by (m0, q)
    cols, fits = np.sort(_ranked(X[S], Y_s, budget, protect)[0], axis=1), {}
    for k, label in enumerate(labels):
        if n_t <= budget + m0[k] + 1:
            raise SplitInfeasibleError(f"{label}: testing half has n_T={n_t} but needs "
                                       f"more than p0 + m0 + 1 = {budget + m0[k] + 1}")
        q = int(np.searchsorted(cols[k], r))  # selected hypothesis columns, the first q of cols
        # q == 0: screening removed every hypothesis column: nothing to test, stay conservative
        if q:
            fits.setdefault((m0[k], q), []).append(k)
    p_vals = [1.0] * len(js)
    Y_t = data.Y[T]
    for (m0_g, q), ks in fits.items():
        fit_y = np.stack([Y_t[k] if w_hat[k] is None else Y_t[k] @ w_hat[k] for k in ks])
        pairs = _extra_ss(X[T[ks, :, None], cols[ks, None, :]], fit_y, q)
        for k, x in zip(ks, neg2_log_lrt(pairs)):
            p_vals[k] = wilks_lrt_tail(float(x), n_t, budget, m0_g, q)
    return [SplitOutcome(float(p), tuple(c.tolist()), k, derive_seed(cfg.seed, j))
            for p, c, k, j in zip(p_vals, cols, m0, js)]


def per_split_pvalue(data: DataSet, C, cfg: MultiSplitConfig, j: int) -> SplitOutcome:
    """Run split j end to end: prepare the hypothesis, split, reduce, test.

    After screening, the hypothesis says that the coefficients of the q
    selected columns among its r vanish; one QR of the testing part's
    [X_rest X_hyp Y] gives the pair (S_E, S_X) at (n_T, p0, m0, q). If
    screening kept none of those columns (q = 0) the split returns p = 1.
    """
    return _stack(data, *_prepare_hypothesis(data, C), cfg, [j])[0]


@single_thread_blas()
def no_split_pvalue(data: DataSet, C, cfg: MultiSplitConfig) -> SplitOutcome:
    """Screen and test on the same data: the deliberately unsafe J = 0 mode.

    Selection and testing reuse the same observations, so the p-value is not
    valid; this exists as a negative control demonstrating why splitting is
    required. The command-line front end refuses it without an override.
    """
    return _stack(data, *_prepare_hypothesis(data, C), cfg, [-1], unsplit=True)[0]


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

    The hypothesis is prepared once, then the splits run in stacks in the
    calling thread with BLAS on one thread; a stack that raises is rerun split
    by split, so an infeasible split raises SplitInfeasibleError naming it and
    the offending sizes rather than silently skipping it. ``threads`` must be
    >= 1 and is kept for compatibility: the result does not depend on it.
    """
    check_level("alpha", alpha)
    check_integer("threads", threads)
    prepared, outcomes = _prepare_hypothesis(data, C), []
    for i in range(0, cfg.j_splits, _SPLIT_STACK):
        js = range(i, min(i + _SPLIT_STACK, cfg.j_splits))
        try:
            outcomes += _stack(data, *prepared, cfg, js)
        except Exception:  # any error: the rerun raises the first failing split's own
            for j in js:
                outcomes += _stack(data, *prepared, cfg, [j])
    p_t = adaptive_pt([o.p_value for o in outcomes], cfg.resolved_gamma_min)
    return MultiSplitResult(p_t, alpha, p_t <= alpha, cfg.resolved_gamma_min, tuple(outcomes))
