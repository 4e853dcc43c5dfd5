"""Dimension reduction for designs with more unknowns than samples.

screen ranks predictor columns by their canonical correlation with the
responses, the largest correlation between a column and any combination of
response columns, and keeps the best floor(delta * p); parallel_analysis
sizes and pca_reduce fits a PCA step that shrinks a wide response matrix,
returning its loadings and eigen spectrum. The multi-split procedure runs
these three on the screening part of each split only. conditional_transform
is the one step that sees the whole design: it returns the design laid out
by HypothesisMatrix.design, made once before any split, in which a general
hypothesis C B = 0 reads [I_r 0] B~ = 0, so the hypothesis columns can be
protected from screening.

Each step is one private helper on arrays that are already checked:
_budget and _ranked (screening), _centered_cov, _pa_rank (parallel
analysis) and _loadings (PCA). The public functions check their input and
call them; a split calls them directly on slices of its checked data set,
forms the centered covariance of its responses once for both parallel
analysis and the loadings, and keeps the selected indices as an int array.

Reproducibility: parallel analysis draws all PA_COPIES permuted copies with
one rng.permuted call, which shuffles them in the order, and to the bits, of
PA_COPIES calls on one copy each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_integer, check_real
from .model import RANK_TOL, _check_matrix, _hypothesis

#: parallel analysis: column-permuted copies; an eigenvalue that beats all 19
#: copies beats their 95% quantile, the ceil(0.95 * 19) = 19th order statistic
PA_COPIES = 19


@dataclass(frozen=True)
class ScreenResult:
    """Ranked screening outcome over the columns of a design matrix.

    ``selected`` holds column indices (0-based), best score first, protected
    columns before ranked ones. ``scores`` and ``degenerate`` cover every
    column in column order.
    """

    selected: tuple
    scores: tuple
    degenerate: tuple

    def __post_init__(self):
        p = len(self.scores)
        if len(self.degenerate) != p:
            raise DomainError("scores and degenerate flags must align")
        if len(set(self.selected)) != len(self.selected):
            raise DomainError("selected indices must be distinct")
        for j in self.selected:
            if not 0 <= j < p:
                raise DomainError(f"selected index {j} outside [0, {p})")
        for w in self.scores:
            if not 0.0 <= w <= 1.0:
                raise DomainError(f"score {w!r} outside [0, 1]")


def _response_basis(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the centered column space of Y.

    Pivoted QR so rank detection survives collinear or constant response
    columns; with m >= n-1 the basis simply spans the whole centered space.
    """
    import scipy.linalg

    Yc = Y - Y.mean(axis=0)
    q, rr, _ = scipy.linalg.qr(Yc, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(rr))
    if diag.size == 0 or diag[0] <= 0.0:
        raise DomainError("centered Y has rank zero")
    rank = int(np.count_nonzero(diag > RANK_TOL * diag[0]))
    return q[:, :rank]


def _column_scores(X: np.ndarray, basis: np.ndarray):
    """Canonical correlation of each column with the responses, plus degenerate flags.

    A column's score is the square root of the R^2 from regressing it,
    centered, on the centered responses: the norm of its projection onto
    ``basis`` over its own norm. A zero-variance column scores 0.
    """
    Xc = X - X.mean(axis=0)
    spread = np.linalg.norm(Xc, axis=0)
    raw = np.linalg.norm(X, axis=0)
    degenerate = spread <= RANK_TOL * np.maximum(1.0, raw)
    scores = np.zeros(X.shape[1])
    ok = ~degenerate
    if ok.any():
        proj = np.linalg.norm(basis.T @ Xc[:, ok], axis=0)
        scores[ok] = np.minimum(proj / spread[ok], 1.0)
    return scores, degenerate


def _budget(delta: float, p: int, protect: int) -> int:
    """How many of p columns screening keeps: floor(delta * p), widened to ``protect``."""
    check_real("delta", delta, 0.0, 1.0, "(]")
    # the nudge keeps floor() honest when delta * p is an integer in exact arithmetic
    k = int(math.floor(delta * p + 1e-9))
    if k < 1:
        raise DomainError(f"floor(delta * p) = {k}: nothing would be selected")
    if not 0 <= protect <= p:
        raise DomainError(f"protect must lie in [0, {p}], got {protect}")
    return max(k, protect)


def _ranked(XS: np.ndarray, YS: np.ndarray, k: int, protect: int):
    """(selected, scores, degenerate) for checked XS and YS with matching rows.

    ``selected`` is an int array of k column indices, the first ``protect``
    columns, then the best-ranked others, best first.
    """
    scores, degenerate = _column_scores(XS, _response_basis(YS))
    # last key sorts first: higher score, then non-degenerate, then smaller index
    order = np.lexsort((np.arange(XS.shape[1]), degenerate, -scores))
    ranked = order[order >= protect]
    return np.concatenate([np.arange(protect), ranked[:k - protect]]), scores, degenerate


def screen(XS, YS, delta: float, protect: int = 0) -> ScreenResult:
    """Keep the floor(delta * p) predictor columns most correlated with YS.

    Ties break toward the smaller column index and degenerate (zero-variance)
    columns rank last. The first ``protect`` columns bypass ranking and are
    always selected: that is how the hypothesis rows of a design rotated by
    conditional_transform survive screening. The selection budget is widened
    to ``protect`` when floor(delta * p) is smaller.
    """
    XS = _check_matrix(XS, "XS")
    YS = _check_matrix(YS, "YS")
    if XS.shape[0] != YS.shape[0]:
        raise DomainError(f"XS has {XS.shape[0]} rows but YS has {YS.shape[0]}")
    check_integer("protect", protect, low=0)
    k = _budget(delta, XS.shape[1], protect)
    selected, scores, degenerate = _ranked(XS, YS, k, protect)
    return ScreenResult(tuple(selected.tolist()),
                        tuple(float(w) for w in scores),
                        tuple(bool(d) for d in degenerate))


def conditional_transform(X, C):
    """Rotate the design so a general hypothesis reads [I_r 0] B~ = 0.

    With the SVD C = U S V', the orthogonal change of basis D = V puts the
    row space of C on the first r transformed predictors; screening must then
    protect those columns and may rank only the rest. D is the rotation the
    HypothesisMatrix keeps, or the identity for a leading-identity C.

    Returns ``(X_tilde, d)`` with X_tilde = X d.
    """
    X = _check_matrix(X, "X")
    hyp = _hypothesis(C, X.shape[1])
    d = np.eye(hyp.p) if hyp.rotation is None else hyp.rotation
    return hyp.design(X), d


def _centered_cov(Y: np.ndarray) -> np.ndarray:
    """Sample covariance of the columns of Y (divisor n - 1)."""
    Yc = Y - Y.mean(axis=0)
    return Yc.T @ Yc / (Y.shape[0] - 1)


def _pa_rank(rng, YS: np.ndarray, cap, cov: np.ndarray) -> int:
    """parallel_analysis on a checked YS and cap, where ``cov`` is YS's _centered_cov."""
    n_s, m = YS.shape
    if n_s < 3:
        raise DomainError(f"parallel analysis needs n_S >= 3, got {n_s}")
    eigs = np.linalg.eigvalsh(cov)[::-1]
    # every copy in one draw: the rows of each column of each copy are shuffled
    # in the order of PA_COPIES calls rng.permuted(YS, axis=0), with the same
    # bits. The copies sit in one C-ordered buffer: permuting a broadcast view
    # instead returns another memory layout, and its products differ in bits.
    Z = np.empty((PA_COPIES, n_s, m))
    Z[...] = YS
    rng.permuted(Z, axis=1, out=Z)
    Z -= Z.mean(axis=1, keepdims=True)
    null_cov = np.empty((PA_COPIES, m, m))
    for Zc, out in zip(Z, null_cov):
        # one product per copy: a stacked matmul skips the syrk path and can change bits
        np.matmul(Zc.T, Zc, out=out)
    null_cov /= n_s - 1
    null_eigs = np.linalg.eigvalsh(null_cov)[:, ::-1]
    thresholds = null_eigs.max(axis=0)
    # the relative floor keeps rank-deficient spectra (m >= n_S) from letting
    # zero-vs-zero rounding noise count as a factor
    floor_val = RANK_TOL * max(float(eigs[0]), 0.0)
    m0 = 0
    for lam, th in zip(eigs, thresholds):
        if lam <= th or lam <= floor_val:
            break
        m0 += 1
    m0 = max(m0, 1)
    if cap is not None:
        m0 = min(m0, int(cap))
    return m0


def parallel_analysis(rng, YS, cap=None) -> int:
    """Pick a response-PCA rank by comparison with column-permuted noise.

    m0 is the length of the leading run of sample covariance eigenvalues of
    YS that exceed the matching eigenvalue of all PA_COPIES independently
    column-permuted copies, their 95% quantile.
    Permutation kills cross-column structure while preserving marginals, so
    eigenvalues that survive the comparison indicate real factors; the run
    stops at the first failure so stray exceedances deep in the spectrum
    cannot inflate the rank. The result is floored at 1 and, when ``cap`` is
    given, truncated to it so the testing half stays large enough.
    """
    YS = _check_matrix(YS, "YS")
    if cap is not None:
        check_integer("cap", cap)
    return _pa_rank(rng, YS, cap, _centered_cov(YS))


def _loadings(cov: np.ndarray, m0: int):
    """(W_hat, spectrum): the top-m0 eigenvectors of a covariance, sign-fixed, as a
    C-ordered m x m0 array, and all its eigenvalues, descending and floored at 0."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals[::-1], 0.0)
    vecs = vecs[:, ::-1]
    for j in range(m0):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return vecs[:, :m0].copy(), vals


def pca_reduce(YS, m0: int):
    """Top-m0 principal component loadings of the responses.

    Returns ``(w_hat, spectrum)``: the eigenvectors of the column-centered
    sample covariance of YS as an m x m0 array, and its full eigen spectrum,
    descending and floored at 0. Column signs are fixed so the
    largest-magnitude entry of each loading is positive, which keeps results
    reproducible across linear-algebra backends.
    """
    YS = _check_matrix(YS, "YS")
    n_s, m = YS.shape
    if n_s < 2:
        raise DomainError(f"need n_S >= 2 rows, got {n_s}")
    check_integer("m0", m0)
    if m0 > min(n_s - 1, m):
        raise DomainError(f"m0={m0} outside [1, min(n_S - 1, m)] = [1, {min(n_s - 1, m)}]")
    return _loadings(_centered_cov(YS), m0)
