"""Dimension reduction for designs with more unknowns than samples.

screen ranks predictor columns by their canonical correlation with the
responses, the largest correlation between a column and any combination of
response columns, and keeps the best floor(delta * p); parallel_analysis
sizes and pca_reduce fits a PCA step that shrinks a wide response matrix.
The multi-split procedure runs these three on the screening part of each
split only. conditional_transform is the one step that sees the whole
design: an orthogonal change of basis, made once before any split, that
turns a general hypothesis C B = 0 into the leading-identity form
[I_r 0] B~ = 0, so the hypothesis columns can be protected from screening.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError
from .model import RANK_TOL, HypothesisMatrix, _check_matrix

#: parallel analysis: column-permuted copies, and the quantile of their eigenvalues to beat
PA_COPIES, PA_QUANTILE = 19, 0.95


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


class PcaReduction:
    """Orthonormal response loadings W_hat (m x m0) plus the full eigen spectrum."""

    def __init__(self, w_hat, eigen_spectrum):
        w_hat = _check_matrix(w_hat, "W_hat")
        if w_hat.shape[1] < 1:
            raise DomainError("W_hat needs at least one column")
        gram = w_hat.T @ w_hat
        if np.abs(gram - np.eye(w_hat.shape[1])).max() > 1e-10:
            raise DomainError("W_hat columns are not orthonormal to 1e-10")
        self.w_hat = w_hat
        self.eigen_spectrum = tuple(float(v) for v in eigen_spectrum)

    @property
    def m0(self) -> int:
        return self.w_hat.shape[1]

    def transform(self, Y) -> np.ndarray:
        """Project responses onto the retained components: Y W_hat."""
        Y = _check_matrix(Y, "Y")
        if Y.shape[1] != self.w_hat.shape[0]:
            raise DomainError(f"Y has {Y.shape[1]} columns, loadings expect {self.w_hat.shape[0]}")
        return Y @ self.w_hat

    def __repr__(self):
        return f"PcaReduction(m={self.w_hat.shape[0]}, m0={self.m0})"


def _response_basis(Y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the centered column space of Y.

    Pivoted QR so rank detection survives collinear or constant response
    columns; with m >= n-1 the basis simply spans the whole centered space.
    """
    Yc = Y - Y.mean(axis=0)
    q, rr, _ = scipy.linalg.qr(Yc, mode="economic", pivoting=True)
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
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"delta must lie in (0, 1], got {delta!r}")
    p = XS.shape[1]
    # the nudge keeps floor() honest when delta * p is an integer in exact arithmetic
    k = int(math.floor(delta * p + 1e-9))
    if k < 1:
        raise DomainError(f"floor(delta * p) = {k}: nothing would be selected")
    if not 0 <= protect <= p:
        raise DomainError(f"protect must lie in [0, {p}], got {protect}")
    k = max(k, protect)

    scores, degenerate = _column_scores(XS, _response_basis(YS))
    # last key sorts first: higher score, then non-degenerate, then smaller index
    order = np.lexsort((np.arange(p), degenerate, -scores))
    ranked = order[order >= protect].tolist()
    chosen = list(range(protect)) + ranked[:k - protect]
    return ScreenResult(tuple(chosen),
                        tuple(float(w) for w in scores),
                        tuple(bool(d) for d in degenerate))


def conditional_transform(X, C):
    """Rotate the design so a general hypothesis reads [I_r 0] B~ = 0.

    With the SVD C = U S V', the orthogonal change of basis D = V puts the
    row space of C on the first r transformed predictors; screening must then
    protect those columns and may rank only the rest. D is the basis the
    HypothesisMatrix keeps, with its row-space columns moved to the front.

    Returns ``(X_tilde, d)`` with X_tilde = X d.
    """
    hyp = C if isinstance(C, HypothesisMatrix) else HypothesisMatrix(C)
    X = _check_matrix(X, "X")
    if X.shape[1] != hyp.p:
        raise DomainError(f"X has {X.shape[1]} columns but C expects p={hyp.p}")
    d = np.roll(hyp._basis, hyp.r, axis=1)
    return X @ d, d


def parallel_analysis(rng, YS, cap=None) -> int:
    """Pick a response-PCA rank by comparison with column-permuted noise.

    m0 is the length of the leading run of sample covariance eigenvalues of
    YS that exceed the PA_QUANTILE order-statistic quantile of the matching
    eigenvalue across PA_COPIES independently column-permuted copies.
    Permutation kills cross-column structure while preserving marginals, so
    eigenvalues that survive the comparison indicate real factors; the run
    stops at the first failure so stray exceedances deep in the spectrum
    cannot inflate the rank. The result is floored at 1 and, when ``cap`` is
    given, truncated to it so the testing half stays large enough.
    """
    YS = _check_matrix(YS, "YS")
    n_s, m = YS.shape
    if n_s < 3:
        raise DomainError(f"parallel analysis needs n_S >= 3, got {n_s}")
    if cap is not None and cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")

    Yc = YS - YS.mean(axis=0)
    eigs = np.linalg.eigvalsh(Yc.T @ Yc / (n_s - 1))[::-1]
    null_cov = np.empty((PA_COPIES, m, m))
    for b in range(PA_COPIES):
        Zc = rng.permuted(YS, axis=0)
        Zc = Zc - Zc.mean(axis=0)
        # one product per copy: a stacked matmul skips the syrk path and can change bits
        null_cov[b] = Zc.T @ Zc / (n_s - 1)
    null_eigs = np.linalg.eigvalsh(null_cov)[:, ::-1]
    rank_idx = min(PA_COPIES, max(1, math.ceil(PA_QUANTILE * PA_COPIES))) - 1
    thresholds = np.sort(null_eigs, axis=0)[rank_idx]
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


def pca_reduce(YS, m0: int) -> PcaReduction:
    """Top-m0 principal component loadings of the responses.

    Eigenvectors of the column-centered sample covariance of YS, returned
    with the full descending eigen spectrum. Column signs are fixed so the
    largest-magnitude entry of each loading is positive, which keeps results
    reproducible across linear-algebra backends.
    """
    YS = _check_matrix(YS, "YS")
    n_s, m = YS.shape
    if n_s < 2:
        raise DomainError(f"need n_S >= 2 rows, got {n_s}")
    if not 1 <= m0 <= min(n_s - 1, m):
        raise DomainError(f"m0={m0} outside [1, min(n_S - 1, m)] = [1, {min(n_s - 1, m)}]")
    Yc = YS - YS.mean(axis=0)
    vals, vecs = np.linalg.eigh(Yc.T @ Yc / (n_s - 1))
    vals = np.maximum(vals[::-1], 0.0)
    vecs = vecs[:, ::-1]
    for j in range(m0):
        lead = np.argmax(np.abs(vecs[:, j]))
        if vecs[lead, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return PcaReduction(vecs[:, :m0].copy(), vals)
