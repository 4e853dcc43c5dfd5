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
_budget and _ranked (screening), _centered_cov and _spectra (the response
covariances and their one eigh call), _pa_rank (parallel analysis) and
_loadings (PCA). Each takes a stack of splits. _ranked screens all of them at
once: _bases makes one QR per shape of response set, with a pivoted QR only
for a set that is not provably of full rank, and the scores take one product
per basis shape. _centered_cov takes one product for a stack of response sets
of one shape, and _spectra one eigh call: _pa_rank reads its eigenvalues and
_loadings its eigenvectors too, so neither makes an eigen call. _pa_rank
counts its permuted copies' eigenvalues with _counter, one in-place
tridiagonal reduction per copy and a Sturm count at the data's eigenvalues,
instead of solving for them. The public functions check their input and call
them with a stack of one; the multi-split procedure calls them on its stack
of splits, slices of its checked data set.

Reproducibility: parallel analysis draws all PA_COPIES permuted copies of a
response set with one rng.permuted call, which shuffles them in the order,
and to the bits, of PA_COPIES calls on one copy each.
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

#: parallel analysis: how many data eigenvalues one Sturm count tests at once. Leading
#: runs are short (all ended by index 4 on multisplit_hd), and counting at every
#: eigenvalue in one call made that workload's splits about 8% slower
_PA_CHUNK = 5

#: screening: a response set keeps its unpivoted QR basis when sigma_min(R) provably
#: passes this share of sigma_max(R), 100 times RANK_TOL (see _bases)
_FULL_RANK = 100 * RANK_TOL


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
            check_integer("selected index", j, low=0, high=p - 1)
        for w in self.scores:
            check_real("score", w, 0.0, 1.0, "[]")


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


def _bases(YS):
    """[(ks, Q)] for B checked response sets YS[b] with n_S rows each: each b lies
    in one ks, and Q (len(ks), n_S, w) stacks orthonormal bases of their centered
    column spaces, each with the bits of a call on its set alone.

    Sets of one shape (n_S, m) with m < n_S - 1 take one unpivoted QR, Yc = Q R,
    and keep Q where |R|_F |R^-1|_F, a bound on sigma_max / sigma_min, is below
    1 / _FULL_RANK (a singular R reads inf). In any column order a QR's k-th
    diagonal entry, the distance of column k from the span of the earlier ones, is
    at least sigma_min(Yc), and the first is at most sigma_max(Yc). So the pivoted
    QR of _response_basis would keep every column, with a margin of 100 over
    RANK_TOL for rounding, both bases span one space, and scores on them differ by
    rounding only. The rest take _response_basis: sets that may lack full rank,
    such as one with a constant column, and sets with m >= n_S - 1, which can span
    the whole centered space, where every score is 1 and rounding alone orders them.
    """
    shapes = {}
    for b, y in enumerate(YS):
        shapes.setdefault(y.shape, []).append(b)
    out = []
    for (n_s, m), ks in shapes.items():
        ks, full = np.array(ks), np.zeros(len(ks), dtype=bool)
        if m < n_s - 1:
            Yc = np.stack([YS[b] for b in ks])
            Yc -= Yc.mean(axis=1, keepdims=True)
            q, rr = np.linalg.qr(Yc)
            full = np.linalg.cond(rr, "fro") < 1.0 / _FULL_RANK
            if full.any():
                out.append((ks[full], q if full.all() else q[full]))
        out += [(ks[i:i + 1], _response_basis(YS[b])[None]) for i, b in enumerate(ks)
                if not full[i]]
    return out


def _budget(delta: float, p: int, protect: int) -> int:
    """How many of p columns screening keeps: floor(delta * p), widened to ``protect``."""
    check_real("delta", delta, 0.0, 1.0, "(]")
    check_integer("protect", protect, low=0, high=p)
    # the nudge keeps floor() honest when delta * p is an integer in exact arithmetic
    k = int(math.floor(delta * p + 1e-9))
    if k < 1:
        raise DomainError(f"floor(delta * p) = {k}: nothing would be selected")
    return max(k, protect)


def _ranked(XS: np.ndarray, YS, k: int, protect: int):
    """(selected, scores, degenerate) for a stack of B checked designs XS (B, n_S, p),
    which it centers in place, and B checked response sets YS[b] with n_S rows each:
    (B, k), (B, p) and (B, p) arrays, each row with the bits of a call on its split
    alone.

    A column's score is the square root of the R^2 from regressing it, centered, on
    the centered responses: the norm of its projection onto the _bases basis over
    its own norm. A zero-variance (degenerate) column scores 0. A row of
    ``selected`` holds the first ``protect`` columns, then the best-ranked others,
    best first.
    """
    B, _, p = XS.shape
    raw = np.linalg.norm(XS, axis=1)
    XS -= XS.mean(axis=1, keepdims=True)
    spread = np.linalg.norm(XS, axis=1)
    degenerate = spread <= RANK_TOL * np.maximum(1.0, raw)
    # one product per basis shape: a zero-padded product over all of them would
    # give a split's scores bits that depend on the other splits in its stack
    proj = np.empty((B, p))
    for ks, basis in _bases(YS):
        proj[ks] = np.linalg.norm(basis.swapaxes(1, 2) @ XS[ks], axis=1)
    scores = np.zeros((B, p))
    np.divide(proj, spread, out=scores, where=~degenerate)
    np.minimum(scores, 1.0, out=scores)
    # last key sorts first: higher score, then non-degenerate, then smaller index
    order = np.lexsort((np.broadcast_to(np.arange(p), (B, p)), degenerate, -scores))
    ranked = order[order >= protect].reshape(B, p - protect)[:, :k - protect]
    selected = np.hstack([np.broadcast_to(np.arange(protect), (B, protect)), ranked])
    return selected, scores, degenerate


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
    k = _budget(delta, XS.shape[1], protect)
    (selected,), (scores,), (degenerate,) = _ranked(XS[None].copy(), [YS], k, protect)
    return ScreenResult(tuple(selected.tolist()),
                        tuple(float(w) for w in scores),
                        tuple(bool(d) for d in degenerate))


def conditional_transform(X, C):
    """Rotate the design so a general hypothesis reads [I_r 0] B~ = 0.

    With the SVD C = U S V', the orthogonal change of basis V puts the row
    space of C on the first r transformed predictors; screening must then
    protect those columns and may rank only the rest. V is the ``rotation``
    the HypothesisMatrix keeps; a leading-identity C has none.

    Returns X V, or X itself for a leading-identity C.
    """
    X = _check_matrix(X, "X")
    return _hypothesis(C, X.shape[1]).design(X)


def _centered_cov(Y: np.ndarray) -> np.ndarray:
    """Sample covariances (divisor n - 1) of the columns of each matrix of a stack Y
    (B, n, m), checked finite: one stacked product, which takes syrk per matrix, so
    each covariance has the bits of its own product."""
    Yc = Y - Y.mean(axis=-2, keepdims=True)
    cov = np.matmul(Yc.swapaxes(-1, -2), Yc) / (Y.shape[-2] - 1)
    check_real("response covariance", cov)
    return cov


def _spectra(cov: np.ndarray):
    """(vals, vecs) for a stack of covariances (B, m, m): one eigh call, eigenvalues
    descending (B, m) and the eigenvectors in their order (B, m, m). Parallel
    analysis reads the eigenvalues and PCA the eigenvectors too."""
    vals, vecs = np.linalg.eigh(cov)
    return vals[:, ::-1], vecs[..., ::-1]


def _counter(cov: np.ndarray):
    """For a stack of symmetric positive semidefinite matrices cov (..., m, m), which
    it overwrites if it is a C-ordered float array, a function of shifts t, shaped
    (..., S) against the stack's leading axes, that returns (..., S) counts: how
    many eigenvalues of each matrix lie at or above each shift.

    Each matrix, and its shifts with it, is scaled by the power of two that brings
    its largest diagonal entry into [0.5, 1), which is exact and keeps the squared
    off-diagonals below from overflowing or going subnormal at any finite input.
    The matrix is then reduced in place to its tridiagonal form T (one LAPACK
    dsytrd, which reads one triangle); a count is the inertia of t I - T from the
    recurrence of its LDL' pivots, exact for a matrix within rounding of the input
    (Kahan 1966).
    """
    from scipy.linalg.lapack import dsytrd, dsytrd_lwork

    cov = np.ascontiguousarray(cov, dtype=float)
    m = cov.shape[-1]
    exp = np.frexp(cov.diagonal(axis1=-2, axis2=-1).max(axis=-1))[1]
    np.ldexp(cov, -exp[..., None, None], out=cov)
    # the optimal workspace lets a large matrix take the blocked reduction; the
    # default one forces the unblocked one, 1.6 to 3 times slower at m = 200
    lwork = int(dsytrd_lwork(m)[0])
    for a in cov.reshape(-1, m, m):
        dsytrd(a.T, lwork=lwork, overwrite_a=True)
    # dsytrd on the upper triangle of the F-ordered a.T leaves T's diagonal on the
    # diagonal and its off-diagonal on the superdiagonal of a.T, the subdiagonal of a:
    # the values it returns, to the bit. A contiguous d makes the counts faster
    d = cov.diagonal(axis1=-2, axis2=-1).copy()
    e2 = cov.diagonal(-1, axis1=-2, axis2=-1) ** 2
    # LAPACK's dlaneg guard: a pivot below pivmin in magnitude, zero included, becomes
    # -pivmin, so an eigenvalue equal to t counts as at or above it. An off-diagonal
    # is at most the scaled matrix's norm, below its trace m, so e2 / pivmin cannot
    # overflow, and pivmin depends on m alone, not on the other matrices of the stack
    pivmin = np.finfo(float).tiny * m * m

    def count(t):
        t = np.ldexp(t, -exp[..., None])
        q = t - d[..., 0, None]
        n = np.zeros(q.shape, dtype=int)
        for j in range(m):
            if j:
                q = t - d[..., j, None] - e2[..., j - 1, None] / q
            q[np.abs(q) < pivmin] = -pivmin
            n += q < 0.0
        return n

    return count


def _pa_rank(rngs, YS: np.ndarray, cap, eigs: np.ndarray) -> np.ndarray:
    """parallel_analysis on a stack of B checked YS (B, n_S, m) and a cap, where
    ``eigs`` (B, m) holds the descending eigenvalues of their _centered_cov, from
    _spectra, and YS[k]'s copies draw from rngs[k]: the (B,) ranks.

    It solves for no eigenvalue: eigs[k, i] beats every copy of YS[k] exactly when
    no copy has more than i eigenvalues at or above it, which a Sturm count on each
    copy's tridiagonal form answers. The counts run on _PA_CHUNK indices at a time
    and stop once no leading run continues, never past the cap.
    """
    B, n_s, m = YS.shape
    if n_s < 3:
        raise DomainError(f"parallel analysis needs n_S >= 3, got {n_s}")
    if cap is not None:
        eigs = eigs[:, :int(cap)]
    # every copy of YS[k] in one draw: the rows of each column of each copy are
    # shuffled in the order of PA_COPIES calls rngs[k].permuted(YS[k], axis=0), with
    # the same bits. One split's copies at a time, in one reused buffer, keep the
    # working set at the stack's covariances
    Z = np.empty((PA_COPIES, n_s, m))
    null_cov = np.empty((B, PA_COPIES, m, m))
    for rng, y, covs in zip(rngs, YS, null_cov):
        Z[...] = y
        rng.permuted(Z, axis=1, out=Z)
        Z -= Z.mean(axis=1, keepdims=True)
        np.matmul(Z.swapaxes(-1, -2), Z, out=covs)
    null_cov /= n_s - 1
    count = _counter(null_cov)
    # m0 is the leading run of eigenvalues that beat every copy; the relative floor
    # keeps rank-deficient spectra (m >= n_S) from letting zero-vs-zero rounding
    # noise count as a factor
    floor_val = RANK_TOL * np.maximum(eigs[:, :1], 0.0)
    run = np.zeros(B, dtype=int)
    going = np.ones(B, dtype=bool)
    for i in range(0, eigs.shape[1], _PA_CHUNK):
        t = eigs[:, i:i + _PA_CHUNK]
        beats = (count(t[:, None]) <= np.arange(i, i + t.shape[1])).all(axis=1)
        lead = np.logical_and.accumulate(beats & (t > floor_val), axis=1)
        run += np.where(going, lead.sum(axis=1), 0)
        going &= lead[:, -1]
        if not going.any():
            break
    return np.maximum(run, 1)


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
    YS = _check_matrix(YS, "YS")[None]
    if cap is not None:
        check_integer("cap", cap)
    return int(_pa_rank([rng], YS, cap, _spectra(_centered_cov(YS))[0])[0])


def _loadings(vals: np.ndarray, vecs: np.ndarray, m0):
    """(W_hat, spectra) for the _spectra (vals, vecs) of B covariances and B ranks m0:
    the list of each one's top-m0[k] eigenvectors, sign-fixed, as a C-ordered
    m x m0[k] array, and the (B, m) eigenvalues, descending and floored at 0."""
    # the sign of each eigenvector's largest-magnitude entry, the first one on a tie
    lead = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=1)[:, None, :], axis=1)
    vecs = np.where(lead < 0.0, -vecs, vecs)
    return [v[:, :k].copy() for v, k in zip(vecs, m0)], np.maximum(vals, 0.0)


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
    check_integer("m0", m0, high=min(n_s - 1, m))
    (w_hat,), (spectrum,) = _loadings(*_spectra(_centered_cov(YS[None])), [m0])
    return w_hat, spectrum
