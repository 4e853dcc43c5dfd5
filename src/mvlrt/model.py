"""Model-level linear algebra for the general linear hypothesis C B = 0.

Everything downstream of the raw data lives here: least squares through a QR
factorization, the error and hypothesis sums-of-squares pair (S_E, S_X), the
relative eigenvalues driving the likelihood ratio, the largest-root quantity,
and direct sampling of the canonical form. No explicit matrix inverse is ever
formed; solves go through triangular factors.

A SumsOfSquares holds one pair (S_E, S_X) or a stack of B pairs of the same
dimensions, shape (B, m, m). A stack is checked once and factored by batched
Cholesky and eigvalsh calls, with the two triangular solves made per pair;
each pair of it gets the bits it would get alone. The readers return a float
(or an m-vector) for a pair and an array with a leading axis B for a stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

from .errors import (
    DegenerateMatrixError,
    DomainError,
    HypothesisRankError,
    RegimeError,
    SingularDesignError,
)

#: singular values (or R diagonals) below RANK_TOL times the largest are rank loss
RANK_TOL = 1e-10

#: relative eigenvalues below this are exact zeros of S_X by construction
EIG_CLAMP = 1e-12

#: scalings of the largest root accepted by theta_max
CONVENTIONS = ("johnstone", "error")


@dataclass(frozen=True)
class Dims:
    """Dimension quadruple: sample size n, predictors p, responses m, hypothesis rank r."""

    n: int
    p: int
    m: int
    r: int

    def __post_init__(self):
        for name in ("n", "p", "m", "r"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise DomainError(f"Dims.{name} must be a positive integer, got {v!r}")
        if self.r > self.p:
            raise DomainError(f"Dims: hypothesis rank r={self.r} exceeds p={self.p}")

    @property
    def lrt_defined(self) -> bool:
        """True iff n > p + m, the regime where S_E is positive definite."""
        return self.n > self.p + self.m


def _check_matrix(a, name: str, stack: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.size == 0:
        raise DomainError(f"{name} must be a non-empty 2-d matrix"
                          + (" or a stack of them" if stack else ""))
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{name} contains non-finite entries")
    return a


class DataSet:
    """Paired design matrix X (n x p) and response matrix Y (n x m)."""

    def __init__(self, X, Y):
        X = _check_matrix(X, "X")
        Y = _check_matrix(Y, "Y")
        if X.shape[0] != Y.shape[0]:
            raise DomainError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        self.X = X
        self.Y = Y

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def m(self) -> int:
        return self.Y.shape[1]

    def __repr__(self):
        return f"DataSet(n={self.n}, p={self.p}, m={self.m})"


class HypothesisMatrix:
    """Contrast matrix C (r x p); must have full row rank r."""

    def __init__(self, C):
        C = _check_matrix(C, "C")
        if C.shape[0] > C.shape[1]:
            raise HypothesisRankError(f"C is {C.shape[0]}x{C.shape[1]}: more rows than columns")
        sv = np.linalg.svd(C, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < RANK_TOL * sv[0]:
            raise HypothesisRankError(f"C is numerically rank deficient (rank < {C.shape[0]})")
        self.C = C

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    def is_leading_identity(self) -> bool:
        """True when C is [I_r, 0] to within 1e-12 per entry, the already-canonical layout."""
        r, p = self.C.shape
        target = np.zeros((r, p))
        target[:, :r] = np.eye(r)
        return bool(np.allclose(self.C, target, rtol=0.0, atol=1e-12))

    def __repr__(self):
        return f"HypothesisMatrix(r={self.r}, p={self.p})"


def _transpose(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (or of one matrix)."""
    return np.swapaxes(a, -1, -2)


def _solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L^{-1} b for one C-ordered lower-triangular L with a positive diagonal.

    This is the LAPACK trtrs call that scipy's solve_triangular makes for
    such an L, so the bits are the same, without that function's per-call
    checks, which cost more than the solve on the small matrices of a stack.
    """
    return dtrtrs(L.T, b, lower=0, trans=1)[0]


def _float_or_array(a):
    """A float for one pair's value, the array itself for a stack's values."""
    return float(a) if np.ndim(a) == 0 else a


class SumsOfSquares:
    """The pair (S_E, S_X) of m x m error/hypothesis matrices plus dimensions,
    or a stack of such pairs: S_E and S_X of shape (B, m, m), one dims.

    This pair is a sufficient input for every test statistic in the package.
    The object is treated as immutable and keeps its own factorization: the
    Cholesky factor of S_E, -2 log L_n and the relative eigenvalues are
    computed on first use and stored, so the five tests share one
    factorization. A computation that raises is not stored, and raises again
    on the next call; on a stack it raises if any pair would.
    """

    def __init__(self, s_err, s_hyp, dims: Dims):
        s_err = _check_matrix(s_err, "S_E", stack=True)
        s_hyp = _check_matrix(s_hyp, "S_X", stack=True)
        m = dims.m
        if s_err.shape[-2:] != (m, m) or s_hyp.shape != s_err.shape:
            raise DomainError(f"sums of squares must be {m}x{m} for dims {dims}")
        for name, a in (("S_E", s_err), ("S_X", s_hyp)):
            scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
            if (np.abs(a - _transpose(a)) > 1e-10 * scale).any():
                raise DomainError(f"{name} is not symmetric to 1e-10 relative")
        self.s_err = 0.5 * (s_err + _transpose(s_err))
        self.s_hyp = 0.5 * (s_hyp + _transpose(s_hyp))
        self.dims = dims

    @cached_property
    def _chol_err(self) -> np.ndarray:
        if not self.dims.lrt_defined:
            raise RegimeError(
                f"S_E cannot be positive definite at n={self.dims.n}, p={self.dims.p}, "
                f"m={self.dims.m}: need n > p + m"
            )
        try:
            return np.linalg.cholesky(self.s_err)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMatrixError("S_E is not positive definite") from exc

    @cached_property
    def _neg2_log_lrt(self):
        L_err = self._chol_err
        try:
            L_tot = np.linalg.cholesky(self.s_err + self.s_hyp)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMatrixError("S_E + S_X is not positive definite") from exc

        def log_diag_sum(L):
            return np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)

        val = 2.0 * self.dims.n * (log_diag_sum(L_tot) - log_diag_sum(L_err))
        return _float_or_array(np.maximum(val, 0.0))

    @cached_property
    def _rel_eigenvalues(self) -> np.ndarray:
        L = self._chol_err
        m = self.dims.m
        W = np.empty_like(self.s_hyp)
        for Lk, Sk, Wk in zip(L.reshape(-1, m, m), self.s_hyp.reshape(-1, m, m),
                              W.reshape(-1, m, m)):
            Wk[...] = _solve_lower(Lk, _solve_lower(Lk, Sk).T)
        vals = np.linalg.eigvalsh(0.5 * (W + _transpose(W)))[..., ::-1]
        return np.where(vals < EIG_CLAMP, 0.0, vals)

    def __repr__(self):
        return f"SumsOfSquares(dims={self.dims})"


class SignalMatrix:
    """Canonical-form mean matrix M1 (r x m); the null hypothesis is M1 = 0."""

    def __init__(self, M1):
        self.M1 = _check_matrix(M1, "M1")

    @classmethod
    def diagonal_spikes(cls, deltas, dims: Dims) -> "SignalMatrix":
        """M1 = diag(delta_1 ... delta_k, 0, ...) embedded in an r x m matrix."""
        deltas = np.asarray(deltas, dtype=float)
        k = deltas.size
        if k > min(dims.r, dims.m):
            raise DomainError(f"{k} spikes do not fit in an {dims.r}x{dims.m} signal")
        M1 = np.zeros((dims.r, dims.m))
        M1[np.arange(k), np.arange(k)] = deltas
        return cls(M1)

    def omega(self) -> np.ndarray:
        """Noncentrality matrix M1' M1 (identity error covariance)."""
        return self.M1.T @ self.M1

    def delta(self, n: int) -> np.ndarray:
        """Per-sample noncentrality omega / n."""
        return self.omega() / float(n)


# === fitting and reduction ===


def _qr_design(X: np.ndarray):
    """Reduced QR of the design with a rank check on the R diagonal."""
    n, p = X.shape
    if n < p:
        raise SingularDesignError(f"design has n={n} rows but p={p} columns")
    Q, R = np.linalg.qr(X)
    diag = np.abs(np.diag(R))
    if diag.max() == 0.0 or diag.min() < RANK_TOL * diag.max():
        raise SingularDesignError("design matrix is numerically rank deficient")
    return Q, R


def hypothesis_ss(data: DataSet, C) -> SumsOfSquares:
    """Error and hypothesis sums of squares for testing C B = 0.

    S_X = (C Bhat)' [C (X'X)^{-1} C']^{-1} (C Bhat), assembled from triangular
    solves against the QR factor of X and a Cholesky factor of C (X'X)^{-1} C'.
    """
    if not isinstance(C, HypothesisMatrix):
        C = HypothesisMatrix(C)
    if C.p != data.p:
        raise DomainError(f"C has {C.p} columns but the design has p={data.p}")
    Q, R = _qr_design(data.X)
    QtY = Q.T @ data.Y
    Bhat = solve_triangular(R, QtY, lower=False)
    resid = data.Y - Q @ QtY
    s_err = resid.T @ resid

    CB = C.C @ Bhat
    # G' = R^{-T} C' so that G G' = C (X'X)^{-1} C'
    Gt = solve_triangular(R, C.C.T, trans="T", lower=False)
    K = Gt.T @ Gt
    try:
        L = np.linalg.cholesky(0.5 * (K + K.T))
    except np.linalg.LinAlgError as exc:
        raise DegenerateMatrixError("C (X'X)^{-1} C' is not positive definite") from exc
    H = solve_triangular(L, CB, lower=True)
    s_hyp = H.T @ H
    dims = Dims(data.n, data.p, data.m, C.r)
    return SumsOfSquares(s_err, s_hyp, dims)


def neg2_log_lrt(ss: SumsOfSquares):
    """-2 log L_n = n [logdet(S_E + S_X) - logdet(S_E)], via Cholesky factors;
    a float for a pair, a (B,) array for a stack."""
    return ss._neg2_log_lrt


def rel_eigenvalues(ss: SumsOfSquares) -> np.ndarray:
    """Eigenvalues of S_E^{-1} S_X, descending (a copy of the stored values);
    shape (m,) for a pair, (B, m) for a stack.

    Computed as the symmetric eigenproblem of the whitened matrix
    L^{-1} S_X L^{-T} with L the Cholesky factor of S_E. Values below 1e-12
    are set to exactly 0: S_X has rank at most min(m, r) by construction and
    noise floors would otherwise pollute the log terms.
    """
    return ss._rel_eigenvalues.copy()


def theta_max(ss: SumsOfSquares, convention: str = "johnstone"):
    """Largest-root quantity in [0, 1]: a float for a pair, a (B,) array for a stack.

    convention="johnstone": largest eigenvalue of (S_E + S_X)^{-1} S_X, equal
    to lam_max / (1 + lam_max). convention="error": largest eigenvalue of
    (S_E + S_X)^{-1} S_E, equal to 1 / (1 + lam_min). The two coincide as
    theta_error = 1 - theta_johnstone only when min(m, r) = 1.
    """
    lam = rel_eigenvalues(ss)
    if convention == "johnstone":
        return _float_or_array(lam[..., 0] / (1.0 + lam[..., 0]))
    if convention == "error":
        return _float_or_array(1.0 / (1.0 + lam[..., -1]))
    raise DomainError(f"unknown largest-root convention {convention!r}")


def canonical_form_sample(rng, signal, dims: Dims) -> SumsOfSquares:
    """Sample (S_E, S_X) directly in canonical form.

    Y1 (r x m) has independent rows with means given by the signal matrix and
    identity covariance; Y2 ((n-p) x m) is pure noise. Returns
    S_X = Y1'Y1, S_E = Y2'Y2. The null hypothesis corresponds to signal 0.
    ``rng`` is one generator, which gives one pair, or a sequence of them,
    which gives a stack with one pair per generator; each draws Y1 and then
    Y2, so pair k of a stack equals the pair drawn from generator k alone.
    """
    if not dims.lrt_defined:
        raise RegimeError(f"canonical form needs n > p + m, got {dims}")
    if signal is None:
        M1 = np.zeros((dims.r, dims.m))
    else:
        M1 = signal.M1 if isinstance(signal, SignalMatrix) else np.asarray(signal, dtype=float)
    if M1.shape != (dims.r, dims.m):
        raise DomainError(f"signal shape {M1.shape} does not match (r, m)=({dims.r}, {dims.m})")
    one = isinstance(rng, np.random.Generator)
    rngs = [rng] if one else list(rng)
    Y1 = np.empty((len(rngs), dims.r, dims.m))
    Y2 = np.empty((len(rngs), dims.n - dims.p, dims.m))
    for gen, y1, y2 in zip(rngs, Y1, Y2):
        gen.standard_normal(out=y1)
        gen.standard_normal(out=y2)
    Y1 += M1
    s_err, s_hyp = _transpose(Y2) @ Y2, _transpose(Y1) @ Y1
    if one:
        return SumsOfSquares(s_err[0], s_hyp[0], dims)
    return SumsOfSquares(s_err, s_hyp, dims)
