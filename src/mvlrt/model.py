"""Model-level linear algebra for the general linear hypothesis C B = 0.

Everything downstream of the raw data lives here: least squares through a QR
factorization, the error and hypothesis sums-of-squares pair (S_E, S_X), the
relative eigenvalues driving the likelihood ratio, the largest-root quantity,
and direct sampling of the canonical form. No explicit matrix inverse is ever
formed; solves go through triangular factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

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


def _check_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DomainError(f"{name} must be a non-empty 2-d matrix")
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

    @classmethod
    def identity(cls, p: int) -> "HypothesisMatrix":
        """C = I_p, testing every coefficient row (B = 0)."""
        return cls(np.eye(p))

    def is_leading_identity(self, atol: float = 1e-12) -> bool:
        """True when C is exactly [I_r, 0], the already-canonical layout."""
        r, p = self.C.shape
        target = np.zeros((r, p))
        target[:, :r] = np.eye(r)
        return bool(np.allclose(self.C, target, rtol=0.0, atol=atol))

    def __repr__(self):
        return f"HypothesisMatrix(r={self.r}, p={self.p})"


class SumsOfSquares:
    """The pair (S_E, S_X) of m x m error/hypothesis matrices plus dimensions.

    This pair is a sufficient input for every test statistic in the package.
    The object is treated as immutable and keeps its own factorization: the
    Cholesky factor of S_E, -2 log L_n and the relative eigenvalues are
    computed on first use and stored, so the five tests share one
    factorization. A computation that raises is not stored, and raises again
    on the next call.
    """

    def __init__(self, s_err, s_hyp, dims: Dims):
        s_err = _check_matrix(s_err, "S_E")
        s_hyp = _check_matrix(s_hyp, "S_X")
        m = dims.m
        if s_err.shape != (m, m) or s_hyp.shape != (m, m):
            raise DomainError(f"sums of squares must be {m}x{m} for dims {dims}")
        for name, a in (("S_E", s_err), ("S_X", s_hyp)):
            scale = np.abs(a).max()
            if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
                raise DomainError(f"{name} is not symmetric to 1e-10 relative")
        self.s_err = 0.5 * (s_err + s_err.T)
        self.s_hyp = 0.5 * (s_hyp + s_hyp.T)
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
    def _neg2_log_lrt(self) -> float:
        L_err = self._chol_err
        try:
            L_tot = np.linalg.cholesky(self.s_err + self.s_hyp)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMatrixError("S_E + S_X is not positive definite") from exc
        val = 2.0 * self.dims.n * (
            np.sum(np.log(np.diag(L_tot))) - np.sum(np.log(np.diag(L_err)))
        )
        return max(float(val), 0.0)

    @cached_property
    def _rel_eigenvalues(self) -> np.ndarray:
        L = self._chol_err
        A = solve_triangular(L, self.s_hyp, lower=True)
        W = solve_triangular(L, A.T, lower=True)
        vals = np.linalg.eigvalsh(0.5 * (W + W.T))[::-1]
        return np.where(vals < EIG_CLAMP, 0.0, vals)

    def __repr__(self):
        return f"SumsOfSquares(dims={self.dims})"


class SignalMatrix:
    """Canonical-form mean matrix M1 (r x m); the null hypothesis is M1 = 0."""

    def __init__(self, M1):
        self.M1 = _check_matrix(M1, "M1")

    @classmethod
    def null(cls, dims: Dims) -> "SignalMatrix":
        return cls(np.zeros((dims.r, dims.m)))

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


def neg2_log_lrt(ss: SumsOfSquares) -> float:
    """-2 log L_n = n [logdet(S_E + S_X) - logdet(S_E)], via Cholesky factors."""
    return ss._neg2_log_lrt


def rel_eigenvalues(ss: SumsOfSquares) -> np.ndarray:
    """Eigenvalues of S_E^{-1} S_X, descending (a copy of the stored values).

    Computed as the symmetric eigenproblem of the whitened matrix
    L^{-1} S_X L^{-T} with L the Cholesky factor of S_E. Values below 1e-12
    are set to exactly 0: S_X has rank at most min(m, r) by construction and
    noise floors would otherwise pollute the log terms.
    """
    return ss._rel_eigenvalues.copy()


def theta_max(ss: SumsOfSquares, convention: str = "johnstone") -> float:
    """Largest-root quantity in [0, 1].

    convention="johnstone": largest eigenvalue of (S_E + S_X)^{-1} S_X, equal
    to lam_max / (1 + lam_max). convention="error": largest eigenvalue of
    (S_E + S_X)^{-1} S_E, equal to 1 / (1 + lam_min). The two coincide as
    theta_error = 1 - theta_johnstone only when min(m, r) = 1.
    """
    lam = rel_eigenvalues(ss)
    if convention == "johnstone":
        return float(lam[0] / (1.0 + lam[0]))
    if convention == "error":
        return float(1.0 / (1.0 + lam[-1]))
    raise DomainError(f"unknown largest-root convention {convention!r}")


def canonical_form_sample(rng: np.random.Generator, signal, dims: Dims) -> SumsOfSquares:
    """Sample (S_E, S_X) directly in canonical form.

    Y1 (r x m) has independent rows with means given by the signal matrix and
    identity covariance; Y2 ((n-p) x m) is pure noise. Returns
    S_X = Y1'Y1, S_E = Y2'Y2. The null hypothesis corresponds to signal 0.
    """
    if not dims.lrt_defined:
        raise RegimeError(f"canonical form needs n > p + m, got {dims}")
    if signal is None:
        M1 = np.zeros((dims.r, dims.m))
    else:
        M1 = signal.M1 if isinstance(signal, SignalMatrix) else np.asarray(signal, dtype=float)
    if M1.shape != (dims.r, dims.m):
        raise DomainError(f"signal shape {M1.shape} does not match (r, m)=({dims.r}, {dims.m})")
    Y1 = M1 + rng.standard_normal((dims.r, dims.m))
    Y2 = rng.standard_normal((dims.n - dims.p, dims.m))
    return SumsOfSquares(Y2.T @ Y2, Y1.T @ Y1, dims)
