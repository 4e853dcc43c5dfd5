"""Model-level linear algebra for the general linear hypothesis C B = 0.

Everything downstream of the raw data lives here: the error and hypothesis
sums-of-squares pair (S_E, S_X), the relative eigenvalues driving the
likelihood ratio, the largest-root quantity, and direct sampling of the
canonical form. A HypothesisMatrix lays a design out with its hypothesis on
the first r columns, and every pair fitted from data is one QR of that
design next to Y, with those columns moved last (the extra-sum-of-squares
identity); no explicit matrix inverse is ever formed.

A SumsOfSquares holds one pair (S_E, S_X) or a stack of B pairs of the same
dimensions, shape (B, m, m). A stack is checked once and factored by batched
Cholesky and eigvalsh calls, with the two triangular solves made per pair.
The readers return a float (or an m-vector) for a pair and an array with a
leading axis B for a stack. A stack can also be screened against a cut on its
largest relative root with one Cholesky of cut S_E - S_X per pair and no
eigen solve, and a sub-stack of chosen pairs keeps each pair's bits.

The canonical sampler draws a stack from one generator, S_E = T T' by the
Bartlett decomposition of the Wishart law, and keeps the triangular T as the
Cholesky factor of S_E: a sampled pair needs one Cholesky (of S_E + S_X).

Reproducibility: each pair of a stack gets the bits it would get alone, and
a sampled pair is pair 0 of a stack of size 1 drawn from the same stream.

``scipy.linalg`` is imported on first use, by the first relative-eigenvalue
computation or screen (for its LAPACK dtrtrs and dpotrf), not when this
module loads: the fit, the likelihood ratio and the sampler need only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMatrixError,
    DomainError,
    HypothesisRankError,
    RegimeError,
    SingularDesignError,
    check_integer,
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
            check_integer(f"Dims.{name}", getattr(self, name))
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
    """Contrast matrix C (r x p); must have full row rank r.

    ``design(X)`` returns the design with the hypothesis on its first r
    columns, in which C B = 0 says that their coefficients vanish. For a
    leading-identity C, [I_r 0], that is X itself: C has full row rank by
    its form, and neither an SVD nor a rotation is made. Any other C takes
    the full SVD C = U S V' at construction, as its rank check, and keeps
    ``rotation`` = V, whose first r columns span the row space of C; its
    design is X V.
    """

    def __init__(self, C):
        C = _check_matrix(C, "C")
        r = C.shape[0]
        if r > C.shape[1]:
            raise HypothesisRankError(f"C is {r}x{C.shape[1]}: more rows than columns")
        self.C = C
        # [I_r 0] within 1e-12 per entry, checked with one r x p copy of C
        dev = C.copy()
        dev[np.arange(r), np.arange(r)] -= 1.0
        self.rotation = None
        if np.abs(dev, out=dev).max() > 1e-12:
            _, sv, vt = np.linalg.svd(C)
            if sv[0] == 0.0 or sv[-1] < RANK_TOL * sv[0]:
                raise HypothesisRankError(f"C is numerically rank deficient (rank < {r})")
            self.rotation = vt.T

    def design(self, X: np.ndarray) -> np.ndarray:
        """X with the hypothesis on its first r columns: X itself, or X V."""
        return X if self.rotation is None else X @ self.rotation

    @property
    def r(self) -> int:
        return self.C.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[1]

    def is_leading_identity(self) -> bool:
        """True when C is [I_r, 0] to within 1e-12 per entry, the already-canonical layout."""
        return self.rotation is None

    def __repr__(self):
        return f"HypothesisMatrix(r={self.r}, p={self.p})"


def _transpose(a: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (or of one matrix)."""
    return np.swapaxes(a, -1, -2)


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

    @classmethod
    def _of(cls, s_err, s_hyp, dims: Dims, chol_err=None) -> "SumsOfSquares":
        """A pair or stack without __init__'s checks and re-symmetrizing, only for
        arrays of the right shape that are finite and symmetric by construction;
        ``chol_err``, if given, is stored as S_E's lower Cholesky factor."""
        ss = cls.__new__(cls)
        ss.s_err, ss.s_hyp, ss.dims = s_err, s_hyp, dims
        if chol_err is not None:
            ss._chol_err = chol_err
        return ss

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
        # bound once per stack, outside the pair loop, where each import would cost a lookup
        from scipy.linalg.lapack import dtrtrs

        def solve_lower(L, b):
            # L^{-1} b for a C-ordered lower-triangular L with a positive diagonal: the
            # LAPACK trtrs call that scipy's solve_triangular makes for such an L, so the
            # bits are the same, without that function's per-call checks, which cost
            # more than the solve on the small matrices of a stack
            return dtrtrs(L.T, b, lower=0, trans=1)[0]

        L = self._chol_err
        m = self.dims.m
        W = np.empty_like(self.s_hyp)
        for Lk, Sk, Wk in zip(L.reshape(-1, m, m), self.s_hyp.reshape(-1, m, m),
                              W.reshape(-1, m, m)):
            Wk[...] = solve_lower(Lk, solve_lower(Lk, Sk).T)
        vals = np.linalg.eigvalsh(0.5 * (W + _transpose(W)))[..., ::-1]
        return np.where(vals < EIG_CLAMP, 0.0, vals)

    def _roots_below(self, cut: float) -> np.ndarray:
        """For each pair of a stack, whether its largest relative root is proven
        to lie above 2 EIG_CLAMP and below ``cut``, without an eigen solve.

        Below: cut S_E - S_X has a Cholesky factor (one LAPACK dpotrf per
        pair). Above: S_X[ii] / S_E[ii], the Rayleigh quotient of a coordinate
        vector, is at most the largest root, so a root that the clamp could set
        to 0 is never cleared. S_E is factored first, so a stack raises what its
        relative eigenvalues would raise.
        """
        from scipy.linalg.lapack import dpotrf

        _ = self._chol_err
        rayleigh = (np.diagonal(self.s_hyp, axis1=-2, axis2=-1)
                    / np.diagonal(self.s_err, axis1=-2, axis2=-1)).max(axis=-1)
        # dpotrf reads one triangle of the symmetric A and overwrites A' in place,
        # an F-ordered view of the temporary, so no pair is copied
        pd = [dpotrf(a.T, overwrite_a=1, clean=0)[1] == 0 for a in cut * self.s_err - self.s_hyp]
        return (rayleigh > 2.0 * EIG_CLAMP) & np.array(pd, dtype=bool)

    def _pairs(self, index) -> "SumsOfSquares":
        """The sub-stack of the pairs at ``index``, with whatever of the stack's
        factorization is already computed: each pair keeps its bits."""
        sub = SumsOfSquares._of(self.s_err[index], self.s_hyp[index], self.dims)
        for name in ("_chol_err", "_neg2_log_lrt", "_rel_eigenvalues"):
            if name in self.__dict__:
                setattr(sub, name, self.__dict__[name][index])
        return sub

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


def _extra_ss(X: np.ndarray, Y: np.ndarray, q: int):
    """(S_E, S_X) for the hypothesis that the first q coefficient rows of
    Y = X B + E vanish.

    One QR of [X_rest X_hyp Y], the q hypothesis columns moved last, gives
    R = [[R_XX, R_XY], [0, R_YY]]: S_E = R_YY' R_YY is the residual Gram
    matrix of the full fit, and S_X = H' H, with H the q rows of R_XY facing
    the hypothesis columns, is the extra sum of squares those columns explain
    (Anderson 2003, section 8.3). The R diagonal of the X block is the
    design's rank check.
    """
    n, p = X.shape
    if n < p:
        raise SingularDesignError(f"design has n={n} rows but p={p} columns")
    R = np.linalg.qr(np.hstack([X[:, q:], X[:, :q], Y]), mode="r")
    diag = np.abs(np.diag(R)[:p])
    if diag.max() == 0.0 or diag.min() < RANK_TOL * diag.max():
        raise SingularDesignError("design matrix is numerically rank deficient")
    H, R_yy = R[p - q:p, p:], R[p:, p:]
    return R_yy.T @ R_yy, H.T @ H


def _hypothesis(C, p: int) -> HypothesisMatrix:
    """C as a HypothesisMatrix, checked against a design with p columns."""
    hyp = C if isinstance(C, HypothesisMatrix) else HypothesisMatrix(C)
    if hyp.p != p:
        raise DomainError(f"C has {hyp.p} columns but the design has p={p}")
    return hyp


def hypothesis_ss(data: DataSet, C) -> SumsOfSquares:
    """Error and hypothesis sums of squares for testing C B = 0.

    S_X = (C Bhat)' [C (X'X)^{-1} C']^{-1} (C Bhat), computed without any
    inverse: _extra_ss takes one QR of the design C.design(X), whose first r
    columns carry the hypothesis, next to Y.
    """
    C = _hypothesis(C, data.p)
    s_err, s_hyp = _extra_ss(C.design(data.X), data.Y, C.r)
    return SumsOfSquares(s_err, s_hyp, Dims(data.n, data.p, data.m, C.r))


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


def canonical_form_sample(rng, signal, dims: Dims, size=None) -> SumsOfSquares:
    """Sample (S_E, S_X) directly in canonical form: one pair, or a stack of ``size``.

    S_X = Y1'Y1, where Y1 (r x m) has independent rows with means given by
    the signal matrix and identity covariance; the null is signal 0.
    S_E ~ Wishart_m(I, n - p) is T T' by the Bartlett decomposition (Smith &
    Hocking 1972, AS 53): T is lower triangular, T_ii^2 ~ chi2(n - p - i) for
    i = 0 .. m-1, N(0, 1) below the diagonal, and is stored as S_E's factor.

    All draws come from ``rng`` in this order, with B = 1 when size is None:
    Y1 as one (B, r, m) array, then the below-diagonal entries of each T as
    a (B, m(m-1)/2) array (row by row), then the diagonal chi-squares as a
    (B, m) array.
    """
    if not dims.lrt_defined:
        raise RegimeError(f"canonical form needs n > p + m, got {dims}")
    if size is not None:
        check_integer("size", size)
    if signal is None:
        M1 = np.zeros((dims.r, dims.m))
    else:
        M1 = signal.M1 if isinstance(signal, SignalMatrix) else _check_matrix(signal, "signal")
    if M1.shape != (dims.r, dims.m):
        raise DomainError(f"signal shape {M1.shape} does not match (r, m)=({dims.r}, {dims.m})")
    B, m = 1 if size is None else size, dims.m
    Y1 = rng.standard_normal((B, dims.r, m))
    Y1 += M1
    T = np.zeros((B, m, m))
    rows, cols = np.tril_indices(m, -1)
    T[:, rows, cols] = rng.standard_normal((B, rows.size))
    diag = np.arange(m)
    T[:, diag, diag] = np.sqrt(rng.chisquare(dims.n - dims.p - diag, size=(B, m)))
    # numpy forms a product A A' by one syrk and mirrors it, so both are exactly symmetric
    s_err, s_hyp = T @ _transpose(T), _transpose(Y1) @ Y1
    if size is None:
        return SumsOfSquares._of(s_err[0], s_hyp[0], dims, chol_err=T[0])
    return SumsOfSquares._of(s_err, s_hyp, dims, chol_err=T)
