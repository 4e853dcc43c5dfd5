"""Model core: fitting, sums of squares, eigen reductions, canonical sampling.

Derived checks run against deliberately naive oracles (explicit projection
matrices, explicit inverses, dense generalized eigensolvers) so the QR and
Cholesky production paths are tested by a genuinely different route.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ks_2samp

from mvlrt.distributions import sample_beta
from mvlrt.errors import (
    DegenerateMatrixError,
    DomainError,
    HypothesisRankError,
    RegimeError,
    SingularDesignError,
)
from mvlrt.model import (
    DataSet,
    Dims,
    HypothesisMatrix,
    SignalMatrix,
    SumsOfSquares,
    _extra_ss,
    canonical_form_sample,
    hypothesis_ss,
    neg2_log_lrt,
    rel_eigenvalues,
    theta_max,
)
from mvlrt.rng import stream


def _random_ss(rng, dims):
    return canonical_form_sample(rng, None, dims)


# === domain types ===


def test_dims_invariants():
    d = Dims(10, 3, 2, 2)
    assert d.lrt_defined
    assert not Dims(5, 3, 2, 2).lrt_defined
    with pytest.raises(DomainError):
        Dims(10, 3, 2, 4)  # r > p
    with pytest.raises(DomainError):
        Dims(10, 0, 2, 1)
    for bad in ((10, 2.5, 2, 1), (100, 50, 20, 30.0), (None, 50, 20, 30), (10, 3, True, 1)):
        with pytest.raises(DomainError, match="must be an integer"):
            Dims(*bad)
    assert Dims(np.int64(100), 50, 20, 30).lrt_defined


def test_dataset_validation():
    with pytest.raises(DomainError):
        DataSet(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(DomainError):
        DataSet(np.array([[1.0, np.nan]]), np.array([[1.0]]))
    d = DataSet(np.ones((4, 2)), np.ones((4, 3)))
    assert (d.n, d.p, d.m) == (4, 2, 3)


def test_hypothesis_matrix_rank_check():
    HypothesisMatrix(np.eye(3)[:2])
    with pytest.raises(HypothesisRankError):
        HypothesisMatrix(np.array([[1.0, 2.0], [2.0, 4.0]]))  # rank 1
    with pytest.raises(HypothesisRankError):
        HypothesisMatrix(np.zeros((2, 3)))
    with pytest.raises(HypothesisRankError):
        HypothesisMatrix(np.ones((3, 2)))  # more rows than columns
    assert HypothesisMatrix(np.eye(5)[:3]).rotation is None
    assert HypothesisMatrix(np.eye(5)[::-1][:3]).rotation is not None


def test_leading_identity_check_matches_the_dense_target():
    rng = stream(30)
    for r, p in ((1, 1), (2, 5), (3, 3), (4, 9)):
        target = np.zeros((r, p))
        target[:, :r] = np.eye(r)
        for scale in (0.0, 5e-13, 1e-12, 2e-12, 1e-6):
            for _ in range(5):
                C = target + scale * rng.uniform(-1.0, 1.0, (r, p))
                expected = bool(np.allclose(C, target, rtol=0.0, atol=1e-12))
                assert (HypothesisMatrix(C).rotation is None) == expected


def _count_svd(monkeypatch):
    """A list that gets one entry per np.linalg.svd call from now on."""
    calls = []
    orig = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_leading_identity_builds_no_basis(monkeypatch):
    svd_calls = _count_svd(monkeypatch)
    C = np.hstack([np.eye(2), np.zeros((2, 3998))])
    tracemalloc.start()
    try:
        hyp = HypothesisMatrix(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svd_calls == []
    assert hyp.rotation is None
    X = np.ones((3, 4000))
    assert hyp.design(X) is X
    assert peak < 1_000_000, f"traced peak {peak} bytes"


def test_hypothesis_ss_on_leading_identity_takes_no_svd(monkeypatch):
    svd_calls = _count_svd(monkeypatch)
    rng = stream(33)
    data = DataSet(rng.standard_normal((30, 6)), rng.standard_normal((30, 3)))
    hypothesis_ss(data, np.eye(6)[:2])
    hypothesis_ss(data, HypothesisMatrix(np.eye(6)))
    assert svd_calls == []


@pytest.mark.parametrize("C", [np.eye(6)[:2], np.eye(4),
                               stream(31).standard_normal((2, 6))],
                         ids=["leading", "square_identity", "general"])
def test_basis_is_the_full_svd_whenever_it_is_built(C):
    """A general C keeps V of its full SVD, row space first; [I_r 0] keeps none."""
    hyp = HypothesisMatrix(C)
    X = stream(34).standard_normal((9, C.shape[1]))
    _, _, vt = np.linalg.svd(C)
    if hyp.rotation is None:
        assert hyp.design(X) is X
        assert np.array_equal(vt, np.eye(C.shape[1]))  # the rotation it skips is the identity
    else:
        assert np.array_equal(hyp.rotation, vt.T)
        assert hyp.design(X).tobytes() == (X @ vt.T).tobytes()
        assert np.abs(C @ hyp.rotation[:, C.shape[0]:]).max() < 1e-12  # null space last


def _assert_checked_pair(ss, dims):
    """ss is a fitted pair or stack at dims, exactly symmetric, with the bits
    and the -2 log L_n of the checked SumsOfSquares built from its matrices."""
    assert ss.dims == dims
    for S in (ss.s_err, ss.s_hyp):
        assert np.array_equal(S, np.swapaxes(S, -1, -2))
    checked = SumsOfSquares(ss.s_err, ss.s_hyp, dims)
    assert checked.s_err.tobytes() == ss.s_err.tobytes()
    assert checked.s_hyp.tobytes() == ss.s_hyp.tobytes()
    assert np.array_equal(neg2_log_lrt(checked), neg2_log_lrt(ss))


def test_split_pair_is_exactly_symmetric():
    """_extra_ss returns its pair, at Dims(n, p, m, q) read from the shapes,
    built without the checks and re-symmetrizing of __init__: it forms both
    matrices by syrk, so the checked pair has the same bits. So does a stack."""
    def fit_data(k, n_t, p0, m0):
        rng = stream(32, k)
        XY = rng.standard_normal((n_t, p0 + m0))
        XY[:, p0:] += XY[:, :p0] @ rng.standard_normal((p0, m0))
        return XY[:, :p0], XY[:, p0:]

    for k, (n_t, p0, q, m0) in enumerate([(70, 24, 24, 20), (70, 30, 2, 5), (28, 10, 3, 1),
                                         (100, 50, 1, 20), (40, 1, 1, 7), (200, 120, 60, 40)]):
        _assert_checked_pair(_extra_ss(*fit_data(k, n_t, p0, m0), q), Dims(n_t, p0, m0, q))
    sets = [fit_data(10 + k, 70, 30, 5) for k in range(4)]
    stack = _extra_ss(np.stack([X for X, _ in sets]), np.stack([Y for _, Y in sets]), 2)
    _assert_checked_pair(stack, Dims(70, 30, 5, 2))
    for k, (X, Y) in enumerate(sets):  # each pair of the stack has the bits it gets alone
        alone = _extra_ss(X, Y, 2)
        assert stack.s_err[k].tobytes() == alone.s_err.tobytes()
        assert stack.s_hyp[k].tobytes() == alone.s_hyp.tobytes()


def _qr_products(X, Y, q):
    """Per pair, R_YY' R_YY and H' H from the QR of [X_rest X_hyp Y] of that pair alone."""
    p = X.shape[-1]
    R = np.linalg.qr(np.concatenate([X[:, q:], X[:, :q], Y], axis=1), mode="r")
    H, R_yy = R[p - q:p, p:], R[p:, p:]
    return R_yy.T @ R_yy, H.T @ H


def test_stacked_fit_products_equal_the_per_pair_products():
    """The two stacked products of _extra_ss give each pair the bits of its own
    R_YY' R_YY and H' H, exactly symmetric: at m0 = 1..5 and 20 for stacks of 1 to
    32, and at the 10,000 x 60 [X Y] of a tall fit."""
    g = stream(33)
    cases = [(70, 30, 2, m0, size) for m0 in (1, 2, 3, 4, 5, 20) for size in (1, 2, 7, 32)]
    for n, p, q, m0, size in cases + [(10_000, 50, 10, 10, None)]:
        X = g.standard_normal((size or 1, n, p))
        Y = X[..., :5] @ g.standard_normal((5, m0)) + g.standard_normal((size or 1, n, m0))
        got = _extra_ss(X, Y, q) if size else _extra_ss(X[0], Y[0], q)
        s_err, s_hyp = (a.reshape(-1, m0, m0) for a in (got.s_err, got.s_hyp))
        for k in range(size or 1):
            want_err, want_hyp = _qr_products(X[k], Y[k], q)
            assert s_err[k].tobytes() == want_err.tobytes(), (n, p, q, m0, size, k)
            assert s_hyp[k].tobytes() == want_hyp.tobytes(), (n, p, q, m0, size, k)
        assert np.array_equal(s_err, s_err.swapaxes(1, 2))
        assert np.array_equal(s_hyp, s_hyp.swapaxes(1, 2))


def test_a_stack_of_fits_raises_its_first_failing_pair():
    """Pair 1 of a stack has a rank-deficient design and pair 3 an S_E that
    overflows: the stack raises pair 1's error, and with the two swapped, pair 1's
    DomainError, each as the pair raises it alone."""
    g = stream(34)
    X, Y = g.standard_normal((5, 30, 6)), g.standard_normal((5, 30, 3))
    X[1, :, 4] = X[1, :, 0] - X[1, :, 2]
    Y[3] *= 1e160
    with pytest.raises(SingularDesignError, match="numerically rank deficient"):
        _extra_ss(X[1], Y[1], 2)
    order = [0, 3, 2, 1, 4]
    with np.errstate(over="ignore"):
        with pytest.raises(SingularDesignError, match="numerically rank deficient"):
            _extra_ss(X, Y, 2)
        with pytest.raises(DomainError) as alone:
            _extra_ss(X[3], Y[3], 2)
        with pytest.raises(DomainError) as stacked:
            _extra_ss(X[order], Y[order], 2)
    assert str(stacked.value) == str(alone.value) == "S_E must lie in (-inf, inf), got inf"


def test_sums_of_squares_validation():
    dims = Dims(20, 3, 2, 2)
    with pytest.raises(DomainError):
        SumsOfSquares(np.eye(3), np.eye(3), dims)  # wrong size for m=2
    with pytest.raises(DomainError):
        SumsOfSquares(np.array([[1.0, 5.0], [0.0, 1.0]]), np.eye(2), dims)
    ss = SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)
    assert ss.dims.lrt_defined
    assert not SumsOfSquares(np.eye(2), np.eye(2), Dims(4, 2, 2, 1)).dims.lrt_defined


def test_signal_matrix_accessors():
    dims = Dims(30, 4, 3, 2)
    sig = SignalMatrix.diagonal_spikes([2.0, 1.0], dims)
    assert sig.M1.shape == (2, 3)
    omega = sig.omega()
    assert np.allclose(omega, np.diag([4.0, 1.0, 0.0]))
    assert np.allclose(sig.delta(30), omega / 30.0)
    with pytest.raises(DomainError):
        SignalMatrix.diagonal_spikes([1.0, 1.0, 1.0], dims)  # k > min(r, m)


# === fitting ===


def test_fit_exact_line():
    data = DataSet(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]]))
    s_err = hypothesis_ss(data, np.eye(1)).s_err
    assert abs(s_err[0, 0]) < 1e-12


def test_fit_saturated_design():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    s_err = hypothesis_ss(DataSet(np.eye(2), y), np.eye(2)).s_err
    assert np.abs(s_err).max() < 1e-12


def test_fit_matches_explicit_projection_oracle():
    rng = stream(101)
    X = rng.standard_normal((20, 3))
    Y = rng.standard_normal((20, 2))
    s_err = hypothesis_ss(DataSet(X, Y), np.eye(3)).s_err
    # oracle: build the projection matrix explicitly
    P = X @ np.linalg.inv(X.T @ X) @ X.T
    want = Y.T @ (np.eye(20) - P) @ Y
    assert np.allclose(s_err, want, rtol=1e-9, atol=1e-9)


def test_fit_rejects_rank_deficiency():
    rng = stream(102)
    X = rng.standard_normal((10, 3))
    X[:, 2] = X[:, 0] + X[:, 1]
    with pytest.raises(SingularDesignError):
        hypothesis_ss(DataSet(X, rng.standard_normal((10, 2))), np.eye(3))
    with pytest.raises(SingularDesignError):
        hypothesis_ss(DataSet(rng.standard_normal((2, 5)), rng.standard_normal((2, 1))),
                      np.eye(5))


def test_hypothesis_ss_identity_c():
    rng = stream(103)
    X = rng.standard_normal((25, 4))
    Y = rng.standard_normal((25, 3))
    ss = hypothesis_ss(DataSet(X, Y), HypothesisMatrix(np.eye(4)))
    want = Y.T @ X @ np.linalg.inv(X.T @ X) @ X.T @ Y
    assert np.allclose(ss.s_hyp, want, rtol=1e-8)


def test_hypothesis_ss_tiny_example():
    # X = (1,2)', Y = (2,4)', C = (1): S_X = (C Bhat)' [C (X'X)^{-1} C']^{-1} C Bhat = 4 * 5 = 20
    data = DataSet(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]]))
    ss = hypothesis_ss(data, np.array([[1.0]]))
    assert ss.s_hyp[0, 0] == pytest.approx(20.0, rel=1e-12)


def test_hypothesis_ss_matches_explicit_inverse_oracle():
    rng = stream(104)
    X = rng.standard_normal((30, 4))
    Y = rng.standard_normal((30, 3))
    xtx_inv = np.linalg.inv(X.T @ X)
    bhat = xtx_inv @ X.T @ Y
    for C in (np.eye(4)[:2],
              stream(106).standard_normal((2, 4)),  # dense: every column carries the hypothesis
              np.diag([3.0, -0.5]) @ np.eye(4)[[2, 0]]):  # leading identity, rows permuted, scaled
        ss = hypothesis_ss(DataSet(X, Y), C)
        cb = C @ bhat
        want = cb.T @ np.linalg.inv(C @ xtx_inv @ C.T) @ cb
        assert np.allclose(ss.s_hyp, want, rtol=1e-8)
        assert ss.dims == Dims(30, 4, 3, 2)


@pytest.mark.parametrize("n, p, m", [(70, 24, 20), (100, 50, 20), (10_000, 50, 10)])
@pytest.mark.parametrize("general", [False, True], ids=["leading_identity", "general"])
def test_neg2_log_lrt_matches_two_least_squares_fits(n, p, m, general):
    """-2 log L_n against n [logdet S_E(reduced) - logdet S_E(full)], where the
    reduced model under C B = 0 is X N with N a null-space basis of C."""
    rng = stream(107, n, p)
    r = 5
    X = rng.standard_normal((n, p))
    B = np.zeros((p, m))
    B[:r] = 0.3 * rng.standard_normal((r, m))  # some signal, so the fits differ
    Y = X @ B + rng.standard_normal((n, m))
    C = rng.standard_normal((r, p)) if general else np.eye(p)[:r]

    def resid_logdet(design):
        resid = Y - design @ np.linalg.lstsq(design, Y, rcond=None)[0]
        sign, logdet = np.linalg.slogdet(resid.T @ resid)
        assert sign > 0
        return logdet

    ref = n * (resid_logdet(X @ scipy.linalg.null_space(C)) - resid_logdet(X))
    got = neg2_log_lrt(hypothesis_ss(DataSet(X, Y), C))
    assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (got, ref)


def test_hypothesis_ss_rejects_mismatched_c():
    rng = stream(105)
    data = DataSet(rng.standard_normal((10, 3)), rng.standard_normal((10, 2)))
    with pytest.raises(DomainError):
        hypothesis_ss(data, np.eye(4)[:2])


# === reductions ===


def test_neg2_log_lrt_trivial_cases():
    dims = Dims(20, 3, 2, 2)
    assert neg2_log_lrt(SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)) == 0.0
    # m=1: n log(det(S_E+S_X)/det(S_E)) = 2 log(e) = 2
    one = SumsOfSquares(np.array([[1.0]]), np.array([[math.e - 1.0]]), Dims(2, 1, 1, 1))
    # n=2 > p+m fails here, so build a defined variant with the same ratio
    defined = SumsOfSquares(np.array([[1.0]]), np.array([[math.e - 1.0]]), Dims(4, 1, 1, 1))
    assert neg2_log_lrt(defined) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(RegimeError):
        neg2_log_lrt(one)


def test_det_path_equals_eigenvalue_path():
    for k in range(25):
        dims = Dims(40, 6, 5, 4)
        ss = _random_ss(stream(200, k), dims)
        direct = neg2_log_lrt(ss)
        lam = rel_eigenvalues(ss)
        via_eigs = dims.n * np.sum(np.log1p(lam))
        assert direct == pytest.approx(via_eigs, rel=1e-8)


def test_rel_eigenvalues_diagonal_and_zero():
    dims = Dims(40, 5, 2, 3)
    ss = SumsOfSquares(np.eye(2), np.diag([3.0, 1.0]), dims)
    assert np.allclose(rel_eigenvalues(ss), [3.0, 1.0])
    ss0 = SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)
    assert np.all(rel_eigenvalues(ss0) == 0.0)


def test_rel_eigenvalues_against_generalized_solver():
    for k in range(10):
        ss = _random_ss(stream(201, k), Dims(50, 8, 4, 5))
        mine = rel_eigenvalues(ss)
        dense = np.sort(scipy.linalg.eigh(ss.s_hyp, ss.s_err, eigvals_only=True))[::-1]
        assert np.allclose(mine, np.maximum(dense, 0.0), rtol=1e-8, atol=1e-10)


def test_theta_max_conventions():
    dims = Dims(40, 5, 2, 3)
    ss = SumsOfSquares(np.eye(2), np.diag([3.0, 1.0]), dims)
    assert theta_max(ss) == pytest.approx(0.75)
    ss0 = SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)
    assert theta_max(ss0) == 0.0


def test_degenerate_error_matrix_raises():
    dims = Dims(30, 2, 2, 2)
    singular = SumsOfSquares(np.diag([1.0, 0.0]), np.eye(2), dims)
    with pytest.raises(DegenerateMatrixError):
        neg2_log_lrt(singular)


def test_failed_factorization_raises_on_every_call():
    no_lrt = SumsOfSquares(np.eye(2), np.eye(2), Dims(4, 2, 2, 1))  # n <= p + m
    for reader in (neg2_log_lrt, rel_eigenvalues, theta_max):
        for _ in range(2):
            with pytest.raises(RegimeError):
                reader(no_lrt)
    singular = SumsOfSquares(np.diag([1.0, 0.0]), np.eye(2), Dims(30, 2, 2, 2))
    for _ in range(2):
        with pytest.raises(DegenerateMatrixError):
            rel_eigenvalues(singular)


# === stacks of pairs ===


def _stack(pairs):
    """The pairs as one stack that keeps each pair's Cholesky factor of S_E."""
    return SumsOfSquares._of(np.stack([ss.s_err for ss in pairs]),
                             np.stack([ss.s_hyp for ss in pairs]), pairs[0].dims,
                             chol_err=np.stack([ss._chol_err for ss in pairs]))


def test_canonical_pair_is_pair_zero_of_a_stack_of_one():
    dims = Dims(40, 6, 5, 3)
    signal = SignalMatrix.diagonal_spikes([2.0, 1.0], dims)
    one = canonical_form_sample(stream(410), signal, dims)
    stack = canonical_form_sample(stream(410), signal, dims, size=1)
    assert one.s_err.shape == one.s_hyp.shape == (5, 5)
    assert stack.s_err.shape == stack.s_hyp.shape == (1, 5, 5)
    assert np.array_equal(one.s_err, stack.s_err[0])
    assert np.array_equal(one.s_hyp, stack.s_hyp[0])
    assert np.array_equal(one._chol_err, stack._chol_err[0])


@pytest.mark.parametrize("dims", [Dims(40, 6, 5, 3), Dims(100, 50, 20, 30), Dims(9, 2, 1, 2)])
def test_canonical_stack_follows_the_documented_draw_order(dims):
    """Y1, then the below-diagonal normals, then the diagonal chi-squares, all
    from the one generator; S_E = T T' is exactly symmetric and T is its factor."""
    B, m = 6, dims.m
    signal = np.full((dims.r, m), 0.5)
    ss = canonical_form_sample(stream(412), signal, dims, size=B)
    rng = stream(412)
    Y1 = rng.standard_normal((B, dims.r, m)) + signal
    below = rng.standard_normal((B, m * (m - 1) // 2))
    chi2 = rng.chisquare(dims.n - dims.p - np.arange(m), size=(B, m))
    for k in range(B):
        T = np.diag(np.sqrt(chi2[k]))
        T[np.tril_indices(m, -1)] = below[k]
        assert np.array_equal(ss._chol_err[k], T)
        assert np.array_equal(ss.s_err[k], T @ T.T)
        assert np.array_equal(ss.s_hyp[k], Y1[k].T @ Y1[k])
    for a in (ss.s_err, ss.s_hyp):
        assert np.array_equal(a, np.swapaxes(a, -1, -2))
    assert np.allclose(np.linalg.cholesky(ss.s_err), ss._chol_err, rtol=1e-12, atol=1e-12)


def test_stack_readers_give_each_pair_its_own_bits():
    dims = Dims(100, 50, 20, 30)
    pairs = [_random_ss(stream(411, k), dims) for k in range(9)]
    stack = _stack(pairs)  # built from the pairs' own Bartlett factors
    assert np.array_equal(neg2_log_lrt(stack), [neg2_log_lrt(ss) for ss in pairs])
    assert np.array_equal(rel_eigenvalues(stack), [rel_eigenvalues(ss) for ss in pairs])
    assert np.array_equal(theta_max(stack), [theta_max(ss) for ss in pairs])
    assert isinstance(neg2_log_lrt(pairs[0]), float)
    assert isinstance(theta_max(pairs[0]), float)


def test_stack_validation():
    dims = Dims(20, 3, 2, 2)
    eye = np.stack([np.eye(2)] * 3)
    with pytest.raises(DomainError):
        SumsOfSquares(eye, np.stack([np.eye(2)] * 2), dims)  # stacks of unequal length
    with pytest.raises(DomainError):
        SumsOfSquares(eye[None], eye[None], dims)  # 4-d
    lopsided = eye.copy()
    lopsided[2, 0, 1] = 5.0
    with pytest.raises(DomainError):
        SumsOfSquares(eye, lopsided, dims)
    bad = eye.copy()
    bad[1, 1, 1] = np.nan
    with pytest.raises(DomainError):
        SumsOfSquares(bad, eye, dims)


def test_stack_with_one_singular_error_matrix_raises():
    dims = Dims(30, 2, 2, 2)
    s_err = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
    stack = SumsOfSquares(s_err, np.stack([np.eye(2)] * 3), dims)
    for reader in (neg2_log_lrt, rel_eigenvalues, theta_max):
        with pytest.raises(DegenerateMatrixError):
            reader(stack)


# === invariances ===


def test_invariance_under_response_transformation():
    rng = stream(300)
    X = rng.standard_normal((40, 5))
    Y = rng.standard_normal((40, 3))
    C = np.eye(5)[:3]
    base = hypothesis_ss(DataSet(X, Y), C)
    v0 = (neg2_log_lrt(base), rel_eigenvalues(base), theta_max(base))
    for k in range(5):
        # conditioned transform: random orthogonal times modest diagonal
        q, _ = np.linalg.qr(stream(301, k).standard_normal((3, 3)))
        A = q @ np.diag([1.0, 3.0, 9.0])
        ss = hypothesis_ss(DataSet(X, Y @ A), C)
        assert np.allclose(ss.s_err, A.T @ base.s_err @ A, rtol=1e-8)
        assert neg2_log_lrt(ss) == pytest.approx(v0[0], rel=1e-8)
        assert np.allclose(rel_eigenvalues(ss), v0[1], rtol=1e-8, atol=1e-9)
        assert theta_max(ss) == pytest.approx(v0[2], rel=1e-8)


def test_invariance_under_joint_row_permutation():
    rng = stream(302)
    X = rng.standard_normal((30, 4))
    Y = rng.standard_normal((30, 2))
    C = np.eye(4)[:2]
    perm = stream(303).permutation(30)
    a = hypothesis_ss(DataSet(X, Y), C)
    b = hypothesis_ss(DataSet(X[perm], Y[perm]), C)
    assert np.allclose(a.s_err, b.s_err, atol=1e-10)
    assert np.allclose(a.s_hyp, b.s_hyp, atol=1e-10)
    assert neg2_log_lrt(a) == pytest.approx(neg2_log_lrt(b), abs=1e-10)


# === canonical sampling ===


def test_canonical_sample_reproducible_and_shapes():
    dims = Dims(30, 5, 3, 4)
    a = canonical_form_sample(stream(400), None, dims)
    b = canonical_form_sample(stream(400), None, dims)
    assert np.array_equal(a.s_err, b.s_err) and np.array_equal(a.s_hyp, b.s_hyp)
    assert a.s_err.shape == (3, 3)
    with pytest.raises(DomainError):
        canonical_form_sample(stream(0), np.zeros((2, 2)), dims)
    with pytest.raises(RegimeError):
        canonical_form_sample(stream(0), None, Dims(7, 5, 3, 4))
    for size in (0, -3, 2.5, 2.0, True):
        with pytest.raises(DomainError):
            canonical_form_sample(stream(0), None, dims, size=size)
    assert canonical_form_sample(stream(0), None, dims, size=np.int64(2)).s_err.shape == (2, 3, 3)
    with pytest.raises(DomainError, match=r"^signal must lie in \(-inf, inf\), got nan$"):
        canonical_form_sample(stream(0), np.full((4, 3), np.nan), dims)


def test_canonical_sample_trace_means():
    dims = Dims(30, 5, 3, 4)
    reps = 10_000
    tr_hyp = np.empty(reps)
    tr_err = np.empty(reps)
    for k in range(reps):
        ss = canonical_form_sample(stream(401, k), None, dims)
        tr_hyp[k] = np.trace(ss.s_hyp)
        tr_err[k] = np.trace(ss.s_err)
    # trace of an m x m Wishart with q degrees of freedom has mean qm, var 2qm
    for got, q in ((tr_hyp, dims.r), (tr_err, dims.n - dims.p)):
        want = q * dims.m
        se = math.sqrt(2.0 * q * dims.m / reps)
        assert abs(got.mean() - want) <= 3.0 * se


def test_canonical_sample_mean_matrix():
    """E[S_X] = r I + M1'M1, checked entrywise."""
    dims = Dims(20, 4, 2, 3)
    sig = SignalMatrix.diagonal_spikes([2.0, 1.0], dims)
    reps, block = 100_000, 1_000
    acc = np.zeros((2, 2))
    for b in range(reps // block):
        acc += canonical_form_sample(stream(402, b), sig, dims, size=block).s_hyp.sum(axis=0)
    got = acc / reps
    want = dims.r * np.eye(2) + sig.omega()
    # crude uniform bound on the entry standard errors at these sizes
    assert np.abs(got - want).max() <= 4.0 * 0.06


def test_canonical_error_matrix_has_wishart_moments():
    """S_E ~ Wishart_m(I, q), q = n - p: E S_E = q I, Var S_ii = 2q, Var S_ij = q."""
    dims = Dims(20, 4, 3, 2)
    q, m = dims.n - dims.p, dims.m
    reps, block = 20_000, 1_000
    s_err = np.concatenate([canonical_form_sample(stream(405, b), None, dims, size=block).s_err
                            for b in range(reps // block)])
    diag = s_err[:, np.arange(m), np.arange(m)]
    off = s_err[:, [0, 0, 1], [1, 2, 2]]
    # S_ii ~ chi2_q: fourth central moment 12 q^2 + 48 q; S_ij is a sum of q
    # products of independent normals: fourth moment 3 q^2 + 6 q
    for x, mean, var, mu4 in ((diag, q, 2.0 * q, 12.0 * q * q + 48.0 * q),
                              (off, 0.0, q, 3.0 * q * q + 6.0 * q)):
        assert np.abs(x.mean(axis=0) - mean).max() <= 4.0 * math.sqrt(var / reps)
        assert np.abs(x.var(axis=0) - var).max() <= 4.0 * math.sqrt((mu4 - var ** 2) / reps)


def test_null_law_matches_beta_product():
    """(2/n) log L_n under the null vs the independent beta-product law."""
    n, p, m, r = 30, 5, 3, 4
    dims = Dims(n, p, m, r)
    reps = 2000
    lrt_side = np.empty(reps)
    for k in range(reps):
        ss = canonical_form_sample(stream(403, k), None, dims)
        lrt_side[k] = -neg2_log_lrt(ss) / n
    rng = stream(404)
    beta_side = np.zeros(reps)
    for i in range(1, m + 1):
        beta_side += np.log(sample_beta(rng, (n - p - i + 1) / 2.0, r / 2.0, size=reps))
    stat = ks_2samp(lrt_side, beta_side)
    assert stat.pvalue > 0.01, f"KS rejected: D={stat.statistic:.4f}, p={stat.pvalue:.4g}"
