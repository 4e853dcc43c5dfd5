"""Screening half of the split pipeline: scores, basis changes, response PCA."""

import math

import numpy as np
import pytest

from mvlrt.errors import DomainError
from mvlrt.model import RANK_TOL
from mvlrt.rng import stream
from mvlrt.screening import (
    PA_COPIES,
    PA_QUANTILE,
    PcaReduction,
    _centered_cov,
    _pa_rank,
    conditional_transform,
    parallel_analysis,
    pca_reduce,
    screen,
)


# === canonical correlation scores ===


def _lstsq_corr(x, Y):
    """Oracle: sqrt(R^2) of the centered x regressed on the centered Y by lstsq."""
    xc = x - x.mean()
    Yc = Y - Y.mean(axis=0)
    if not np.any(xc):
        return 0.0
    resid = xc - Yc @ np.linalg.lstsq(Yc, xc, rcond=None)[0]
    return math.sqrt(max(0.0, 1.0 - (resid @ resid) / (xc @ xc)))


def _scores(X, Y):
    return np.array(screen(X, Y, delta=1.0).scores)


def test_score_hand_example():
    # centered x = (1,-1,1,-1), centered y spans one direction; score = 1/sqrt(5)
    x = np.array([1.0, -1.0, 1.0, -1.0])
    Y = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert _lstsq_corr(x, Y) == pytest.approx(0.4472135954999579, rel=1e-12)
    assert _scores(x[:, None], Y)[0] == pytest.approx(0.4472135954999579, rel=1e-12)


def test_score_extremes():
    rng = stream(600)
    Y = rng.standard_normal((12, 3))
    inside = Y @ np.array([1.0, -2.0, 0.5]) + 4.0
    # orthogonalize a vector against the centered response space and the mean
    v = rng.standard_normal(12)
    Yc = Y - Y.mean(axis=0)
    q, _ = np.linalg.qr(np.column_stack([np.ones(12), Yc]))
    resid = v - q @ (q.T @ v)
    res = screen(np.column_stack([inside, resid, np.full(12, 7.0)]), Y, delta=1.0)
    assert res.scores[0] == pytest.approx(1.0, abs=1e-10)
    assert res.scores[1] == pytest.approx(0.0, abs=1e-10)
    assert res.scores[2] == 0.0  # constant column, not an error
    assert res.degenerate == (False, False, True)


def test_score_invariances():
    rng = stream(601)
    Y = rng.standard_normal((15, 4))
    X = rng.standard_normal((15, 6))
    base = _scores(X, Y)
    assert base == pytest.approx([_lstsq_corr(x, Y) for x in X.T], rel=1e-10)
    assert _scores(3.0 * X - 2.0, Y) == pytest.approx(base, rel=1e-10)
    A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    shifted = Y @ A + rng.standard_normal(4)
    assert _scores(X, shifted) == pytest.approx(base, rel=1e-10)


def test_score_validation():
    Y = np.ones((4, 2)) * np.arange(4)[:, None]
    with pytest.raises(DomainError):
        screen(np.ones((2, 1)), Y, delta=1.0)  # length mismatch
    with pytest.raises(DomainError):
        screen(np.array([[1.0], [math.nan], [0.0], [2.0]]), Y, delta=1.0)
    with pytest.raises(DomainError):
        screen(np.ones((1, 1)), np.ones((1, 2)), delta=1.0)
    with pytest.raises(DomainError):
        screen(np.arange(4.0)[:, None], np.ones((4, 2)), delta=1.0)  # Y centered rank 0


# === column screening ===


def _signal_design(rng, n=30, p=10):
    Y = rng.standard_normal((n, 2))
    X = rng.standard_normal((n, p))
    X[:, 0] = Y[:, 0] + 0.1 * rng.standard_normal(n)
    return X, Y


def test_screen_budget_and_order():
    rng = stream(602)
    X, Y = _signal_design(rng)
    res = screen(X, Y, delta=0.3)
    assert len(res.selected) == 3  # floor(0.3 * 10)
    assert res.selected[0] == 0  # the planted column wins
    got_scores = [res.scores[j] for j in res.selected]
    assert got_scores == sorted(got_scores, reverse=True)
    assert len(screen(X, Y, delta=1.0).selected) == 10
    assert len(screen(X, Y, delta=0.25).selected) == 2  # floor(2.5)
    assert len(screen(X, Y, delta=0.1).selected) == 1


def test_screen_finds_signal_column_across_seeds():
    hits = 0
    for k in range(100):
        X, Y = _signal_design(stream(603, k))
        if 0 in screen(X, Y, delta=0.2).selected:
            hits += 1
    assert hits == 100


def test_screen_tie_breaks_to_smaller_index():
    rng = stream(604)
    Y = rng.standard_normal((20, 2))
    x = rng.standard_normal(20)
    X = np.column_stack([rng.standard_normal(20), x, x])  # 1 and 2 tie exactly
    res = screen(X, Y, delta=0.34)  # budget 1
    assert res.scores[1] == res.scores[2]
    first_tied = [j for j in res.selected if j in (1, 2)]
    if first_tied:
        assert first_tied[0] == 1


def test_screen_degenerate_columns_rank_last():
    rng = stream(605)
    Y = rng.standard_normal((25, 2))
    X = np.column_stack([
        Y[:, 0] + 0.05 * rng.standard_normal(25),
        np.full(25, 3.0),  # constant: degenerate
        rng.standard_normal(25),
    ])
    res = screen(X, Y, delta=0.67)  # budget 2 of 3
    assert res.degenerate == (False, True, False)
    assert set(res.selected) == {0, 2}
    assert res.scores[1] == 0.0
    full = screen(X, Y, delta=1.0)
    assert full.selected[-1] == 1  # included only when everything is


def test_screen_protect_prefix():
    rng = stream(606)
    Y = rng.standard_normal((30, 2))
    X = rng.standard_normal((30, 8))
    X[:, 5] = Y[:, 1] + 0.05 * rng.standard_normal(30)  # best unprotected column
    res = screen(X, Y, delta=0.25, protect=2)  # budget 2, both taken by the prefix
    assert res.selected == (0, 1)
    res = screen(X, Y, delta=0.375, protect=2)  # budget 3: prefix plus one ranked
    assert res.selected[:2] == (0, 1)
    assert res.selected[2] == 5


def test_screen_validation():
    rng = stream(607)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 2))
    with pytest.raises(DomainError):
        screen(X, Y[:8], delta=0.5)
    with pytest.raises(DomainError):
        screen(X, Y, delta=0.0)
    with pytest.raises(DomainError):
        screen(X, Y, delta=1.5)
    with pytest.raises(DomainError):
        screen(X, Y, delta=0.2)  # floor(0.8) = 0 selected
    with pytest.raises(DomainError):
        screen(X, Y, delta=0.5, protect=5)


# === hypothesis-aligned basis change ===


def test_transform_aligns_hypothesis_rows():
    rng = stream(610)
    X = rng.standard_normal((15, 6))
    C = rng.standard_normal((2, 6))
    Xt, d = conditional_transform(X, C)
    assert np.allclose(d.T @ d, np.eye(6), atol=1e-12)
    assert np.allclose(Xt, X @ d)
    rotated = C @ d
    assert np.abs(rotated[:, 2:]).max() < 1e-10  # row space sits on the first r columns
    assert np.linalg.matrix_rank(rotated[:, :2]) == 2


def test_transform_full_rank_square_hypothesis():
    rng = stream(611)
    X = rng.standard_normal((12, 3))
    C = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    Xt, d = conditional_transform(X, C)
    assert d.shape == (3, 3)
    assert Xt.shape == (12, 3)
    with pytest.raises(DomainError):
        conditional_transform(X, np.eye(4)[:2])  # p mismatch


# === response PCA sizing ===


def _factor_responses(rng, n, m, loadings, scale=1.0):
    k = loadings.shape[0]
    return rng.standard_normal((n, k)) @ (scale * loadings) + rng.standard_normal((n, m))


def _flat_loadings():
    """Three orthonormal sign patterns over 12 columns.

    Every column carries the same total loading, so permuting rows preserves
    not just the marginals but their common variance; a factor concentrated on
    one column would instead inflate that column's permuted eigenvalue and
    hide from the comparison.
    """
    r1 = np.ones(12)
    r2 = np.repeat([1.0, -1.0], 6)
    r3 = np.tile(np.repeat([1.0, -1.0], 3), 2)
    return np.vstack([r1, r2, r3]) / math.sqrt(12.0)


def test_parallel_analysis_noise_floor():
    ones = 0
    for k in range(20):
        rng = stream(612, k)
        m0 = parallel_analysis(rng, rng.standard_normal((40, 10)))
        assert m0 <= 3
        ones += m0 == 1
    assert ones >= 16  # the floor should absorb almost every noise draw


def test_parallel_analysis_recovers_three_factors():
    load = _flat_loadings()
    hits = 0
    for k in range(100):
        Y = _factor_responses(stream(613, k), 60, 12, load, scale=4.0)
        if parallel_analysis(stream(614, k), Y) == 3:
            hits += 1
    assert hits >= 90


def test_parallel_analysis_cap_and_reproducibility():
    Y = _factor_responses(stream(615), 60, 12, _flat_loadings(), scale=5.0)
    uncapped = parallel_analysis(stream(616), Y)
    assert uncapped == 3
    assert parallel_analysis(stream(616), Y, cap=2) == 2
    assert parallel_analysis(stream(616), Y) == uncapped


def test_parallel_analysis_validation():
    rng = stream(617)
    Y = rng.standard_normal((30, 5))
    with pytest.raises(DomainError):
        parallel_analysis(rng, Y[:2])
    with pytest.raises(DomainError):
        parallel_analysis(rng, Y, cap=0)


def _pa_oracle(rng, YS, cap=None):
    """Reference for _pa_rank: one rng.permuted call, centering and product per copy."""
    n_s, m = YS.shape
    Yc = YS - YS.mean(axis=0)
    eigs = np.linalg.eigvalsh(Yc.T @ Yc / (n_s - 1))[::-1]
    null_cov = np.empty((PA_COPIES, m, m))
    for b in range(PA_COPIES):
        Zc = rng.permuted(YS, axis=0)
        Zc = Zc - Zc.mean(axis=0)
        null_cov[b] = Zc.T @ Zc / (n_s - 1)
    null_eigs = np.linalg.eigvalsh(null_cov)[:, ::-1]
    rank_idx = min(PA_COPIES, max(1, math.ceil(PA_QUANTILE * PA_COPIES))) - 1
    thresholds = np.sort(null_eigs, axis=0)[rank_idx]
    floor_val = RANK_TOL * max(float(eigs[0]), 0.0)
    m0 = 0
    for lam, th in zip(eigs, thresholds):
        if lam <= th or lam <= floor_val:
            break
        m0 += 1
    m0 = max(m0, 1)
    return m0 if cap is None else min(m0, int(cap))


def test_batched_parallel_analysis_matches_per_copy_oracle(monkeypatch):
    """One permuted draw of every copy gives the per-copy loop's rank, the same
    eigenvalue inputs bit for bit, and leaves the generator where 19 calls would."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        seen.append(np.array(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    kinds = {"wide": 0, "constant": 0, "cap_binds": 0}
    for k in range(1000):
        g = stream(630, k)
        n_s = int(g.integers(3, 31))
        m = int(g.integers(1, 25))
        n_factors = int(g.integers(0, 5))
        Y = g.standard_normal((n_s, m))
        if n_factors:
            Y += g.standard_normal((n_s, n_factors)) @ (4.0 * g.standard_normal((n_factors, m)))
        if k % 4 == 0:
            Y[:, int(g.integers(m))] = 1.5  # a constant column
        Y *= 10.0 ** g.uniform(-3, 3)
        cap = None if k % 3 == 0 else int(g.integers(1, 3))
        want_rng, got_rng = stream(631, k), stream(631, k)
        seen.clear()
        want = _pa_oracle(want_rng, Y, cap)
        oracle_inputs = list(seen)
        seen.clear()
        cov = _centered_cov(Y) if k % 2 else None
        got = _pa_rank(got_rng, Y, cap, cov)
        assert got == want, f"input {k}: n_S={n_s} m={m} cap={cap}"
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seen, oracle_inputs, strict=True))
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        kinds["wide"] += m >= n_s
        kinds["constant"] += k % 4 == 0
        kinds["cap_binds"] += cap is not None and _pa_oracle(stream(631, k), Y) > cap
    assert min(kinds.values()) >= 50, kinds


def test_public_steps_refuse_non_finite_input():
    rng = stream(632)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 3))
    for bad in (np.nan, np.inf, -np.inf):
        Yb = Y.copy()
        Yb[3, 1] = bad
        Xb = X.copy()
        Xb[2, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            parallel_analysis(stream(633), Yb)
        with pytest.raises(DomainError, match="non-finite"):
            pca_reduce(Yb, 2)
        with pytest.raises(DomainError, match="non-finite"):
            screen(X, Yb, delta=0.5)
        with pytest.raises(DomainError, match="non-finite"):
            screen(Xb, Y, delta=0.5)


def test_pca_reduce_geometry():
    rng = stream(618)
    w = rng.standard_normal(8)
    w /= np.linalg.norm(w)
    Y = np.outer(rng.standard_normal(40) * 6.0, w) + 0.1 * rng.standard_normal((40, 8))
    red = pca_reduce(Y, 2)
    assert red.m0 == 2
    assert np.allclose(red.w_hat.T @ red.w_hat, np.eye(2), atol=1e-10)
    assert abs(float(red.w_hat[:, 0] @ w)) >= 0.999
    spectrum = np.array(red.eigen_spectrum)
    assert spectrum.shape == (8,)
    assert np.all(np.diff(spectrum) <= 1e-12)
    assert red.transform(Y).shape == (40, 2)
    # sign convention: the dominant entry of each loading is positive
    for j in range(2):
        assert red.w_hat[np.argmax(np.abs(red.w_hat[:, j])), j] > 0.0


def test_pca_reduce_deterministic():
    rng = stream(619)
    Y = rng.standard_normal((20, 6))
    a, b = pca_reduce(Y, 3), pca_reduce(Y, 3)
    assert np.array_equal(a.w_hat, b.w_hat)
    assert a.eigen_spectrum == b.eigen_spectrum


def test_pca_reduce_validation():
    rng = stream(620)
    Y = rng.standard_normal((10, 4))
    with pytest.raises(DomainError):
        pca_reduce(Y, 0)
    with pytest.raises(DomainError):
        pca_reduce(Y, 5)  # > m
    with pytest.raises(DomainError):
        pca_reduce(rng.standard_normal((3, 8)), 3)  # > n_S - 1
    with pytest.raises(DomainError):
        PcaReduction(np.ones((4, 2)), (1.0, 0.5))  # not orthonormal


def test_transform_respects_mismatched_y():
    rng = stream(621)
    red = pca_reduce(rng.standard_normal((12, 5)), 2)
    with pytest.raises(DomainError):
        red.transform(rng.standard_normal((12, 4)))
