"""Screening half of the split pipeline: scores, basis changes, response PCA."""

import math
import re

import numpy as np
import pytest

from mvlrt.errors import DomainError
from mvlrt.model import RANK_TOL, HypothesisMatrix
from mvlrt.rng import stream
from mvlrt.screening import (
    PA_COPIES,
    ScreenResult,
    _centered_cov,
    _counter,
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
    X_in, Y_in = X.copy(), Y.copy()
    res = screen(X, Y, delta=0.3)
    assert np.array_equal(X, X_in) and np.array_equal(Y, Y_in)  # the inputs stay as they were
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
    for delta in (1.5, None, "0.5", True):
        with pytest.raises(DomainError, match="delta must lie in"):
            screen(X, Y, delta=delta)
    with pytest.raises(DomainError):
        screen(X, Y, delta=0.2)  # floor(0.8) = 0 selected
    with pytest.raises(DomainError):
        screen(X, Y, delta=0.5, protect=5)
    for protect in (1.5, 1.0, None):
        with pytest.raises(DomainError, match="protect must be an integer"):
            screen(X, Y, delta=0.5, protect=protect)
    assert screen(X, Y, delta=0.5, protect=np.int64(1)).selected[0] == 0
    ScreenResult((1, 0), (0.5, 1.0), (False, False))
    index = "selected index must be an integer in [0, 1], got "
    for selected, scores, message in (((2,), (0.5, 0.5), index + "2"),
                                      ((1.0,), (0.5, 0.5), index + "1.0"),
                                      ((True,), (0.5, 0.5), index + "True"),
                                      ((0,), (0.5, 1.5), "score must lie in [0, 1], got 1.5")):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ScreenResult(selected, scores, (False, False))


def _pivoted_ranked(X, Y, k, protect):
    """Reference for _ranked on one split: scores on a pivoted-QR basis of the
    centered responses, the former per-split route, and the same ranking."""
    import scipy.linalg

    Yc = Y - Y.mean(axis=0)
    q, rr, _ = scipy.linalg.qr(Yc, mode="economic", pivoting=True, check_finite=False)
    diag = np.abs(np.diag(rr))
    basis = q[:, :int(np.count_nonzero(diag > RANK_TOL * diag[0]))]
    Xc = X - X.mean(axis=0)
    spread = np.linalg.norm(Xc, axis=0)
    assert np.all(spread > RANK_TOL * np.maximum(1.0, np.linalg.norm(X, axis=0)))
    scores = np.minimum(np.linalg.norm(basis.T @ Xc, axis=0) / spread, 1.0)
    order = np.lexsort((np.arange(X.shape[1]), np.zeros(X.shape[1], dtype=bool), -scores))
    ranked = order[order >= protect]
    return np.concatenate([np.arange(protect), ranked[:k - protect]]), scores


def test_stacked_screening_matches_the_pivoted_route_at_the_split_shape(monkeypatch, capfd):
    """1,024 splits at n_S = 30, p = 150 in stacks of 32, with response widths 1 to 5
    (PCA-reduced) and 20 (raw) mixed in each stack, select what the per-split
    pivoted route selects. Sets with a constant column or with m >= n_S - 1 take the
    pivoted route, with its bits. For the others, the smallest relative score gap
    at the selection boundary and the largest relative score difference are printed."""
    import mvlrt.screening as scr

    pivoted, basis = [], scr._response_basis
    monkeypatch.setattr(scr, "_response_basis", lambda Y: pivoted.append(Y) or basis(Y))
    n, p, m, n_s, k, protect, stack = 100, 150, 20, 30, 30, 2, 32
    gaps, diffs, special = [], [], 0
    for first in range(0, 1024, stack):
        Xs, Ys, wants = [], [], []
        for j in range(first, first + stack):
            g = stream(650, j)
            X = g.standard_normal((n, p))
            B = np.zeros((p, m))
            B[g.choice(np.arange(4, p), size=5, replace=False)] = 0.5 * g.standard_normal((5, m))
            Y = X @ B + g.standard_normal((n, m))
            rows = np.sort(g.permutation(n)[:n_s])
            X, Y = X[rows], Y[rows]
            kind = j % 8
            if kind < 5:  # a PCA-reduced response set of width 1 to 5
                Y = Y @ pca_reduce(Y, kind + 1)[0]
            elif kind == 6:  # a constant column: rank 19 of 20
                Y[:, int(g.integers(m))] = 2.5
            elif kind == 7:  # m >= n_S - 1: 29 or 40 columns
                Y = np.hstack([Y, g.standard_normal((n_s, 9 if j % 16 == 7 else 20))])
            Xs.append(X)
            Ys.append(Y)
            wants.append(_pivoted_ranked(X, Y, k, protect))
        pivoted.clear()
        selected, scores, degenerate = scr._ranked(np.stack(Xs), Ys, k, protect)
        assert not degenerate.any()
        for j, (want_sel, want_scores) in enumerate(wants):
            assert selected[j].tolist() == want_sel.tolist(), f"split {first + j}"
            if (first + j) % 8 >= 6:
                assert scores[j].tolist() == want_scores.tolist(), f"split {first + j}"
            else:
                ranked = np.sort(want_scores[protect:])[::-1]
                gaps.append((ranked[k - protect - 1] - ranked[k - protect]) / ranked[0])
                diffs.append(np.max(np.abs(scores[j] - want_scores) / want_scores))
        special += sum(j % 8 >= 6 for j in range(first, first + stack))
        assert len(pivoted) == sum(j % 8 >= 6 for j in range(first, first + stack))
    assert special == 256
    with capfd.disabled():
        print(f"stacked screening at (30, 150): 1024 selections, smallest relative boundary "
              f"gap {min(gaps):.2e}, largest relative score difference {max(diffs):.1e}",
              flush=True)


# === hypothesis-aligned basis change ===


def test_transform_aligns_hypothesis_rows():
    rng = stream(610)
    X = rng.standard_normal((15, 6))
    C = rng.standard_normal((2, 6))
    Xt, d = conditional_transform(X, C), HypothesisMatrix(C).rotation
    assert np.allclose(d.T @ d, np.eye(6), atol=1e-12)
    assert np.allclose(Xt, X @ d)
    rotated = C @ d
    assert np.abs(rotated[:, 2:]).max() < 1e-10  # row space sits on the first r columns
    assert np.linalg.matrix_rank(rotated[:, :2]) == 2


def test_transform_full_rank_square_hypothesis():
    rng = stream(611)
    X = rng.standard_normal((12, 3))
    C = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    Xt, d = conditional_transform(X, C), HypothesisMatrix(C).rotation
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
    for cap in (2.5, 2.0, True):
        with pytest.raises(DomainError, match="cap must be an integer"):
            parallel_analysis(rng, Y, cap=cap)
    assert parallel_analysis(stream(618), Y, cap=np.int64(1)) == 1


def _pa_oracle(rng, YS, cap=None, gaps=None):
    """Reference for _pa_rank: one rng.permuted call, centering and product per copy,
    and every eigenvalue of every copy. Appends to ``gaps`` each decision's distance
    |eigenvalue - threshold| over the largest eigenvalue."""
    n_s, m = YS.shape
    Yc = YS - YS.mean(axis=0)
    eigs = np.linalg.eigvalsh(Yc.T @ Yc / (n_s - 1))[::-1]
    null_cov = np.empty((PA_COPIES, m, m))
    for b in range(PA_COPIES):
        Zc = rng.permuted(YS, axis=0)
        Zc = Zc - Zc.mean(axis=0)
        null_cov[b] = Zc.T @ Zc / (n_s - 1)
    null_eigs = np.linalg.eigvalsh(null_cov)[:, ::-1]
    # the 95% order-statistic quantile by sort and index
    rank_idx = min(PA_COPIES, max(1, math.ceil(0.95 * PA_COPIES))) - 1
    thresholds = np.sort(null_eigs, axis=0)[rank_idx]
    floor_val = RANK_TOL * max(float(eigs[0]), 0.0)
    m0 = 0
    for lam, th in zip(eigs, thresholds):
        if lam <= floor_val:
            break
        if gaps is not None:
            gaps.append(abs(lam - th) / eigs[0])
        if lam <= th:
            break
        m0 += 1
    m0 = max(m0, 1)
    return m0 if cap is None else min(m0, int(cap))


def _record_eigen_calls(monkeypatch):
    """The list that every numpy and scipy eigen routine appends (name, input bytes) to."""
    import scipy.linalg
    import scipy.linalg.lapack

    seen = []

    def recorder(name, fn):
        def call(a, *args, **kwargs):
            seen.append((name, np.asarray(a).tobytes()))
            return fn(a, *args, **kwargs)
        return call

    lapack = [name for name in dir(scipy.linalg.lapack)
              if re.match(r"[sdcz](sy|he|st|ge)ev|[sd]ste(bz|in|rf|qr)", name)]
    for module, names in ((np.linalg, ("eig", "eigh", "eigvals", "eigvalsh")),
                          (scipy.linalg, ("eig", "eigh", "eigvals", "eigvalsh", "eig_banded",
                                          "eigvals_banded", "eigh_tridiagonal",
                                          "eigvalsh_tridiagonal")),
                          (scipy.linalg.lapack, lapack)):
        for name in names:
            monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    return seen


def test_batched_parallel_analysis_matches_per_copy_oracle(monkeypatch):
    """One permuted draw of every copy gives the per-copy loop's rank and leaves the
    generator where 19 calls would; a stack of inputs of one shape gives each its own
    rank. The one eigen call of a stack is on its data covariances: no copy reaches
    an eigen routine."""
    seen = _record_eigen_calls(monkeypatch)
    kinds = {"wide": 0, "constant": 0, "cap_binds": 0}
    by_shape = {}
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
        want = _pa_oracle(want_rng, Y, cap)
        cov = _centered_cov(Y)[None]
        seen.clear()
        got = _pa_rank([got_rng], Y[None], cap, cov)
        assert got.tolist() == [want], f"input {k}: n_S={n_s} m={m} cap={cap}"
        assert seen == [("eigvalsh", cov.tobytes())]
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)
        uncapped = _pa_oracle(stream(631, k), Y)
        state = repr(want_rng.bit_generator.state)
        by_shape.setdefault(Y.shape, []).append((k, Y, uncapped, state))
        kinds["wide"] += m >= n_s
        kinds["constant"] += k % 4 == 0
        kinds["cap_binds"] += cap is not None and uncapped > cap
    assert min(kinds.values()) >= 50, kinds
    stacks = [group for group in by_shape.values() if len(group) > 1]
    for group in stacks:
        ks, Ys, wants, states = zip(*group)
        rngs = [stream(631, k) for k in ks]
        cov = np.stack([_centered_cov(Y) for Y in Ys])
        seen.clear()
        got = _pa_rank(rngs, np.stack(Ys), None, cov)
        assert got.tolist() == list(wants), f"inputs {ks}"
        assert seen == [("eigvalsh", cov.tobytes())]
        assert [repr(rng.bit_generator.state) for rng in rngs] == list(states)
    assert sum(map(len, stacks)) >= 300 and max(map(len, stacks)) >= 3


def test_parallel_analysis_matches_oracle_at_the_split_shape(capfd):
    """1,000 splits at n_S = 30, m = 20 with 0 to 5 factors of mixed strength, in
    stacks of 8: the counted ranks equal the oracle's, and the closest decision,
    the smallest |eigenvalue - threshold| over the largest eigenvalue, is printed."""
    n_s, m, stack = 30, 20, 8
    gaps, ranks = [], []
    for first in range(0, 1000, stack):
        Ys = []
        for k in range(first, first + stack):
            g = stream(640, k)
            n_factors = int(g.integers(0, 6))
            Y = g.standard_normal((n_s, m))
            Y += g.standard_normal((n_s, n_factors)) @ (
                g.uniform(0.3, 2.0) * g.standard_normal((n_factors, m)))
            Ys.append(Y)
            ranks.append(_pa_oracle(stream(641, k), Y, gaps=gaps))
        got = _pa_rank([stream(641, k) for k in range(first, first + stack)], np.stack(Ys),
                       None, np.stack([_centered_cov(Y) for Y in Ys]))
        assert got.tolist() == ranks[first:], f"inputs {first}..{first + stack - 1}"
    assert len(set(ranks)) >= 4, sorted(set(ranks))
    with capfd.disabled():
        print(f"parallel analysis at (30, 20): {len(gaps)} decisions, smallest relative "
              f"gap {min(gaps):.2e}", flush=True)


def test_count_ties_count_as_at_or_above():
    """Shifts exactly at a diagonal matrix's repeated eigenvalues count them."""
    C = np.diag([3.0, 1.0, 1.0, 0.0, 3.0, 1.0])
    t = np.array([3.0, 1.0, 0.0, 2.0, 4.0, -1.0, 0.5, np.nextafter(3.0, 4.0)])
    assert _counter(C)(t).tolist() == [2, 5, 6, 2, 0, 6, 5, 0]


def test_count_on_zero_rows_and_one_column():
    # a constant column's zero row and column: an exact zero eigenvalue
    assert _counter(np.zeros((4, 4)))(np.array([0.0, 1e-300, -1e-300])).tolist() == [4, 0, 4]
    g = stream(642)
    Y = g.standard_normal((12, 5))
    Y[:, 2] = 7.0
    C = _centered_cov(Y)
    assert not C[2].any()
    lam = np.linalg.eigvalsh(C)
    mid = np.concatenate([[lam[0] - 1.0], 0.5 * (lam[:-1] + lam[1:]), [lam[-1] + 1.0]])
    assert _counter(C)(mid).tolist() == [5, 4, 3, 2, 1, 0]
    # m = 1, alone and in a stack
    assert _counter(np.array([[2.5]]))(np.array([2.5, 2.0, 3.0])).tolist() == [1, 1, 0]
    stack = np.array([[[[1.0]], [[2.0]]]])
    assert _counter(stack)(np.array([[[1.5, 1.0]]])).tolist() == [[[0, 1], [1, 1]]]


def test_count_matches_eigvalsh_on_gram_matrices():
    """Random Gram matrices, alone and as a (B, copies) stack with per-row shifts,
    against the eigenvalues counted directly, at shifts away from any eigenvalue."""
    g = stream(643)
    for m in (2, 3, 7, 20, 31):
        for n in (m // 2 + 1, m, 3 * m):
            A = g.standard_normal((4, 3, n, m)) * 10.0 ** g.uniform(-4, 4)
            C = A.swapaxes(-1, -2) @ A
            lam = np.linalg.eigvalsh(C)
            top = lam.max(axis=(1, 2), keepdims=True)[..., 0]
            t = g.uniform(-0.05, 1.05, (4, 1, 9)) * top[..., None]
            want = (lam[..., None, :] >= t[..., None]).sum(axis=-1)
            gap = np.abs(lam[..., None, :] - t[..., None]).min(axis=-1) / top[..., None]
            assert gap.min() > 1e-9
            assert np.array_equal(_counter(C.copy())(t), want), (m, n)
            assert np.array_equal(_counter(C[2, 1])(t[2, 0]), want[2, 1]), (m, n)


def test_parallel_analysis_ignores_the_scale_of_the_data():
    """Scaling the responses by 2^300 or 2^-300, a covariance near 1e180 or 1e-180,
    keeps every rank: the copies' squared off-diagonals would overflow or go
    subnormal unless each matrix is scaled first."""
    g = stream(644)
    ranks = set()
    for k in range(12):
        n_factors = k % 4
        Y = g.standard_normal((30, 20))
        Y += g.standard_normal((30, n_factors)) @ (2.0 * g.standard_normal((n_factors, 20)))
        want = parallel_analysis(stream(645, k), Y)
        ranks.add(want)
        for scale in (2.0 ** 300, 2.0 ** -300):
            assert parallel_analysis(stream(645, k), Y * scale) == want, (k, scale)
    assert ranks == {1, 2}, ranks
    C = _centered_cov(stream(646).standard_normal((12, 5)))
    lam = np.linalg.eigvalsh(C)
    mid = np.concatenate([[lam[0] - 1.0], 0.5 * (lam[:-1] + lam[1:]), [lam[-1] + 1.0]])
    for e in (-1000, -500, 0, 500, 1000):
        assert _counter(np.ldexp(C, e))(np.ldexp(mid, e)).tolist() == [5, 4, 3, 2, 1, 0], e


def test_public_steps_refuse_non_finite_input():
    rng = stream(632)
    X = rng.standard_normal((10, 4))
    Y = rng.standard_normal((10, 3))
    for bad in (np.nan, np.inf, -np.inf):
        Yb = Y.copy()
        Yb[3, 1] = bad
        Xb = X.copy()
        Xb[2, 0] = bad
        y_bad, x_bad = (f"^{name} must lie in \\(-inf, inf\\), got {bad!r}$"
                        for name in ("YS", "XS"))
        with pytest.raises(DomainError, match=y_bad):
            parallel_analysis(stream(633), Yb)
        with pytest.raises(DomainError, match=y_bad):
            pca_reduce(Yb, 2)
        with pytest.raises(DomainError, match=y_bad):
            screen(X, Yb, delta=0.5)
        with pytest.raises(DomainError, match=x_bad):
            screen(Xb, Y, delta=0.5)


def test_pca_reduce_geometry():
    rng = stream(618)
    w = rng.standard_normal(8)
    w /= np.linalg.norm(w)
    Y = np.outer(rng.standard_normal(40) * 6.0, w) + 0.1 * rng.standard_normal((40, 8))
    w_hat, spectrum = pca_reduce(Y, 2)
    assert w_hat.shape == (8, 2)
    assert np.allclose(w_hat.T @ w_hat, np.eye(2), atol=1e-10)
    assert abs(float(w_hat[:, 0] @ w)) >= 0.999
    assert spectrum.shape == (8,)
    assert np.all(np.diff(spectrum) <= 1e-12)
    assert spectrum.min() >= 0.0
    # sign convention: the dominant entry of each loading is positive
    for j in range(2):
        assert w_hat[np.argmax(np.abs(w_hat[:, j])), j] > 0.0


def test_pca_reduce_deterministic():
    rng = stream(619)
    Y = rng.standard_normal((20, 6))
    (wa, sa), (wb, sb) = pca_reduce(Y, 3), pca_reduce(Y, 3)
    assert np.array_equal(wa, wb)
    assert np.array_equal(sa, sb)


def test_pca_reduce_validation():
    rng = stream(620)
    Y = rng.standard_normal((10, 4))
    with pytest.raises(DomainError):
        pca_reduce(Y, 0)
    with pytest.raises(DomainError):
        pca_reduce(Y, 5)  # > m
    with pytest.raises(DomainError):
        pca_reduce(rng.standard_normal((3, 8)), 3)  # > n_S - 1
    for m0 in (2.0, 1.5, True):
        with pytest.raises(DomainError, match="m0 must be an integer"):
            pca_reduce(Y, m0)
    assert pca_reduce(Y, np.int64(2))[0].shape == (4, 2)
