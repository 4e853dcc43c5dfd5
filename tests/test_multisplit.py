"""Repeated-split procedure: splitting, per-split pipeline, aggregation."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from mvlrt.cli import main
from mvlrt.dataio import save_matrix
from mvlrt.distributions import wilks_lrt_tail
from mvlrt.errors import DomainError, SplitInfeasibleError
from mvlrt.model import (
    DataSet,
    Dims,
    HypothesisMatrix,
    canonical_form_sample,
    hypothesis_ss,
    neg2_log_lrt,
)
from mvlrt.multisplit import (
    MultiSplitConfig,
    adaptive_pt,
    multisplit_test,
    no_split_pvalue,
    per_split_pvalue,
    split_indices,
)
from mvlrt.rng import derive_seed, stream
from mvlrt.screening import parallel_analysis, pca_reduce, screen


def _wide_null_data(seed, n=100, p=120, m=20):
    rng = stream(seed)
    return DataSet(rng.standard_normal((n, p)), rng.standard_normal((n, m)))


# === quantile aggregation ===


def q_gamma(pvals, gamma):
    """Oracle for adaptive_pt: the ceil(gamma * J)-th order statistic of p_j / gamma, capped at 1."""
    pv = np.sort(np.asarray(pvals, dtype=float))
    # the tiny slack keeps ceil() exact when gamma * J is an integer in real arithmetic
    k = min(pv.size, max(1, math.ceil(gamma * pv.size - 1e-9)))
    return float(min(1.0, pv[k - 1] / gamma))


def test_q_gamma_examples():
    assert q_gamma([1.0, 1.0, 1.0], 0.3) == 1.0
    assert q_gamma([0.01, 0.02, 0.03, 0.04], 0.5) == pytest.approx(0.04)
    assert q_gamma([0.02], 0.4) == pytest.approx(0.05)
    # gamma * J exactly integral: the 3rd order statistic, not the 4th
    pv = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert q_gamma(pv, 0.3) == pytest.approx(1.0)  # 0.3 / 0.3, capped at exactly 1
    assert q_gamma(pv, 0.5) == pytest.approx(1.0)
    assert q_gamma([0.001] * 10, 0.25) == pytest.approx(0.004)


def test_adaptive_pt_single_split():
    # one split: inf Q = p itself; correction (1 - log gamma_min)
    assert adaptive_pt([0.02], 0.05) == pytest.approx(0.07991464547107982, rel=1e-12)
    assert adaptive_pt([1.0], 0.5) == 1.0


def test_adaptive_pt_bounds_and_permutation():
    rng = stream(700)
    for _ in range(20):
        j = int(rng.integers(1, 40))
        pv = rng.uniform(0.0, 1.0, size=j)
        gm = float(rng.uniform(0.01, 0.8))
        pt = adaptive_pt(pv, gm)
        assert 0.0 <= pt <= 1.0
        # optimizing over gamma can only help relative to any fixed gamma
        assert pt <= (1.0 - math.log(gm)) * q_gamma(pv, min(0.999999, gm + 1e-9)) + 1e-12
        shuffled = rng.permutation(pv)
        assert adaptive_pt(shuffled, gm) == pt


def test_adaptive_pt_matches_brute_force_grid():
    rng = stream(701)
    for case in range(100):
        j = int(rng.integers(1, 40))
        pv = np.round(rng.uniform(0.0, 1.0, size=j), 2)  # rounding forces ties
        gm = float(rng.uniform(0.01, 0.8))
        # Q is piecewise p_(k)/gamma, decreasing on each interval ((k-1)/J, k/J],
        # so its infimum over (gm, 1) is found on {k/J > gm} plus a point near 1
        grid = [k / j for k in range(1, j) if k / j > gm] + [1.0 - 1e-12]
        brute = min(1.0, (1.0 - math.log(gm)) * min(q_gamma(pv, g) for g in grid))
        assert adaptive_pt(pv, gm) == pytest.approx(brute, abs=1e-12)


def test_adaptive_pt_validation():
    with pytest.raises(DomainError):
        adaptive_pt([], 0.1)
    with pytest.raises(DomainError):
        adaptive_pt([0.5], 0.0)
    with pytest.raises(DomainError):
        adaptive_pt([-0.1], 0.5)
    with pytest.raises(DomainError):
        adaptive_pt([0.5], None)


# === splitting ===


def test_split_indices_shapes():
    s, t = split_indices(stream(702), 10, 0.3)
    assert len(s) == 3 and len(t) == 7
    assert np.array_equal(np.sort(np.concatenate([s, t])), np.arange(10))
    assert np.all(np.diff(s) > 0) and np.all(np.diff(t) > 0)
    a = split_indices(stream(703), 50, 0.3)
    b = split_indices(stream(703), 50, 0.3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_split_indices_membership_frequency():
    hits = sum(0 in split_indices(stream(704, k), 20, 0.3)[0] for k in range(10_000))
    assert abs(hits / 10_000 - 0.3) <= 0.015


def test_split_indices_validation():
    with pytest.raises(DomainError):
        split_indices(stream(0), 3, 0.5)
    with pytest.raises(DomainError):
        split_indices(stream(0), 10, 0.0)
    with pytest.raises(DomainError):
        split_indices(stream(0), 10, 1.0)
    for n, ratio in ((10.5, 0.3), (10.0, 0.3), (10, None), (10, "0.3")):
        with pytest.raises(DomainError):
            split_indices(stream(0), n, ratio)
    assert len(split_indices(stream(0), np.int64(10), 0.3)[0]) == 3


# === configuration ===


def test_config_gamma_min_default():
    assert MultiSplitConfig(j_splits=200).resolved_gamma_min == pytest.approx(0.0025)
    assert MultiSplitConfig(j_splits=1).resolved_gamma_min == 0.5
    # the floor keeps the correction factor bounded for huge J
    assert MultiSplitConfig(j_splits=10_000).resolved_gamma_min == 1e-4
    assert MultiSplitConfig(j_splits=200, gamma_min=0.01).resolved_gamma_min == 0.01


def test_config_validation():
    with pytest.raises(DomainError):
        MultiSplitConfig(j_splits=0)
    with pytest.raises(DomainError, match="j_splits must be an integer"):
        MultiSplitConfig(j_splits=2.5)
    with pytest.raises(DomainError):
        MultiSplitConfig(gamma_min=1.0)
    with pytest.raises(DomainError):
        MultiSplitConfig(delta=0.0)
    with pytest.raises(DomainError):
        MultiSplitConfig(split_ratio=1.0)
    with pytest.raises(DomainError):
        MultiSplitConfig(pca_policy="bogus")
    with pytest.raises(DomainError):
        MultiSplitConfig(pca_policy=0)
    with pytest.raises(DomainError):
        MultiSplitConfig(pca_policy=True)
    for bad in (dict(j_splits=True), dict(seed=1.5), dict(seed=None), dict(gamma_min="0.1"),
                dict(split_ratio=None), dict(delta=None), dict(delta="0.2")):
        with pytest.raises(DomainError):
            MultiSplitConfig(**bad)
    MultiSplitConfig(pca_policy=3)
    MultiSplitConfig(pca_policy="parallel_analysis")
    MultiSplitConfig(j_splits=np.int64(3), seed=np.int64(-4), pca_policy=np.int64(2))
    MultiSplitConfig(seed=-4)


# === per-split pipeline ===


def test_per_split_deterministic():
    data = _wide_null_data(705)
    cfg = MultiSplitConfig(j_splits=4, seed=11)
    a = per_split_pvalue(data, np.eye(data.p), cfg, 2)
    b = per_split_pvalue(data, np.eye(data.p), cfg, 2)
    assert a == b
    assert a.split_seed == derive_seed(11, 2)
    c = per_split_pvalue(data, np.eye(data.p), cfg, 3)
    assert c.p_value != a.p_value  # different split, different data halves
    assert len(a.selected) == 24  # floor(0.2 * 120)
    assert a.m0 == data.m  # no PCA requested


def test_per_split_pvalues_uniform_under_null():
    """Each split's p-value is honest: KS against uniform over replicates."""
    cfg = MultiSplitConfig(j_splits=1, seed=3)
    pvals = [
        per_split_pvalue(_wide_null_data(706 + k), np.eye(120), cfg, 0).p_value
        for k in range(200)
    ]
    stat = kstest(pvals, "uniform")
    assert stat.statistic < 0.1, f"KS={stat.statistic:.3f}, p={stat.pvalue:.3g}"


def test_split_pvalue_valid_in_the_far_tail():
    """The aggregation at J = 50 compares the smallest split p-value with a
    cutoff near 2e-4, so the per-split p-value must hold its level that deep.
    Canonical null draws at the split geometry of the wide null design."""
    dims = Dims(70, 24, 20, 24)
    reps, u = 20_000, 1e-3
    hits = sum(wilks_lrt_tail(neg2_log_lrt(canonical_form_sample(stream(716, k), None, dims)),
                              70, 24, 20, 24) <= u
               for k in range(reps))
    bound = u + 4.0 * math.sqrt(u * (1.0 - u) / reps)
    assert hits / reps <= bound, f"P(p <= {u}) = {hits / reps:.2e} > {bound:.2e}"


def test_per_split_pvalue_is_exact_tail_on_testing_part():
    data = _wide_null_data(717)
    cfg = MultiSplitConfig(j_splits=1, seed=8)
    out = per_split_pvalue(data, np.eye(120), cfg, 0)
    _, t_idx = split_indices(stream(8, 0), data.n, cfg.split_ratio)
    cols = list(out.selected)
    ss = hypothesis_ss(DataSet(data.X[t_idx][:, cols], data.Y[t_idx]), np.eye(len(cols)))
    assert ss.dims == Dims(70, 24, 20, 24)
    expected = wilks_lrt_tail(neg2_log_lrt(ss), 70, 24, 20, 24)
    assert out.p_value == pytest.approx(expected, rel=1e-9)


def test_per_split_protects_rotated_hypothesis():
    rng = stream(707)
    data = DataSet(rng.standard_normal((60, 30)), rng.standard_normal((60, 4)))
    C = rng.standard_normal((2, 30))  # general hypothesis: transform + protect
    cfg = MultiSplitConfig(j_splits=1, seed=5)
    out = per_split_pvalue(data, C, cfg, 0)
    # transformed coordinates 0..r-1 carry the hypothesis and must survive
    assert 0 in out.selected and 1 in out.selected
    assert 0.0 <= out.p_value <= 1.0


def test_per_split_empty_restriction_is_conservative():
    rng = stream(708)
    n, p = 40, 10
    Y = rng.standard_normal((n, 2))
    X = rng.standard_normal((n, p))
    X[:, 2] = Y[:, 0] + 0.05 * rng.standard_normal(n)
    X[:, 3] = Y[:, 1] + 0.05 * rng.standard_normal(n)
    # leading-identity hypothesis on two pure-noise columns: the user asserted
    # the coordinates, so they get no protection and screening drops them
    C = np.hstack([np.eye(2), np.zeros((2, p - 2))])
    out = per_split_pvalue(DataSet(X, Y), C, MultiSplitConfig(j_splits=1, seed=9), 0)
    assert out.selected == (2, 3)
    assert out.p_value == 1.0


def test_per_split_pca_policies():
    data = _wide_null_data(709, n=80, p=100, m=16)
    fixed = MultiSplitConfig(j_splits=1, seed=7, pca_policy=3)
    out = per_split_pvalue(data, np.eye(100), fixed, 0)
    assert out.m0 == 3
    auto = MultiSplitConfig(j_splits=1, seed=7, pca_policy="parallel_analysis")
    out = per_split_pvalue(data, np.eye(100), auto, 0)
    assert 1 <= out.m0 <= 16
    plain = MultiSplitConfig(j_splits=1, seed=7)
    assert per_split_pvalue(data, np.eye(100), plain, 0).m0 == 16


def test_per_split_infeasible():
    rng = stream(710)
    data = DataSet(rng.standard_normal((12, 10)), rng.standard_normal((12, 2)))
    cfg = MultiSplitConfig(j_splits=1, seed=1, delta=0.5)
    # n_T = 8 vs p0 + m0 + 1 = 8: no degrees of freedom left
    with pytest.raises(SplitInfeasibleError, match="split 0"):
        per_split_pvalue(data, np.eye(10), cfg, 0)


def test_no_split_mode_runs_and_differs():
    data = _wide_null_data(711)
    cfg = MultiSplitConfig(j_splits=1, seed=2)
    out = no_split_pvalue(data, np.eye(120), cfg)
    assert out.split_seed == derive_seed(2, -1)
    assert out == no_split_pvalue(data, np.eye(120), cfg)
    assert len(out.selected) == 24


def test_negative_split_index_still_splits():
    # a negative j only seeds the split; it never selects the unsafe J = 0 mode
    data = _wide_null_data(711)
    cfg = MultiSplitConfig(j_splits=1, seed=2)
    assert per_split_pvalue(data, np.eye(120), cfg, -1) != no_split_pvalue(data, np.eye(120), cfg)


# === full procedure ===


def test_multisplit_thread_invariance():
    data = _wide_null_data(712)
    cfg = MultiSplitConfig(j_splits=8, seed=13)
    serial = multisplit_test(data, np.eye(120), cfg, threads=1)
    pooled = multisplit_test(data, np.eye(120), cfg, threads=4)
    assert serial.p_t == pooled.p_t
    assert serial.outcomes == pooled.outcomes


def test_multisplit_prepares_general_hypothesis_once(monkeypatch):
    import mvlrt.multisplit

    calls = []
    orig = mvlrt.multisplit.conditional_transform

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(mvlrt.multisplit, "conditional_transform", counting)
    data = _wide_null_data(716)
    C = np.zeros((2, 120))
    C[0, :2] = (1.0, -1.0)
    C[1, 2:4] = 1.0
    cfg = MultiSplitConfig(j_splits=5, seed=8)
    res = multisplit_test(data, C, cfg)
    assert len(calls) == 1
    assert res.outcomes == tuple(per_split_pvalue(data, C, cfg, j) for j in range(5))


def test_prepare_hypothesis_passes_leading_identity_through(monkeypatch):
    import mvlrt.multisplit

    calls = []
    orig = mvlrt.multisplit.conditional_transform

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(mvlrt.multisplit, "conditional_transform", counting)
    data = _wide_null_data(718)
    C = np.hstack([np.eye(2), np.zeros((2, 118))])
    X, r, protect = mvlrt.multisplit._prepare_hypothesis(data, C)
    assert X is data.X
    assert r == 2
    assert protect == 0  # nothing rotated, so no column is held back from screening
    assert calls == [1]  # one call, which lays out [I_r 0] as the design itself


def test_multisplit_takes_one_svd_and_one_qr_per_split(monkeypatch):
    """A general hypothesis is decomposed once. Each split's screening takes one
    QR of its centered responses and its fit one QR of [X_rest X_hyp Y].
    Factorized matrices are counted by shape, not calls: a stack of splits
    factors its matrices of one shape in one call."""
    counts = {}

    def counting(name):
        orig = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            key = (name, np.shape(a)[-2:])
            counts[key] = counts.get(key, 0) + math.prod(np.shape(a)[:-2])
            return orig(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "qr"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    data = _wide_null_data(719)
    C = stream(720).standard_normal((2, 120))
    multisplit_test(data, C, MultiSplitConfig(j_splits=6, seed=3))
    # n_S = 30, m = 20; the testing half has n_T = 70 rows and p0 = 24 kept columns
    assert counts == {("svd", (2, 120)): 1, ("qr", (30, 20)): 6, ("qr", (70, 44)): 6}


@pytest.mark.parametrize("policy", [None, 2, "parallel_analysis"])
@pytest.mark.parametrize("rotated", [False, True], ids=["leading_identity", "rotated"])
def test_stacked_splits_equal_splits_run_alone(policy, rotated):
    """37 splits, one full stack and one short one, give each split the outcome
    it gets run alone, whatever the response reduction and the form of C."""
    import mvlrt.multisplit

    assert 37 // mvlrt.multisplit._SPLIT_STACK == 1 and 37 % mvlrt.multisplit._SPLIT_STACK
    rng = stream(722)
    X, Y = rng.standard_normal((100, 120)), rng.standard_normal((100, 20))
    # three response factors, so parallel analysis keeps one to three of them
    data = DataSet(X, Y + 0.7 * rng.standard_normal((100, 3)) @ rng.standard_normal((3, 20)))
    C = stream(723).standard_normal((2, 120)) if rotated else np.eye(120)[:2]
    cfg = MultiSplitConfig(j_splits=37, seed=24, pca_policy=policy)
    res = multisplit_test(data, C, cfg)
    assert res.outcomes == tuple(per_split_pvalue(data, C, cfg, j) for j in range(37))
    assert res.p_t == adaptive_pt([o.p_value for o in res.outcomes], cfg.resolved_gamma_min)
    if not rotated:  # split p-values of 1 (q = 0) sit next to tested splits in one stack
        assert 0 < sum(o.p_value == 1.0 for o in res.outcomes) < 37
    if policy == "parallel_analysis":  # and so do fits of several response ranks
        assert len({o.m0 for o in res.outcomes}) > 1


def test_no_split_pvalue_is_the_exact_tail_on_every_row():
    """The J = 0 control screens every row with screen and tests them all, by
    hypothesis_ss on the kept columns, bit for bit."""
    data = _wide_null_data(724)
    cfg = MultiSplitConfig(j_splits=1, seed=2)
    out = no_split_pvalue(data, np.eye(120)[:60], cfg)
    cols = sorted(screen(data.X, data.Y, cfg.delta).selected)
    q = sum(c < 60 for c in cols)
    ss = hypothesis_ss(DataSet(data.X[:, cols], data.Y), np.eye(q, len(cols)))
    assert out.selected == tuple(cols) and 0 < q < len(cols)
    assert out.p_value == wilks_lrt_tail(neg2_log_lrt(ss), data.n, len(cols), data.m, q)


def test_no_split_pvalue_with_parallel_analysis_chains_the_public_steps():
    """The J = 0 control with parallel analysis, whose copies have all n rows,
    equals parallel_analysis, pca_reduce, screen, hypothesis_ss and the Wilks
    tail on every row, bit for bit."""
    rng = stream(726)
    X, Y = rng.standard_normal((100, 120)), rng.standard_normal((100, 20))
    data = DataSet(X, Y + 0.7 * rng.standard_normal((100, 3)) @ rng.standard_normal((3, 20)))
    cfg = MultiSplitConfig(j_splits=1, seed=5, pca_policy="parallel_analysis")
    out = no_split_pvalue(data, np.eye(120)[:60], cfg)
    cap = min(data.n - 24 - 2, data.n - 1, data.m)  # p0 = floor(0.2 * 120) = 24
    m0 = parallel_analysis(stream(cfg.seed, -1), data.Y, cap)
    Y_r = data.Y @ pca_reduce(data.Y, m0)[0]
    cols = sorted(screen(data.X, Y_r, cfg.delta).selected)
    q = sum(c < 60 for c in cols)
    ss = hypothesis_ss(DataSet(data.X[:, cols], Y_r), np.eye(q, len(cols)))
    assert (out.m0, out.selected) == (m0, tuple(cols))
    assert 1 < m0 < data.m and 0 < q < len(cols)
    assert out.p_value == wilks_lrt_tail(neg2_log_lrt(ss), data.n, len(cols), m0, q)


def test_a_failing_single_split_runs_once(monkeypatch):
    """per_split_pvalue and the J = 0 control run one stack of one split, with
    one _ranked call per stack: a split that fails after screening is screened
    once, not rerun."""
    import mvlrt.multisplit as ms

    calls, ranked = [], ms._ranked
    monkeypatch.setattr(ms, "_ranked", lambda *args: calls.append(1) or ranked(*args))
    rng = stream(710)
    data = DataSet(rng.standard_normal((12, 10)), rng.standard_normal((12, 2)))
    with pytest.raises(SplitInfeasibleError, match="split 0"):  # n_T = 8, p0 + m0 + 1 = 8
        per_split_pvalue(data, np.eye(10), MultiSplitConfig(j_splits=1, seed=1, delta=0.5), 0)
    assert len(calls) == 1
    with pytest.raises(SplitInfeasibleError, match="no-split run"):  # n = 12, p + m + 1 = 13
        no_split_pvalue(data, np.eye(10), MultiSplitConfig(j_splits=1, seed=1, delta=1.0))
    assert len(calls) == 2


def test_a_stack_that_fails_reruns_its_splits_in_order(monkeypatch):
    """Split 6 fails at screening and split 2 at its fit, a later stage of the
    stack: the stack meets split 6's error first, and its rerun split by split
    raises split 2's own."""
    import mvlrt.multisplit as ms

    data = _wide_null_data(725)
    cfg = MultiSplitConfig(j_splits=8, seed=6)
    halves = [split_indices(stream(6, j), data.n, cfg.split_ratio) for j in range(8)]
    raised = []
    ranked, extra_ss = ms._ranked, ms._extra_ss

    def fail(message):
        raised.append(message)
        raise SplitInfeasibleError(message)

    def screening(XS, *args):
        if any(np.array_equal(x, data.X[halves[6][0]]) for x in XS):
            fail("split 6: forced at screening")
        return ranked(XS, *args)

    def fitting(X, Y, q):
        if any(np.array_equal(y, data.Y[halves[2][1]]) for y in Y):
            fail("split 2: forced at the fit")
        return extra_ss(X, Y, q)

    monkeypatch.setattr(ms, "_ranked", screening)
    monkeypatch.setattr(ms, "_extra_ss", fitting)
    with pytest.raises(SplitInfeasibleError, match="split 2: forced at the fit"):
        multisplit_test(data, np.eye(120), cfg)
    assert raised == ["split 6: forced at screening", "split 2: forced at the fit"]


def test_a_full_stack_raises_the_error_of_its_failing_split(monkeypatch):
    """Only split 25's screening rows have constant responses, so only its
    screening fails. The full stack of 32 raises, and its rerun runs splits 0 to
    25 one at a time: the error is split 25's own."""
    import mvlrt.multisplit as ms

    assert ms._SPLIT_STACK == 32
    rng = stream(727)
    X, Y = rng.standard_normal((100, 120)), rng.standard_normal((100, 20))
    cfg = MultiSplitConfig(j_splits=32, seed=8)
    Y[split_indices(stream(8, 25), 100, cfg.split_ratio)[0]] = 1.5
    data = DataSet(X, Y)
    runs, stack = [], ms._stack
    monkeypatch.setattr(ms, "_stack", lambda *a, **k: runs.append(list(a[-1])) or stack(*a, **k))
    with pytest.raises(DomainError, match="centered Y has rank zero"):
        multisplit_test(data, np.eye(120), cfg)
    assert runs == [list(range(32))] + [[j] for j in range(26)]


def test_multisplit_on_leading_identity_builds_no_basis(monkeypatch):
    """[I_2 0] at p = 4,000 is used as it is: no SVD of C, no p x p basis."""
    svd_calls = []
    orig = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(1) or orig(*a, **k))
    rng = stream(721)
    data = DataSet(rng.standard_normal((40, 4000)), rng.standard_normal((40, 3)))
    hyp = HypothesisMatrix(np.hstack([np.eye(2), np.zeros((2, 3998))]))
    cfg = MultiSplitConfig(j_splits=3, seed=4, delta=0.002, pca_policy="parallel_analysis")
    res = multisplit_test(data, hyp, cfg)
    assert svd_calls == []
    assert hyp.rotation is None
    assert res.outcomes == tuple(per_split_pvalue(data, hyp, cfg, j) for j in range(3))


def test_multisplit_rejects_thread_count_below_one():
    for threads in (0, 2.5, True):
        with pytest.raises(DomainError, match="threads must be an integer"):
            multisplit_test(_wide_null_data(717), np.eye(120), MultiSplitConfig(j_splits=1),
                            threads=threads)


def test_multisplit_single_split_composition():
    data = _wide_null_data(713)
    cfg = MultiSplitConfig(j_splits=1, seed=4)
    res = multisplit_test(data, np.eye(120), cfg)
    only = per_split_pvalue(data, np.eye(120), cfg, 0)
    assert res.outcomes == (only,)
    assert res.gamma_min == 0.5
    assert res.p_t == pytest.approx(adaptive_pt([only.p_value], 0.5))
    assert res.reject == (res.p_t <= res.alpha)


def test_multisplit_alpha_validation():
    data = _wide_null_data(715)
    for alpha in (0.0, None):
        with pytest.raises(DomainError):
            multisplit_test(data, np.eye(120), MultiSplitConfig(j_splits=1), alpha=alpha)


def test_a_fitted_pair_that_overflows_raises_where_it_is_fitted(tmp_path, capsys):
    """With Y scaled by 1e160, S_E overflows on every split: the split path and
    the J = 0 control raise the DomainError that the full-design fit raises, not
    a NaN statistic, and the command line exits 1 with it."""
    rng = stream(720)
    X, Y = rng.standard_normal((40, 60)), 1e160 * rng.standard_normal((40, 5))
    C = rng.standard_normal((2, 60))
    with pytest.raises(DomainError) as full:
        hypothesis_ss(DataSet(X[:, :10], Y), C[:, :10])
    message = str(full.value)
    assert message == "S_E must lie in (-inf, inf), got inf"
    cfg = MultiSplitConfig(j_splits=3)
    data = DataSet(X, Y)
    for call in (lambda: multisplit_test(data, C, cfg), lambda: no_split_pvalue(data, C, cfg)):
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message
    paths = [tmp_path / name for name in ("X.csv", "Y.csv", "C.csv")]
    for path, a in zip(paths, (X, Y, C)):
        save_matrix(path, a)
    argv = ["multisplit", *(f"--{k}={p}" for k, p in zip("xyc", paths)), "--j-splits", "3"]
    assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_a_response_covariance_that_overflows_raises_where_it_is_formed(tmp_path, capsys):
    """With Y scaled by 1e160 the response covariance overflows: response PCA,
    parallel analysis and the split path raise a DomainError that names it,
    where numpy's eigen solver raised LinAlgError, and the command line exits 1."""
    rng = stream(720)
    X, Y = rng.standard_normal((40, 60)), 1e160 * rng.standard_normal((40, 5))
    message = "response covariance must lie in (-inf, inf), got inf"
    data = DataSet(X, Y)
    calls = [lambda: pca_reduce(Y, 2), lambda: parallel_analysis(stream(1), Y)]
    calls += [lambda policy=policy: multisplit_test(
        data, np.eye(60)[:2], MultiSplitConfig(j_splits=3, pca_policy=policy))
        for policy in ("parallel_analysis", 2)]
    for call in calls:
        with pytest.raises(DomainError) as caught:
            call()
        assert str(caught.value) == message
    paths = [tmp_path / name for name in ("X.csv", "Y.csv")]
    for path, a in zip(paths, (X, Y)):
        save_matrix(path, a)
    argv = ["multisplit", *(f"--{k}={p}" for k, p in zip("xy", paths)),
            "--j-splits", "3", "--pca-policy", "2"]
    assert main(argv) == 1
    assert f"error: {message}" in capsys.readouterr().err
