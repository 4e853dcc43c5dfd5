"""Test statistics: centering constants, p-values, boundary metrics, power.

Frozen numeric targets were computed once with a 50-digit extended-precision
evaluation of the same displayed formulas and are inlined as literals.
"""

import math

import numpy as np
import pytest

from mvlrt.distributions import std_normal_tail, tw1_cdf, tw1_upper_quantile
from mvlrt.errors import DegenerateRootError, DomainError, RegimeError
from mvlrt.lrt import (
    TESTS,
    BoundaryDiag,
    PowerSpec,
    _SCREEN_MARGIN,
    TestReport as Report,
    _rejections,
    bartlett_rho,
    bartlett_test,
    boundary_check,
    chi2_test,
    default_f_rule,
    mu_sigma,
    t1_test,
    t2_params,
    t2_test,
    t3_test,
    theoretical_power,
)
from mvlrt.model import (
    DataSet,
    Dims,
    HypothesisMatrix,
    SignalMatrix,
    SumsOfSquares,
    canonical_form_sample,
    hypothesis_ss,
    rel_eigenvalues,
)
from mvlrt.rng import stream

DIMS_DESK = Dims(100, 50, 20, 30)


def _spike_ss(dims, lam_max):
    """S_E = I with a single relative eigenvalue lam_max (rest zero)."""
    s_x = np.zeros((dims.m, dims.m))
    s_x[0, 0] = lam_max
    return SumsOfSquares(np.eye(dims.m), s_x, dims)


# === centering constants ===


def test_mu_sigma_frozen_value():
    mu, n_sigma = mu_sigma(DIMS_DESK)
    assert mu == pytest.approx(-1144.7799994698951, rel=1e-10)
    assert n_sigma == pytest.approx(66.80472308365775, rel=1e-10)


def test_mu_sigma_classical_limits():
    # with n huge and p, m, r fixed: mu -> -mr and (n sigma)^2 -> 2mr
    mu, n_sigma = mu_sigma(Dims(10**6, 5, 2, 2))
    assert mu == pytest.approx(-4.0, rel=0.01)
    assert n_sigma**2 == pytest.approx(8.0, rel=0.01)
    mu, n_sigma = mu_sigma(Dims(10**6, 5, 3, 2))
    assert mu == pytest.approx(-6.0, rel=0.01)
    assert n_sigma**2 == pytest.approx(12.0, rel=0.01)


def test_mu_sigma_regime_guard():
    with pytest.raises(RegimeError):
        mu_sigma(Dims(70, 50, 20, 30))  # n = p + m


def test_mu_negative_over_grid():
    for n in range(50, 501, 50):
        for p in (2, n // 4, n // 2):
            for m in (1, 3):
                if n <= p + m:
                    continue
                for r in (1, min(p, 5)):
                    mu, n_sigma = mu_sigma(Dims(n, p, m, r))
                    assert mu < 0.0, (n, p, m, r)
                    assert n_sigma > 0.0


def test_t2_params_frozen_value():
    mu_t, sigma_t = t2_params(DIMS_DESK)
    assert mu_t == pytest.approx(1.758580083419485, rel=1e-10)
    assert sigma_t == pytest.approx(0.1829955872680291, rel=1e-10)


def test_t2_params_regime_guard():
    with pytest.raises(RegimeError):
        t2_params(Dims(20, 18, 4, 2))  # N = 3 <= max(m, r) = 4


def test_bartlett_rho_frozen_and_positive():
    assert bartlett_rho(DIMS_DESK) == pytest.approx(0.545, abs=1e-12)
    # rho > 0 follows from n > p + m; confirm over a feasibility grid
    for n in (20, 50, 100, 400):
        for p in (1, n // 3, n - 5):
            for m in (1, 3):
                if n <= p + m or p < 1:
                    continue
                assert bartlett_rho(Dims(n, p, m, min(p, 2))) > 0.0


# === single tests ===


def test_t1_centering_and_monotonicity():
    dims = Dims(60, 8, 4, 4)
    mu, n_sigma = mu_sigma(dims)
    lam = math.exp(-mu / (dims.n * dims.m)) - 1.0  # makes -2 log L_n equal -mu
    rep = t1_test(SumsOfSquares(np.eye(4), lam * np.eye(4), dims))
    assert rep.statistic == pytest.approx(0.0, abs=1e-9)
    assert rep.p_value == pytest.approx(0.5, abs=1e-9)
    assert rep.diagnostics["mu_n"] == mu
    bigger = t1_test(SumsOfSquares(np.eye(4), 2.0 * lam * np.eye(4), dims))
    assert bigger.statistic > rep.statistic
    assert bigger.p_value < rep.p_value


def test_chi2_and_bartlett_at_zero_statistic():
    dims = Dims(40, 5, 3, 2)
    ss = SumsOfSquares(np.eye(3), np.zeros((3, 3)), dims)
    assert chi2_test(ss).p_value == 1.0
    rep = bartlett_test(ss)
    assert rep.p_value == 1.0
    assert rep.diagnostics["rho"] == pytest.approx(bartlett_rho(dims))
    assert rep.diagnostics["df"] == 6.0


def test_bartlett_shrinks_statistic():
    ss = canonical_form_sample(stream(500), None, Dims(50, 10, 4, 3))
    raw = chi2_test(ss)
    corrected = bartlett_test(ss)
    assert corrected.statistic < raw.statistic
    assert corrected.p_value > raw.p_value
    assert raw.statistic > 0.0


def test_t2_centering():
    mu_t, _ = t2_params(DIMS_DESK)
    rep = t2_test(_spike_ss(DIMS_DESK, math.exp(mu_t)))
    assert rep.statistic == pytest.approx(0.0, abs=1e-12)
    assert rep.p_value == pytest.approx(1.0 - tw1_cdf(0.0), abs=1e-12)
    assert rep.diagnostics["theta"] == pytest.approx(1.0 / (1.0 + math.exp(-mu_t)))


def test_t2_degenerate_roots():
    dims = Dims(40, 5, 2, 3)
    flat = SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)
    with pytest.raises(DegenerateRootError):
        t2_test(flat)  # theta = 0
    with pytest.raises(DegenerateRootError):
        t2_test(flat, "error")  # theta = 1


def test_f_rule_default():
    assert default_f_rule(100) == 2.0  # log log 100 ~ 1.527
    assert default_f_rule(10**9) == pytest.approx(math.log(math.log(10**9)))
    assert default_f_rule(10**9) > 2.0
    with pytest.raises(DomainError):
        default_f_rule(2)


def test_t3_indicator_examples():
    mu_t, sigma_t = t2_params(DIMS_DESK)
    # t2 = 1.5 < F = 2: combination stays at t1
    ss = _spike_ss(DIMS_DESK, math.exp(mu_t + 1.5 * sigma_t))
    rep = t3_test(ss)
    assert rep.diagnostics["f_n"] == 2.0
    assert rep.diagnostics["t2"] == pytest.approx(1.5, abs=1e-9)
    assert rep.statistic == pytest.approx(rep.diagnostics["t1"], abs=1e-12)
    # t2 = 2.5 >= F = 2: adds on
    ss = _spike_ss(DIMS_DESK, math.exp(mu_t + 2.5 * sigma_t))
    rep = t3_test(ss)
    assert rep.statistic == pytest.approx(rep.diagnostics["t1"] + 2.5, abs=1e-9)


def test_t3_reads_the_statistics_once_and_no_p_values(monkeypatch):
    import mvlrt.lrt

    ss = canonical_form_sample(stream(503), None, Dims(80, 20, 6, 5))
    reads = []
    for name in ("neg2_log_lrt", "theta_max", "tw1_cdf"):
        orig = getattr(mvlrt.lrt, name)
        monkeypatch.setattr(mvlrt.lrt, name,
                            lambda *a, _name=name, _orig=orig: reads.append(_name) or _orig(*a))
    rep = t3_test(ss)
    assert sorted(reads) == ["neg2_log_lrt", "theta_max"]
    assert rep.diagnostics["t1"] == t1_test(ss).statistic
    assert rep.diagnostics["t2"] == t2_test(ss).statistic


def test_t3_dominates_t1():
    for k in range(50):
        ss = canonical_form_sample(stream(502, k), None, Dims(80, 20, 6, 5))
        r1, r3 = t1_test(ss), t3_test(ss)
        assert r3.statistic >= r1.statistic
        assert r3.p_value <= r1.p_value + 1e-15


def test_all_statistics_invariant_under_response_transform():
    rng = stream(503)
    X = rng.standard_normal((60, 8))
    Y = rng.standard_normal((60, 4))
    C = HypothesisMatrix(np.eye(8)[:3])
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    A = q @ np.diag([0.5, 1.0, 2.0, 4.0])
    base = hypothesis_ss(DataSet(X, Y), C)
    moved = hypothesis_ss(DataSet(X, Y @ A), C)
    for test in (chi2_test, bartlett_test, t1_test, t2_test, t3_test):
        assert test(moved).statistic == pytest.approx(test(base).statistic, rel=1e-8)


# === one factorization, one method table ===


def _count_calls(monkeypatch, name):
    """Spy on np.linalg.<name>: the list gets the shape of each call's first argument."""
    calls = []
    orig = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return orig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_method_table_maps_names_to_tests():
    assert list(TESTS) == ["chi2", "bartlett", "t1", "t2", "t3"]
    ss = canonical_form_sample(stream(60), None, DIMS_DESK)
    assert [TESTS[meth](ss).method for meth in TESTS] == list(TESTS)


def test_five_tests_share_one_factorization(monkeypatch):
    rng = stream(61)
    data = DataSet(rng.standard_normal((100, 50)), rng.standard_normal((100, 20)))
    fitted = hypothesis_ss(data, np.eye(30, 50))
    sampled = canonical_form_sample(rng, None, DIMS_DESK)
    chol = _count_calls(monkeypatch, "cholesky")
    eig = _count_calls(monkeypatch, "eigvalsh")
    # a fitted pair: one factor of S_E, one of S_E + S_X, one eigenproblem for the roots;
    # a sampled pair carries its Bartlett factor of S_E, so only S_E + S_X is factored
    for ss, factors in ((fitted, 2), (sampled, 1)):
        chol.clear()
        eig.clear()
        for test in TESTS.values():
            test(ss)
        assert len(chol) == factors
        assert len(eig) == 1


def test_rel_eigenvalues_copy_leaves_stored_roots_alone(monkeypatch):
    ss = canonical_form_sample(stream(62), None, DIMS_DESK)
    eig = _count_calls(monkeypatch, "eigvalsh")
    before = t2_test(ss)
    lam = rel_eigenvalues(ss)
    lam[:] = 1e6
    assert t2_test(ss) == before
    assert len(eig) == 1


# === one formula for a pair and for a stack ===


def _stack(pairs):
    """The pairs as one stack that keeps each pair's Cholesky factor of S_E."""
    return SumsOfSquares._of(np.stack([ss.s_err for ss in pairs]),
                             np.stack([ss.s_hyp for ss in pairs]), pairs[0].dims,
                             chol_err=np.stack([ss._chol_err for ss in pairs]))


def _scaled(ss, root):
    """The pair with S_X rescaled so that its largest relative root is ``root``."""
    return SumsOfSquares._of(ss.s_err, ss.s_hyp * (root / rel_eigenvalues(ss)[0]), ss.dims,
                             chol_err=ss._chol_err)


def _boundary_pairs(pairs, alpha):
    """Pairs whose largest root sits just below and above the root at which t2
    reaches its critical value, and the root at which it reaches F_n: at
    1 -/+ 1e-12 and 1 -/+ 2 _SCREEN_MARGIN times each."""
    dims = pairs[0].dims
    mu_t, sigma_t = t2_params(dims)
    out = []
    for s in (tw1_upper_quantile(alpha), default_f_rule(dims.n)):
        root = math.exp(mu_t + sigma_t * s)
        for rel in (1e-12, 2.0 * _SCREEN_MARGIN):
            out += [_scaled(ss, root * (1.0 + sign * rel)) for ss, sign in zip(pairs, (-1, 1))]
    return out


def test_stack_rejections_count_the_pair_tests():
    """The stack counts equal the per-pair tests on random null, spike and
    linear stacks, and on pairs that sit at the edges of the t2/t3 screen."""
    desk = Dims(60, 20, 8, 10)
    pairs = [canonical_form_sample(stream(63, k), None, desk) for k in range(40)]
    stacks = [(pairs, (0.05, 0.5))]
    for alpha in (0.05, 0.01):
        edge = _boundary_pairs(pairs[:2], alpha)
        # the +/- 2 margin pairs fall on either side of the t2 and t3 decisions
        assert [t2_test(ss).p_value <= alpha for ss in edge[2:4]] == [False, True]
        assert [t3_test(ss).diagnostics["t2"] >= 2.0 for ss in edge[6:8]] == [False, True]
        stacks.append((edge + pairs[2:20], (alpha,)))
    for m in (1, 4, 20, 39):
        dims = Dims(100, 39, m, 39)
        # one spike that t2 rejects on some pairs and not on others
        for signal in (None, SignalMatrix.diagonal_spikes([6.0 + m / 4.0], dims)):
            stacks.append(([canonical_form_sample(stream(64, m, k), signal, dims)
                            for k in range(24)], (0.05, 0.01)))
    data = [DataSet(stream(65, k).standard_normal((60, 20)), stream(66, k).standard_normal((60, 8)))
            for k in range(24)]
    stacks.append(([hypothesis_ss(d, np.eye(10, 20)) for d in data], (0.05, 0.01)))
    for stack, alphas in stacks:
        reports = [[TESTS[meth](ss) for meth in TESTS] for ss in stack]
        for alpha in alphas:
            want = [sum(rep[i].p_value <= alpha for rep in reports) for i in range(len(TESTS))]
            assert list(_rejections(_stack(stack), TESTS, alpha)) == want


def test_stack_screen_sends_few_null_pairs_to_the_eigen_solve(monkeypatch):
    block = canonical_form_sample(stream(67), None, Dims(100, 39, 39, 39), size=32)
    eig = _count_calls(monkeypatch, "eigvalsh")
    _rejections(block, TESTS, 0.05)
    assert len(eig) == 1 and eig[0][0] <= 8


def test_stack_with_a_root_without_logit_raises():
    dims = Dims(40, 5, 2, 3)
    pairs = [_spike_ss(dims, 0.5), SumsOfSquares(np.eye(2), np.zeros((2, 2)), dims)]
    assert len(_rejections(_stack(pairs[:1]), ("t2", "t3"), 0.05)) == 2
    for meth in ("t2", "t3"):
        with pytest.raises(DegenerateRootError):
            _rejections(_stack(pairs), (meth,), 0.05)


# === null calibration smoke (acceptance runs the full-size versions) ===


def test_t1_null_rejection_sane():
    dims = Dims(200, 20, 20, 20)
    hits = sum(
        t1_test(canonical_form_sample(stream(504, k), None, dims)).p_value <= 0.05
        for k in range(500)
    )
    assert 0.02 <= hits / 500 <= 0.09


def test_t2_null_rejection_sane():
    dims = Dims(200, 50, 20, 30)
    hits = sum(
        t2_test(canonical_form_sample(stream(505, k), None, dims)).p_value <= 0.05
        for k in range(500)
    )
    assert 0.02 <= hits / 500 <= 0.10


# === boundary diagnostics ===


def test_boundary_examples():
    d = boundary_check(Dims(100, 10, 2, 2))
    assert d.chi2_metric == pytest.approx(0.2, abs=1e-12)
    assert d.lrt_defined
    d = boundary_check(Dims(100, 2, 2, 2))
    assert d.bartlett_metric == pytest.approx(0.0016, abs=1e-15)


def test_boundary_homogeneity():
    a = boundary_check(Dims(100, 10, 2, 2))
    b = boundary_check(Dims(200, 10, 2, 2))
    assert b.chi2_metric == pytest.approx(a.chi2_metric / 2.0)
    assert b.bartlett_metric == pytest.approx(a.bartlett_metric / 4.0)


def test_boundary_verdict_thresholds():
    assert BoundaryDiag.verdict(0.05) == "safe"
    assert BoundaryDiag.verdict(0.1) == "safe"
    assert BoundaryDiag.verdict(0.3) == "marginal"
    assert BoundaryDiag.verdict(0.5) == "marginal"
    assert BoundaryDiag.verdict(0.51) == "unsafe"


# === power prediction ===


def test_power_frozen_example():
    # 1 - Phi(z_0.05 - W / sigma); Monte Carlo t1 power at 300/150/60/90 with
    # delta = 1 is 0.33 (criterion 6), which rules out the 2/sigma shift (0.78)
    spec = PowerSpec(deltas=(1.0,), rho_p=0.5, rho_r=0.3, rho_m=0.2)
    assert theoretical_power(spec) == pytest.approx(0.3332443413743617, rel=1e-12)


def test_power_null_is_alpha():
    spec = PowerSpec(deltas=(), rho_p=0.5, rho_r=0.3, rho_m=0.2, alpha=0.05)
    assert theoretical_power(spec) == pytest.approx(0.05, abs=1e-9)


def test_power_monotone_in_delta():
    grid = [0.2, 0.5, 1.0, 2.0, 5.0]
    vals = [
        theoretical_power(PowerSpec((d,), rho_p=0.5, rho_r=0.3, rho_m=0.2))
        for d in grid
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


def test_power_spec_validation():
    with pytest.raises(DomainError):
        PowerSpec((-1.0,), 0.5, 0.3, 0.2)
    with pytest.raises(DomainError):
        PowerSpec((1.0,), 1.5, 0.3, 0.2)
    with pytest.raises(DomainError):
        PowerSpec((1.0,), 0.5, 0.3, 0.2, alpha=0.0)
    for bad in ((None, 0.3, 0.2, 0.05), (0.5, "0.3", 0.2, 0.05), (0.5, 0.3, 0.2, None)):
        with pytest.raises(DomainError):
            PowerSpec((1.0,), *bad)
    for deltas in ((None,), ("1.0",), (True,)):
        with pytest.raises(DomainError, match="deltas must lie in"):
            PowerSpec(deltas, 0.5, 0.3, 0.2)
    with pytest.raises(RegimeError):
        theoretical_power(PowerSpec((1.0,), 0.7, 0.3, 0.4))  # rho_p + rho_m >= 1


# === report container ===


def test_report_validation():
    Report("t1", 1.5, 0.07, {"mu_n": -3.0})
    with pytest.raises(DomainError):
        Report("lrt", 0.0, 0.5)
    with pytest.raises(DomainError):
        Report("t1", 0.0, 1.5)
    with pytest.raises(DomainError):
        Report("t1", math.nan, 0.5)
    for bad in ((None, 0.5, {}), (1.0, "0.5", {}), (1.0, 0.5, {"mu_n": None})):
        with pytest.raises(DomainError):
            Report("t1", *bad)
