"""Monte Carlo harness: generators, sweeps, and table plumbing."""

import csv
import io

import numpy as np
import pytest
from scipy.stats import norm

import mvlrt.experiments
from mvlrt.errors import DomainError
from mvlrt.experiments import (
    ExperimentSpec,
    ResultRow,
    ResultTable,
    _drawer,
    _estimate_cell,
    _six_level,
    _spike_signal,
    gamma_sensitivity,
    gen_linear_model,
    multisplit_sweep,
    power_sweep,
    typeI_sweep,
)
from mvlrt.lrt import TESTS
from mvlrt.model import (
    Dims,
    HypothesisMatrix,
    SumsOfSquares,
    canonical_form_sample,
    hypothesis_ss,
)
from mvlrt.rng import stream


def _rows_by_method(table):
    return {(row.cell, row.method): row for row in table.rows}


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _count_streams(monkeypatch):
    calls = []
    orig = mvlrt.experiments.stream
    monkeypatch.setattr(mvlrt.experiments, "stream",
                        lambda *path: calls.append(path) or orig(*path))
    return calls


# === data generators ===


def test_linear_model_identity_covariance():
    spec = ExperimentSpec(generator="linear", n=10_000, p=6, m=3)
    data = gen_linear_model(stream(800), spec)
    corr = np.corrcoef(data.X, rowvar=False)
    np.fill_diagonal(corr, 0.0)
    assert np.abs(corr).max() < 4.0 / np.sqrt(10_000)


def test_linear_model_ar1_covariances():
    spec = ExperimentSpec(generator="linear", n=10_000, p=4, m=3,
                          rho_x=0.7, rho_e=0.6)
    data = gen_linear_model(stream(801), spec)  # B = 0, so Y is the error draw
    cx = np.corrcoef(data.X, rowvar=False)
    assert cx[0, 1] == pytest.approx(0.7, abs=0.02)
    assert cx[1, 2] == pytest.approx(0.7, abs=0.02)
    assert cx[0, 2] == pytest.approx(0.49, abs=0.03)  # rho^2 at lag 2
    ce = np.corrcoef(data.Y, rowvar=False)
    assert ce[0, 1] == pytest.approx(0.6, abs=0.02)


def test_six_level_thresholds():
    z = np.array([-1.5, -1.0, -0.7, -0.4, -0.1, 0.0, 0.2, 0.4, 0.7, 1.0, 1.4])
    want = np.array([-3.0, -2.0, -2.0, -1.0, -1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    assert np.array_equal(_six_level(z), want)


def test_multinomial_generator_levels_and_rates():
    spec = ExperimentSpec(generator="linear", n=10_000, p=3, m=2, noise="multinomial")
    data = gen_linear_model(stream(802), spec)
    levels = {-3.0, -2.0, -1.0, 1.0, 2.0, 3.0}
    assert set(np.unique(data.X)) <= levels
    assert set(np.unique(data.Y)) <= levels
    # bin frequencies of X follow the normal cut probabilities
    edges = [-1.0, -0.4, 0.0, 0.4, 1.0]
    probs = np.diff([0.0, *norm.cdf(edges), 1.0])
    vals = np.sort(list(levels))
    freq = [(data.X == v).mean() for v in vals]
    assert np.abs(np.array(freq) - probs).max() < 0.02


def test_heavy_tail_generators_run():
    for kind in ("t3", "t5"):
        spec = ExperimentSpec(generator="linear", n=50, p=4, m=2, noise=kind)
        data = gen_linear_model(stream(803), spec)
        assert data.Y.shape == (50, 2)


def test_signal_construction():
    spec = ExperimentSpec(generator="linear", n=200, p=6, m=4,
                          signal=("diagonal", 1))
    data = gen_linear_model(stream(804), spec, strength=5.0)
    # B[0,0] = 5: regressing out recovers it
    bhat = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    assert bhat[0, 0] == pytest.approx(5.0, abs=0.5)
    assert np.abs(bhat[1:, 1:]).max() < 0.5
    diag = ExperimentSpec(generator="linear", n=200, p=6, m=4,
                          signal=("diagonal", 2))
    data = gen_linear_model(stream(805), diag, strength=3.0)
    bhat = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    assert bhat[0, 0] == pytest.approx(3.0, abs=0.5)
    assert bhat[1, 1] == pytest.approx(3.0, abs=0.5)
    with pytest.raises(DomainError):
        gen_linear_model(stream(0), ExperimentSpec(
            generator="linear", p=6, m=4, signal=("diagonal", 5)), strength=1.0)


def test_spec_validation():
    with pytest.raises(DomainError):
        ExperimentSpec(generator="magic")
    with pytest.raises(DomainError):
        ExperimentSpec(noise="cauchy")
    with pytest.raises(DomainError):
        ExperimentSpec(noise="multinomial")  # needs the linear generator
    assert ExperimentSpec(methods=tuple(TESTS)).methods == tuple(TESTS)
    with pytest.raises(DomainError):
        ExperimentSpec(methods=("t9",))
    with pytest.raises(DomainError):
        ExperimentSpec(reps=0)
    with pytest.raises(DomainError, match="reps must be an integer"):
        ExperimentSpec(reps=40.5)
    with pytest.raises(DomainError):
        ExperimentSpec(eta_grid=(1.5,))
    with pytest.raises(DomainError):
        ExperimentSpec(grow="pq")
    with pytest.raises(DomainError):
        ExperimentSpec(rho_x=1.0)
    for bad in (dict(r=30.0), dict(n=100.0), dict(p=None), dict(m=True), dict(reps=True),
                dict(threads=2.5), dict(threads=True), dict(seed=1.5), dict(alpha=None),
                dict(eta_grid=("0.5",)), dict(rho_x=None), dict(rho_e="0.1"),
                dict(signal_grid=(None,)), dict(signal_grid=(np.nan,)),
                dict(signal=("spikes", (None,))), dict(signal=("spikes", (np.nan,))),
                dict(signal=("spikes", ("2",)))):
        with pytest.raises(DomainError):
            ExperimentSpec(**bad)
    ints = {k: np.int64(v) for k, v in dict(n=100, p=50, m=20, r=30, reps=5, threads=2).items()}
    assert typeI_sweep(ExperimentSpec(seed=np.int64(-3), **ints)).csv_text() == \
        typeI_sweep(ExperimentSpec(seed=-3, n=100, p=50, m=20, r=30, reps=5)).csv_text()


@pytest.mark.parametrize("signal", [("spikes",), ("null", 1), ("diagonal",), ("single",),
                                    ("single", 2),
                                    ("diagonal", 0), ("diagonal", -2), ("diagonal", 1.5)])
def test_spec_checks_the_signal_tag(signal):
    with pytest.raises(DomainError):
        ExperimentSpec(signal=signal)


@pytest.mark.parametrize("sweep", [typeI_sweep, power_sweep])
def test_spec_needs_a_method(monkeypatch, sweep):
    calls = _count_streams(monkeypatch)
    with pytest.raises(DomainError, match="at least one test"):
        sweep(ExperimentSpec(methods=(), signal_grid=(0.0, 1.0), reps=5))
    assert calls == []


@pytest.mark.parametrize("signal", [("diagonal", 99), ("spikes", (1.0,))])
def test_linear_power_sweep_rejects_a_bad_signal_before_any_draw(monkeypatch, signal):
    calls = _count_streams(monkeypatch)
    with pytest.raises(DomainError):
        power_sweep(ExperimentSpec(generator="linear", n=60, p=8, m=4, r=4, signal=signal,
                                   signal_grid=(0.0, 1.0), reps=5))
    assert calls == []


@pytest.mark.parametrize("sweep, spec", [
    # the eta=0.9 cell asks for r = floor(100 ** 0.9) = 63 > p = 5
    (typeI_sweep, ExperimentSpec(n=100, p=5, m=3, r=2, eta_grid=(0.2, 0.9), grow="r", reps=5)),
    # the second trace ratio is negative
    (power_sweep, ExperimentSpec(n=100, p=50, m=20, r=30, signal=("spikes", (1.0,)),
                                 signal_grid=(1.0, -1.0), reps=5)),
], ids=["typeI_eta_grid", "power_spike_grid"])
def test_sweep_checks_its_whole_grid_before_any_draw(monkeypatch, sweep, spec):
    calls = _count_streams(monkeypatch)
    with pytest.raises(DomainError):
        sweep(spec)
    assert calls == []


# === null sweeps ===

_TINY = dict(generator="canonical", n=60, p=8, m=4, r=4, reps=300, seed=42)


def test_typeI_sweep_rows_and_errors():
    table = typeI_sweep(ExperimentSpec(methods=("t1", "chi2"), **_TINY))
    assert [row.method for row in table.rows] == ["t1", "chi2"]
    for row in table.rows:
        assert row.cell == "n=60 p=8 m=4 r=4"
        assert row.status == "ok"
        assert 0.0 <= row.rate <= 1.0
        assert row.mc_std_error == pytest.approx(
            np.sqrt(row.rate * (1.0 - row.rate) / row.reps))
        assert row.reps == 300
    # t1 is calibrated here; chi2 drifts but should not be wild at these dims
    rates = {row.method: row.rate for row in table.rows}
    assert 0.01 <= rates["t1"] <= 0.12


def test_typeI_sweep_single_rep_degenerate():
    table = typeI_sweep(ExperimentSpec(methods=("t1",), **{**_TINY, "reps": 1}))
    row = table.rows[0]
    assert row.rate in (0.0, 1.0)
    assert row.mc_std_error == 0.0


def test_typeI_sweep_eta_grid_marks_infeasible_cells():
    spec = ExperimentSpec(generator="canonical", n=100, eta_grid=(0.5, 0.95),
                          grow="pmr", methods=("t1", "chi2"), reps=50, seed=7)
    table = typeI_sweep(spec)
    ok = [row for row in table.rows if row.status == "ok"]
    bad = [row for row in table.rows if row.status.startswith("infeasible:")]
    assert len(ok) == 2 and len(bad) == 2
    assert all("p=10" in row.cell for row in ok)
    assert all("p=79" in row.cell for row in bad)
    for row in bad:
        assert row.rate is None and row.mc_std_error is None
    parsed = _parse_csv(table.csv_text())
    assert parsed[0] == ResultTable.HEADER
    assert len(parsed) == 5
    infeasible_line = next(line for line in parsed[1:] if line[5] != "ok")
    assert infeasible_line[2] == "" and infeasible_line[3] == ""


def test_typeI_sweep_rejects_signal():
    with pytest.raises(DomainError):
        typeI_sweep(ExperimentSpec(signal=("diagonal", 1), generator="linear"))


def test_sweep_thread_invariance():
    base = ExperimentSpec(methods=("t1", "chi2"), **_TINY)
    serial = typeI_sweep(base).csv_text()
    pooled = typeI_sweep(ExperimentSpec(methods=("t1", "chi2"),
                                        **{**_TINY, "threads": 3})).csv_text()
    assert serial == pooled
    rerun = typeI_sweep(base).csv_text()
    assert serial == rerun


def test_linear_generator_sweep_agrees_with_canonical_calibration():
    spec = ExperimentSpec(generator="linear", n=60, p=8, m=4, r=4,
                          methods=("t1",), reps=300, seed=9)
    row = typeI_sweep(spec).rows[0]
    assert row.status == "ok"
    assert 0.01 <= row.rate <= 0.12


# === blocks of replicates against a per-replicate loop ===

_ALL = tuple(TESTS)


def _loop_rates(pairs, spec):
    """Rejection rate of each method from one TESTS call per pair and method."""
    hits = dict.fromkeys(spec.methods, 0)
    for ss in pairs:
        for meth in spec.methods:
            hits[meth] += TESTS[meth](ss).p_value <= spec.alpha
    return {meth: h / spec.reps for meth, h in hits.items()}


def _block_pairs(seed, cell_id, signal, dims, reps, block=32):
    """Each canonical pair of a cell, drawn a block at a time from stream(seed, cell_id, b)
    and rebuilt on its own, with its own Bartlett factor as the Cholesky factor of S_E."""
    for b, start in enumerate(range(0, reps, block)):
        ss = canonical_form_sample(stream(seed, cell_id, b), signal, dims,
                                   size=min(block, reps - start))
        for s_err, s_hyp, T in zip(ss.s_err, ss.s_hyp, ss._chol_err):
            yield SumsOfSquares._of(s_err, s_hyp, dims, chol_err=T)


def _table_rates(table, cell):
    return {row.method: row.rate for row in table.rows
            if row.cell == cell and row.method in TESTS}


def test_blocks_count_as_a_per_replicate_loop_canonical_null():
    spec = ExperimentSpec(n=60, p=8, m=4, r=4, methods=_ALL, reps=77, seed=31)
    dims = Dims(60, 8, 4, 4)
    want = _loop_rates(_block_pairs(spec.seed, 0, None, dims, spec.reps), spec)
    assert _table_rates(typeI_sweep(spec), "n=60 p=8 m=4 r=4") == want


def test_blocks_count_as_a_per_replicate_loop_canonical_spikes():
    spec = ExperimentSpec(n=60, p=20, m=8, r=10, signal=("spikes", (1.0, 0.5)),
                          signal_grid=(0.5, 2.0), methods=_ALL, reps=77, seed=32)
    dims = Dims(60, 20, 8, 10)
    table = power_sweep(spec)
    for cell_id, target in enumerate(spec.signal_grid):
        signal = _spike_signal((1.0, 0.5), target, dims)
        want = _loop_rates(_block_pairs(spec.seed, cell_id, signal, dims, spec.reps), spec)
        assert _table_rates(table, f"trace_ratio={target:g}") == want


def test_blocks_count_as_a_per_replicate_loop_linear():
    spec = ExperimentSpec(generator="linear", n=60, p=8, m=4, r=3, rho_x=0.3,
                          methods=_ALL, reps=77, seed=33)
    hyp = HypothesisMatrix(np.eye(3, 8))
    pairs = (hypothesis_ss(gen_linear_model(stream(spec.seed, 0, k), spec), hyp)
             for k in range(spec.reps))
    want = _loop_rates(pairs, spec)
    assert _table_rates(typeI_sweep(spec), "n=60 p=8 m=4 r=3") == want


def test_sweeps_build_each_replicate_stream_once(monkeypatch):
    calls = _count_streams(monkeypatch)
    typeI_sweep(ExperimentSpec(n=60, eta_grid=(0.5, 0.6), methods=_ALL, reps=64, seed=35))
    power_sweep(ExperimentSpec(generator="linear", n=60, p=8, m=4, r=4, signal=("diagonal", 1),
                               signal_grid=(0.0, 1.0), methods=("t1",), reps=40, seed=36))
    # one stream per canonical block of 32, one per linear replicate
    assert calls == ([(35, c, b) for c in range(2) for b in range(2)]
                     + [(36, c, k) for c in range(2) for k in range(40)])


def test_first_block_drops_only_the_methods_it_breaks():
    """A flat largest root at replicate 3 (first block, not the first pair)
    makes t2 and t3 infeasible; t1 still counts every replicate."""
    spec = ExperimentSpec(n=60, p=8, m=4, r=4, methods=("t1", "t2", "t3"), reps=70, seed=37)
    dims = Dims(60, 8, 4, 4)
    drawn = []

    def draw(cell_id, b, reps):
        ss = canonical_form_sample(stream(37, cell_id, b), None, dims, size=len(reps))
        drawn.append(b)
        if len(drawn) > 1:
            return ss
        s_hyp = ss.s_hyp.copy()
        s_hyp[3] = 0.0
        return SumsOfSquares._of(ss.s_err, s_hyp, dims, chol_err=ss._chol_err)

    rows = {row.method: row for row in _estimate_cell(spec, 0, "cell", draw)}
    assert drawn == [0, 1, 2]
    for meth in ("t2", "t3"):
        assert rows[meth].rate is None
        assert rows[meth].status == "infeasible: largest root theta=0.0 has no logit"
    hits = 0
    for k, ss in enumerate(_block_pairs(37, 0, None, dims, spec.reps)):
        if k == 3:
            ss = SumsOfSquares._of(ss.s_err, np.zeros((4, 4)), dims, chol_err=ss._chol_err)
        hits += TESTS["t1"](ss).p_value <= spec.alpha
    assert rows["t1"].status == "ok" and rows["t1"].rate == hits / spec.reps


def test_a_first_block_root_that_overflows_drops_t2_and_t3():
    """A pair of the first block whose S_X, whitened by S_E, overflows makes t2
    and t3 infeasible with a typed error; chi2 and t1 still count every replicate."""
    spec = ExperimentSpec(n=60, p=8, m=4, r=4, methods=("chi2", "t1", "t2", "t3"), reps=40,
                          seed=43)
    dims = Dims(60, 8, 4, 4)

    def draw(cell_id, b, reps):
        ss = canonical_form_sample(stream(43, cell_id, b), None, dims, size=len(reps))
        if b:
            return ss
        s_err, s_hyp = ss.s_err.copy(), ss.s_hyp.copy()
        s_err[5], s_hyp[5] = 1e-200 * np.eye(4), 1e200 * np.eye(4)
        return SumsOfSquares._of(s_err, s_hyp, dims)

    rows = {row.method: row for row in _estimate_cell(spec, 0, "cell", draw)}
    for meth in ("t2", "t3"):
        assert rows[meth].rate is None
        assert rows[meth].status == ("infeasible: largest root undefined: "
                                     "S_X whitened by S_E is not finite")
    assert all(rows[meth].status == "ok" for meth in ("chi2", "t1"))


def test_each_block_is_screened_once(monkeypatch):
    """All five methods on a 70-replicate cell: one t2/t3 screen per block, the
    first block included (it is counted with all methods in one call)."""
    screened = []
    orig = SumsOfSquares._roots_below
    monkeypatch.setattr(SumsOfSquares, "_roots_below",
                        lambda ss, cut: screened.append(len(ss.s_err)) or orig(ss, cut))
    spec = ExperimentSpec(n=60, p=8, m=4, r=4, methods=_ALL, reps=70, seed=38)
    rows = _estimate_cell(spec, 0, "cell", _drawer(spec, Dims(60, 8, 4, 4)))
    assert screened == [32, 32, 6]
    assert [row.method for row in rows] == list(_ALL)
    assert all(row.status == "ok" for row in rows)


@pytest.mark.parametrize("methods, message", [
    (_ALL, "chi_sq_tail: x must lie in (-inf, inf), got nan"),
    (("t1", "t3"), "std_normal_tail: x must lie in (-inf, inf), got nan"),
])
@pytest.mark.parametrize("entry", [(5, 1, 0), (5, 1, 1)])
@pytest.mark.parametrize("batch", [1, 256])
def test_a_nan_in_a_later_block_raises_what_the_block_raised(monkeypatch, methods, message,
                                                             entry, batch):
    """Block 2 of 4 holds a NaN S_X entry, below the diagonal (the t2/t3 screen
    clears its pair) or on it (t2's eigen solve would raise LinAlgError): the
    cell raises the DomainError that counting that block alone raises, at that
    block, whether the later blocks are counted one at a time or in one batch."""
    monkeypatch.setattr(mvlrt.experiments, "_BATCH", batch)
    spec = ExperimentSpec(n=60, p=8, m=4, r=4, methods=methods, reps=100, seed=39)
    dims = Dims(60, 8, 4, 4)
    drawn = []

    def draw(cell_id, b, reps):
        drawn.append(b)
        ss = canonical_form_sample(stream(39, cell_id, b), None, dims, size=len(reps))
        if b != 2:
            return ss
        s_hyp = ss.s_hyp.copy()
        s_hyp[entry] = np.nan
        return SumsOfSquares._of(ss.s_err, s_hyp, dims, chol_err=ss._chol_err)

    with pytest.raises(DomainError) as caught:
        _estimate_cell(spec, 0, "cell", draw)
    assert str(caught.value) == message
    assert drawn == [0, 1, 2]


@pytest.mark.parametrize("batch", [1, 2, 5])
def test_batch_size_changes_no_table(monkeypatch, batch):
    """Later blocks are counted a batch of statistic arrays at a time; the
    batch size changes no canonical or linear table."""
    specs = [ExperimentSpec(n=100, eta_grid=(0.5, 0.8), methods=_ALL, reps=230, seed=40),
             ExperimentSpec(n=60, p=20, m=8, r=10, signal=("spikes", (1.0,)),
                            signal_grid=(1.0, 3.0), methods=_ALL, reps=200, seed=41),
             ExperimentSpec(generator="linear", n=60, p=8, m=4, r=3, methods=_ALL, reps=100,
                            seed=42)]

    def tables():
        return [(power_sweep if spec.signal_grid else typeI_sweep)(spec).csv_text()
                for spec in specs]

    want = tables()
    monkeypatch.setattr(mvlrt.experiments, "_BATCH", batch)
    assert tables() == want


@pytest.mark.parametrize("block", [1, 5, 77, 1000])
def test_block_size_changes_no_table(monkeypatch, block):
    """Linear replicates own their streams, so the block size changes no linear
    table; canonical streams are keyed by block and pinned to _BLOCK."""
    spec = ExperimentSpec(generator="linear", n=60, p=8, m=4, r=4, rho_x=0.3,
                          methods=_ALL, reps=77, seed=34)
    power = ExperimentSpec(generator="linear", n=60, p=8, m=4, r=3, signal=("diagonal", 2),
                           signal_grid=(0.3,), methods=_ALL, reps=77, seed=34)
    want = typeI_sweep(spec).csv_text() + power_sweep(power).csv_text()
    monkeypatch.setattr(mvlrt.experiments, "_BLOCK", block)
    assert typeI_sweep(spec).csv_text() + power_sweep(power).csv_text() == want


# === power sweeps ===


def test_power_sweep_canonical_with_theory_rows():
    spec = ExperimentSpec(signal=("spikes", (1.0,)), signal_grid=(0.0, 3.0),
                          methods=("t1", "t2"), reps=250, seed=11)
    table = power_sweep(spec)
    by = _rows_by_method(table)
    for cell in ("trace_ratio=0", "trace_ratio=3"):
        assert {m for c, m in by if c == cell} == {"t1", "t2", "t1_theory"}
    theory_null = by[("trace_ratio=0", "t1_theory")]
    assert theory_null.rate == pytest.approx(0.05)
    assert theory_null.reps == 0 and theory_null.mc_std_error == 0.0
    assert by[("trace_ratio=3", "t2")].rate > by[("trace_ratio=0", "t2")].rate
    assert by[("trace_ratio=3", "t1_theory")].rate > 0.05


def test_power_sweep_linear_single_signal():
    spec = ExperimentSpec(generator="linear", n=60, p=8, m=4, r=4,
                          signal=("diagonal", 1), signal_grid=(0.0, 2.0),
                          methods=("t1",), reps=200, seed=13)
    table = power_sweep(spec)
    by = _rows_by_method(table)
    assert by[("signal=0", "t1")].rate <= 0.15
    assert by[("signal=2", "t1")].rate > by[("signal=0", "t1")].rate + 0.3


def test_power_sweep_validation():
    with pytest.raises(DomainError):
        power_sweep(ExperimentSpec(signal=("spikes", (1.0,))))  # empty grid
    with pytest.raises(DomainError):
        power_sweep(ExperimentSpec(signal=("null",), signal_grid=(1.0,)))
    with pytest.raises(DomainError):
        power_sweep(ExperimentSpec(signal=("spikes", (1.0,)), signal_grid=(None,)))


def test_power_sweep_refuses_an_eta_grid():
    """Power cells run at the spec's own dims, so a growth grid is refused, not ignored."""
    for generator, signal in (("canonical", ("spikes", (1.0,))), ("linear", ("dense",))):
        spec = ExperimentSpec(generator=generator, signal=signal, signal_grid=(1.0,),
                              eta_grid=(0.5,), reps=32)
        with pytest.raises(DomainError, match="takes no eta_grid"):
            power_sweep(spec)


# === multi-split sweep ===


def test_multisplit_sweep_table():
    spec = ExperimentSpec(generator="linear", n=60, p=80, m=5, r=80,
                          reps=15, seed=17)
    table = multisplit_sweep(spec, j_grid=(0, 3))
    methods = [row.method for row in table.rows]
    assert methods == ["multisplit_J0", "multisplit_J3"]
    for row in table.rows:
        assert row.status == "ok"
        assert 0.0 <= row.rate <= 1.0
        assert row.cell.startswith("signal=0 ")


def test_multisplit_sweep_thread_invariance():
    spec = ExperimentSpec(generator="linear", n=60, p=80, m=5, r=80,
                          reps=10, seed=19)
    a = multisplit_sweep(spec, j_grid=(2,)).csv_text()
    b = multisplit_sweep(ExperimentSpec(generator="linear", n=60, p=80, m=5,
                                        r=80, reps=10, seed=19, threads=3),
                         j_grid=(2,)).csv_text()
    assert a == b


def test_multisplit_sweep_validation():
    with pytest.raises(DomainError):
        multisplit_sweep(ExperimentSpec(generator="canonical"))
    spec = ExperimentSpec(generator="linear", n=60, p=80, m=5, r=80, reps=2)
    with pytest.raises(DomainError):
        multisplit_sweep(spec, j_grid=(-1,))
    with pytest.raises(DomainError, match="split count must be an integer"):
        multisplit_sweep(spec, j_grid=(2.5,))


@pytest.mark.parametrize("setting", [dict(delta=2.0), dict(split_ratio=1.5),
                                     dict(gamma_min=3.0), dict(pca_policy="bogus")])
def test_multisplit_sweep_checks_its_settings_before_any_draw(monkeypatch, setting):
    calls = _count_streams(monkeypatch)
    spec = ExperimentSpec(generator="linear", n=60, p=80, m=5, r=80, reps=3)
    with pytest.raises(DomainError):
        multisplit_sweep(spec, j_grid=(0, 2), **setting)
    assert calls == []


def test_multisplit_sweep_checks_the_j_grid_before_any_draw(monkeypatch):
    calls = _count_streams(monkeypatch)
    spec = ExperimentSpec(generator="linear", n=60, p=80, m=5, r=80, reps=3)
    with pytest.raises(DomainError):
        multisplit_sweep(spec, j_grid=(2, -1))
    assert calls == []


# === aggregation-level sensitivity ===


def test_gamma_sensitivity_dependence_pattern():
    table = gamma_sensitivity(j_splits=50, rho_grid=(0.0, 1.0),
                              gamma_grid=(0.005, 0.5, 1.0), reps=1500, seed=23)
    by = {row.cell: row.rate for row in table.rows}
    # perfectly dependent splits: P{psi(alpha gamma) >= gamma} = alpha * gamma
    assert by["rho=1 gamma=1"] == pytest.approx(0.05, abs=0.02)
    assert by["rho=1 gamma=1"] > by["rho=1 gamma=0.005"]
    # independent splits: mass sits far below gamma = 1
    assert by["rho=0 gamma=0.005"] > by["rho=0 gamma=0.5"] + 0.005
    assert by["rho=0 gamma=1"] == 0.0


def test_gamma_sensitivity_thread_invariance():
    a = gamma_sensitivity(j_splits=20, rho_grid=(0.5,), gamma_grid=(0.05, 0.5),
                          reps=400, seed=29).csv_text()
    b = gamma_sensitivity(j_splits=20, rho_grid=(0.5,), gamma_grid=(0.05, 0.5),
                          reps=400, seed=29, threads=4).csv_text()
    assert a == b


def test_gamma_sensitivity_csv_rates_are_numbers():
    text = gamma_sensitivity(j_splits=20, rho_grid=(0.0, 0.7), gamma_grid=(0.05, 0.5),
                             reps=200, seed=2).csv_text()
    rows = _parse_csv(text)[1:]
    assert len(rows) == 4
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0  # not an "np.float64(...)" repr


def test_gamma_sensitivity_checks_the_rho_grid_before_any_draw(monkeypatch):
    calls = _count_streams(monkeypatch)
    with pytest.raises(DomainError):
        gamma_sensitivity(j_splits=20, rho_grid=(0.0, 1.5), reps=50)
    assert calls == []


def test_gamma_sensitivity_validation():
    with pytest.raises(DomainError):
        gamma_sensitivity(j_splits=0)
    with pytest.raises(DomainError, match="j_splits must be an integer"):
        gamma_sensitivity(j_splits=2.5, reps=10)
    with pytest.raises(DomainError, match="reps must be an integer"):
        gamma_sensitivity(j_splits=20, reps=40.5)
    with pytest.raises(DomainError):
        gamma_sensitivity(gamma_grid=(0.0,), reps=10)
    with pytest.raises(DomainError):
        gamma_sensitivity(rho_grid=(1.5,), reps=10)
    with pytest.raises(DomainError):
        gamma_sensitivity(reps=10, threads=0)
    for bad in (dict(threads=2.5), dict(threads=True), dict(reps=True), dict(seed=1.5),
                dict(alpha=None), dict(gamma_grid=(None,)), dict(rho_grid=(None,))):
        with pytest.raises(DomainError):
            gamma_sensitivity(**{"j_splits": 5, "reps": 10, **bad})
    args = dict(j_splits=5, rho_grid=(0.5,), gamma_grid=(0.5,), reps=10)
    assert gamma_sensitivity(**args, seed=-2).csv_text() == gamma_sensitivity(
        **{k: np.int64(v) if isinstance(v, int) else v for k, v in args.items()},
        seed=np.int64(-2), threads=np.int64(1)).csv_text()


# === table plumbing ===


def test_result_table_validation_and_write(tmp_path):
    with pytest.raises(DomainError):
        ResultTable([ResultRow("c", "t1", 1.2, 0.0, 10, 0.1)])
    table = ResultTable([ResultRow("a cell", "t1", 0.25, 0.02, 100, 0.5)])
    path = tmp_path / "out.csv"
    table.write(path)
    assert path.read_text() == table.csv_text()
    parsed = _parse_csv(table.csv_text())
    assert parsed[1][0] == "a cell"
    assert float(parsed[1][2]) == 0.25


def test_gnuplot_script_mentions_methods():
    table = ResultTable([
        ResultRow("c1", "t1", 0.1, 0.01, 100, 0.5),
        ResultRow("c1", "t2", 0.2, 0.01, 100, 0.5),
        ResultRow("c2", "bad", None, None, 100, 0.5, "infeasible: x"),
    ])
    script = table.gnuplot_script("table.csv")
    assert "plot" in script and "'t1'" in script and "'t2'" in script
    assert "bad" not in script
