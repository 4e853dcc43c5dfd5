"""Monte Carlo harness: calibration, power and multi-split rejection tables.

Every sweep walks a grid of experiment cells, estimates rejection frequencies
per requested method, and returns a ResultTable of rows
(cell, method, rate, mc_std_error, reps, runtime, status). Infeasible cells
produce a labeled row with no numbers instead of crashing the sweep; a bad
setting raises before any replicate runs.

The calibration and power sweeps count in blocks of 32 consecutive
replicates (``_BLOCK``). A block is screened once for t2 and t3 and leaves a
statistic array per method (``lrt._statistics``); a cell refers its arrays
to their laws, checks them entry by entry and counts them ``_BATCH`` blocks
at a time (``lrt._counts``), with the counts of the tests on every replicate.
Canonical block b of cell c is one ``canonical_form_sample`` draw from the
generator keyed by (seed, c, b), so those tables are pinned to the block
size; every other replicate k of cell c draws from the generator keyed by
(seed, c, k). The first block of a cell decides which methods are feasible
there. Blocks and replicates run in order in the calling thread with BLAS on
one thread (see ``_blas``); ``threads`` is validated but changes nothing.

Reproducibility: every draw comes from a generator keyed by integers, and
every sweep sums integer hit counts in order, so a rerun produces
byte-identical tables; runtimes stay out of the CSV for that reason.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._blas import single_thread_blas
from .distributions import _special
from .errors import DomainError, MvlrtError, RegimeError, check_integer, check_level, check_real
from .lrt import TESTS, PowerSpec, _counts, _rejections, _statistics, theoretical_power
from .model import (
    DataSet,
    Dims,
    HypothesisMatrix,
    SignalMatrix,
    _extra_ss,
    canonical_form_sample,
)
from .multisplit import MultiSplitConfig, multisplit_test, no_split_pvalue
from .rng import derive_seed, stream

GENERATORS = ("canonical", "linear")
NOISE_KINDS = ("gaussian", "multinomial", "t3", "t5")
SIGNAL_KINDS = ("null", "spikes", "diagonal", "dense")

#: replicates per block, drawn and screened once (canonical tables are pinned to it: their
#: streams are keyed by block), and blocks counted at once, which bounds a cell's memory
_BLOCK, _BATCH = 32, 256


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep's worth of settings.

    ``signal`` is a tagged tuple: ("null",), ("spikes", ratios) for canonical
    designs where ratios fix the relative spike sizes, ("diagonal", r_k) for
    a diagonal coefficient matrix with r_k nonzero entries (r_k = 1 is a lone
    nonzero (1,1) coefficient), or ("dense",) for i.i.d. Gaussian
    coefficients. Strengths come from ``signal_grid``: tr(Omega)/m targets
    for spikes, coefficient sizes otherwise. ``eta_grid`` turns the dims in
    ``grow`` into floor(n ** eta) per cell. ``noise`` selects the robustness
    generators: "multinomial" thresholds X and Y to six levels, "t3"/"t5"
    draw the errors from a heavy-tailed t distribution. ``threads`` must be
    >= 1; replicates run in the calling thread and tables do not depend on it.
    """

    generator: str = "canonical"
    n: int = 100
    p: int = 50
    m: int = 20
    r: int = 30
    eta_grid: tuple = ()
    grow: str = "pmr"
    signal: tuple = ("null",)
    signal_grid: tuple = ()
    rho_x: float = 0.0
    rho_e: float = 0.0
    noise: str = "gaussian"
    methods: tuple = ("t1",)
    reps: int = 10_000
    alpha: float = 0.05
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise DomainError(f"unknown generator {self.generator!r}")
        if self.noise not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.noise!r}")
        if self.noise != "gaussian" and self.generator != "linear":
            raise DomainError("non-Gaussian noise requires the linear generator")
        kind = self.signal[0] if self.signal else None
        if kind not in SIGNAL_KINDS or len(self.signal) != 1 + (kind in ("spikes", "diagonal")):
            raise DomainError(f"unknown signal spec {self.signal!r}")
        if kind == "spikes":
            if self.generator == "linear":
                raise DomainError("signal 'spikes' is not defined for the linear generator")
            ratios = np.ravel(np.asarray(self.signal[1], dtype=object))
            if not ratios.size:
                raise DomainError("spike ratios must name at least one ratio")
            for ratio in ratios:
                check_real("spike ratio", ratio, 0.0)
        for name in ("n", "p", "m", "r", "reps", "threads"):
            check_integer(name, getattr(self, name))
        check_integer("seed", self.seed, low=None)
        if kind == "diagonal":
            check_integer("diagonal rank", self.signal[1], high=min(self.p, self.m))
        if not self.methods:
            raise DomainError("methods must name at least one test")
        for meth in self.methods:
            if meth not in TESTS:
                raise DomainError(f"unknown method {meth!r}")
        check_level("alpha", self.alpha)
        for name in ("rho_x", "rho_e"):
            check_real(name, getattr(self, name), -1.0, 1.0)
        for strength in self.signal_grid:
            check_real("signal strength", strength)
        for eta in self.eta_grid:
            check_level("eta", eta)
        if self.grow and any(ch not in "pmr" for ch in self.grow):
            raise DomainError(f"grow must name a subset of 'pmr', got {self.grow!r}")


@dataclass(frozen=True)
class ResultRow:
    cell: str
    method: str
    rate: float
    mc_std_error: float
    reps: int
    runtime_s: float
    status: str = "ok"


class ResultTable:
    """Ordered collection of sweep rows with CSV emission; wall-clock runtimes
    stay on the row objects and out of the CSV."""

    HEADER = ["cell", "method", "rate", "mc_std_error", "reps", "status"]

    def __init__(self, rows):
        self.rows = tuple(rows)
        for row in self.rows:
            if row.rate is not None:
                check_real(f"rate in row {row.cell}", row.rate, 0.0, 1.0, "[]")

    def csv_text(self) -> str:
        out = [",".join(self.HEADER)]
        for row in self.rows:
            rate = "" if row.rate is None else repr(row.rate)
            se = "" if row.mc_std_error is None else repr(row.mc_std_error)
            out.append(",".join([
                f"\"{row.cell}\"", row.method, rate, se, str(row.reps),
                "\"%s\"" % row.status.replace("\"", "'"),
            ]))
        return "\n".join(out) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())

    def gnuplot_script(self, csv_path: str) -> str:
        """A plotting script for the emitted CSV: one curve per method."""
        methods = sorted({row.method for row in self.rows if row.rate is not None})
        lines = [
            "set datafile separator ','",
            f"csv = '{csv_path}'",
            "set key outside",
            "set ylabel 'rejection rate'",
            "set xlabel 'cell index'",
            "set yrange [0:1]",
            "plot \\",
        ]
        plots = [
            f"  \"< awk -F, 'NR>1 && $2==\\\"{meth}\\\"' \" . csv using 0:3 with linespoints title '{meth}'"
            for meth in methods
        ]
        lines.append(", \\\n".join(plots))
        return "\n".join(lines) + "\n"


def _ar1_factor(rho: float, k: int) -> np.ndarray:
    if rho == 0.0:
        return np.eye(k)
    idx = np.arange(k)
    sigma = rho ** np.abs(np.subtract.outer(idx, idx))
    return np.linalg.cholesky(sigma)


_SIX_LEVELS = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
_SIX_CUTS = np.array([-1.0, -0.4, 0.0, 0.4, 1.0])


def _six_level(z: np.ndarray) -> np.ndarray:
    """Threshold continuous entries to the six-level discrete scale."""
    return _SIX_LEVELS[np.searchsorted(_SIX_CUTS, z, side="right")]


def _build_b(rng, spec: ExperimentSpec, p: int, m: int, strength: float) -> np.ndarray:
    kind = spec.signal[0]
    b = np.zeros((p, m))
    if kind == "null" or strength == 0.0:
        return b
    if kind == "diagonal":
        np.fill_diagonal(b[:spec.signal[1]], strength)
    elif kind == "dense":
        b = rng.standard_normal((p, m)) * strength
    return b


def gen_linear_model(rng, spec: ExperimentSpec, strength: float = 0.0) -> DataSet:
    """Draw one dataset Y = X B + E from an ExperimentSpec's generator settings."""
    n, p, m = spec.n, spec.p, spec.m
    if spec.noise == "multinomial":
        X = _six_level(rng.standard_normal((n, p)))
        b = _build_b(rng, spec, p, m, strength)
        W = X @ b + rng.standard_normal((n, m))
        return DataSet(X, _six_level(W))
    if spec.noise in ("t3", "t5"):
        X = rng.standard_normal((n, p))
        E = rng.standard_t(3 if spec.noise == "t3" else 5, size=(n, m))
    else:
        X = rng.standard_normal((n, p)) @ _ar1_factor(spec.rho_x, p).T
        E = rng.standard_normal((n, m)) @ _ar1_factor(spec.rho_e, m).T
    b = _build_b(rng, spec, p, m, strength)
    return DataSet(X, X @ b + E)


def _spike_signal(ratios, target: float, dims: Dims) -> SignalMatrix:
    """Diagonal spikes with relative sizes ``ratios`` scaled to tr(Omega)/m = target."""
    ratios = np.asarray(ratios, dtype=float)
    check_real("tr(Omega)/m target", target, 0.0, ends="[)")
    scale = math.sqrt(target * dims.m / float(np.sum(ratios ** 2)))
    return SignalMatrix.diagonal_spikes(ratios * scale, dims)


def _drawer(spec: ExperimentSpec, dims: Dims, signal=None, strength: float = 0.0):
    """draw(cell_id, b, reps) -> the stack of sums of squares of block b of a
    cell, one pair per replicate in the range ``reps``.

    Canonical: one stack of len(reps) pairs sampled under ``signal`` from
    the generator keyed by (seed, cell_id, b). Linear: replicate k draws
    Y = X B + E at coefficient size ``strength`` from the generator keyed by
    (seed, cell_id, k), and the block fits the hypothesis [I_r 0] B = 0 with
    one stacked QR.
    """
    if spec.generator == "canonical":
        return lambda cell_id, b, reps: canonical_form_sample(
            stream(spec.seed, cell_id, b), signal, dims, size=len(reps))
    cell_spec = replace(spec, p=dims.p, m=dims.m, r=dims.r)

    def draw(cell_id, b, reps):
        data = [gen_linear_model(stream(spec.seed, cell_id, k), cell_spec, strength) for k in reps]
        return _extra_ss(np.stack([d.X for d in data]), np.stack([d.Y for d in data]), dims.r)

    return draw


def _rows(labels, hits, reps: int, started: float) -> list:
    """One row per (cell, method) label: rate hits / reps and its binomial standard error."""
    elapsed = time.perf_counter() - started
    rows = []
    for (cell, method), k in zip(labels, hits):
        rate = float(k / reps)
        rows.append(ResultRow(cell, method, rate, math.sqrt(rate * (1.0 - rate) / reps),
                              reps, elapsed))
    return rows


def _infeasible(labels, reps: int, started: float, exc) -> list:
    """One row without numbers per (cell, method) label, saying why it cannot run."""
    elapsed = time.perf_counter() - started
    return [ResultRow(cell, method, None, None, reps, elapsed, f"infeasible: {exc}")
            for cell, method in labels]


def _estimate_cell(spec: ExperimentSpec, cell_id: int, cell: str, draw) -> list:
    """Count rejections of each of spec.methods over spec.reps replicates of one cell.

    ``draw`` is a ``_drawer``. The cell counts in blocks of ``_BLOCK`` and has
    no probe pair: a typed error while drawing the first block makes the cell
    infeasible, one from a method's test on it (all at once, one by one if that
    raises) makes that method infeasible, and one in a later block propagates.
    """
    started = time.perf_counter()

    def block(b):
        return draw(cell_id, b, range(b * _BLOCK, min((b + 1) * _BLOCK, spec.reps)))

    try:
        first = block(0)
    except MvlrtError as exc:
        return _infeasible([(cell, meth) for meth in spec.methods], spec.reps, started, exc)
    rows, live, dims = [], list(spec.methods), first.dims
    try:
        hits = _rejections(first, live, spec.alpha)
    except MvlrtError:
        live, hits = [], []
        for meth in spec.methods:
            try:
                hits.append(_rejections(first, [meth], spec.alpha)[0])
                live.append(meth)
            except MvlrtError as exc:
                rows += _infeasible([(cell, meth)], spec.reps, started, exc)
    del first  # hold one block at a time, not two
    if live:
        hits, later = np.array(hits), range(1, -(-spec.reps // _BLOCK))
        for i in range(0, len(later), _BATCH):
            batch = [_statistics(block(b), live, spec.alpha) for b in later[i:i + _BATCH]]
            hits += _counts(list(map(np.concatenate, zip(*batch))), live, dims, spec.alpha)
        rows += _rows([(cell, meth) for meth in live], hits, spec.reps, started)
    rows.sort(key=lambda row: spec.methods.index(row.method))
    return rows


def _null_cells(spec: ExperimentSpec):
    """(label, dims) per null cell: the spec's own dims, or one cell per eta in
    which the dims named in ``grow`` are floor(n ** eta)."""
    if not spec.eta_grid:
        yield (f"n={spec.n} p={spec.p} m={spec.m} r={spec.r}",
               Dims(spec.n, spec.p, spec.m, spec.r))
    for eta in spec.eta_grid:
        size = max(1, int(math.floor(spec.n ** eta)))
        dims = Dims(spec.n, *(size if k in spec.grow else getattr(spec, k) for k in "pmr"))
        yield f"n={dims.n} p={dims.p} m={dims.m} r={dims.r} eta={eta:g}", dims


@single_thread_blas()
def typeI_sweep(spec: ExperimentSpec) -> ResultTable:
    """Null rejection rates over a dimension grid.

    The canonical generator samples the sums of squares directly; the linear
    generator builds Y = X B + E with B = 0 and tests [I_r 0] B = 0.
    """
    if spec.signal[0] != "null":
        raise DomainError("typeI_sweep requires a null signal")
    cells = list(_null_cells(spec))  # a bad grid raises before the first cell runs
    rows = []
    for cell_id, (cell, dims) in enumerate(cells):
        rows += _estimate_cell(spec, cell_id, cell, _drawer(spec, dims))
    return ResultTable(rows)


@single_thread_blas()
def power_sweep(spec: ExperimentSpec) -> ResultTable:
    """Rejection rates along the signal grid, plus the t1 theory prediction.

    Canonical cells use ("spikes", ratios) signals whose strengths are
    tr(Omega)/m targets; a "t1_theory" row (reps 0) carries the asymptotic
    prediction for the same cell whenever its regime conditions hold. Linear
    cells interpret the grid as coefficient sizes.
    """
    if not spec.signal_grid:
        raise DomainError("power_sweep needs a non-empty signal_grid")
    if spec.eta_grid:
        raise DomainError("power_sweep runs at the spec's own dims and takes no eta_grid")
    if spec.generator == "canonical" and spec.signal[0] != "spikes":
        raise DomainError("canonical power cells need a ('spikes', ratios) signal")
    dims = Dims(spec.n, spec.p, spec.m, spec.r)
    # every spike signal is built, and so checked, before the first cell runs
    signals = [_spike_signal(spec.signal[1], float(s), dims) if spec.generator == "canonical"
               else None for s in spec.signal_grid]
    rows = []
    for cell_id, (strength, signal) in enumerate(zip(spec.signal_grid, signals)):
        if signal is None:
            rows += _estimate_cell(spec, cell_id, f"signal={strength:g}",
                                   _drawer(spec, dims, strength=float(strength)))
            continue
        cell = f"trace_ratio={strength:g}"
        rows += _estimate_cell(spec, cell_id, cell, _drawer(spec, dims, signal))
        started = time.perf_counter()
        try:
            deltas = [d for d in np.diag(signal.delta(dims.n)) if d > 0.0]
            pred = theoretical_power(PowerSpec(
                tuple(deltas), dims.p / dims.n, dims.r / dims.n,
                dims.m / dims.n, spec.alpha))
            rows.append(ResultRow(cell, "t1_theory", pred, 0.0, 0,
                                  time.perf_counter() - started))
        except (RegimeError, DomainError) as exc:
            rows += _infeasible([(cell, "t1_theory")], 0, started, exc)
    return ResultTable(rows)


@single_thread_blas()
def multisplit_sweep(spec: ExperimentSpec, j_grid=(0, 50, 200), delta: float = 0.2,
                     split_ratio: float = 0.3, pca_policy=None, gamma_min=None) -> ResultTable:
    """Multi-split rejection rates for each J in the grid.

    The hypothesis is [I_r 0] B = 0 on linear-model data; J = 0 runs the
    deliberately unsafe screen-and-test-on-everything negative control. Each
    replicate owns a derived seed, so tables are reproducible; replicates run
    in the calling thread whatever ``spec.threads`` says. A cell whose
    replicates raise a typed error gets an infeasible row.
    """
    if spec.generator != "linear":
        raise DomainError("multisplit_sweep requires the linear generator")
    for j in j_grid:
        check_integer("split count", j, low=0)
    hyp = HypothesisMatrix(np.eye(spec.r, spec.p))
    base = MultiSplitConfig(gamma_min=gamma_min, delta=delta, split_ratio=split_ratio,
                            pca_policy=pca_policy)
    rows = []
    for cell_id, (strength, j) in enumerate(itertools.product(spec.signal_grid or (0.0,), j_grid)):
        labels = [(f"signal={strength:g} J={j}", f"multisplit_J{j}")]
        started = time.perf_counter()

        def hit(rep):
            data = gen_linear_model(stream(spec.seed, cell_id, rep), spec, float(strength))
            cfg = replace(base, j_splits=max(j, 1), seed=derive_seed(spec.seed, cell_id, rep))
            if j == 0:
                return no_split_pvalue(data, hyp, cfg).p_value <= spec.alpha
            return multisplit_test(data, hyp, cfg, alpha=spec.alpha).reject

        try:
            rows += _rows(labels, [sum(hit(rep) for rep in range(spec.reps))], spec.reps, started)
        except MvlrtError as exc:
            rows += _infeasible(labels, spec.reps, started, exc)
    return ResultTable(rows)


@single_thread_blas()
def gamma_sensitivity(j_splits: int = 200, rho_grid=(0.0, 0.5, 1.0),
                      gamma_grid=(0.005, 0.05, 0.2, 0.5, 0.8, 1.0),
                      reps: int = 10_000, alpha: float = 0.05, seed: int = 0,
                      threads: int = 1) -> ResultTable:
    """Estimate P{psi(alpha gamma) >= gamma} on equi-correlated synthetic p-values.

    p-values are upper tails of jointly Gaussian variables with equal
    correlation rho; psi(u) is the fraction of the J p-values at or below u.
    This probes which quantile level gamma the aggregation should favor as
    the dependence between splits varies: near-independent p-values push the
    maximizer toward 1/J, perfectly dependent ones toward 1. ``threads`` must
    be >= 1; replicates run in the calling thread and the table does not
    depend on it.
    """
    for name, v in (("j_splits", j_splits), ("reps", reps), ("threads", threads)):
        check_integer(name, v)
    check_integer("seed", seed, low=None)
    check_level("alpha", alpha)
    for g in gamma_grid:
        check_real("gamma", g, 0.0, 1.0, "(]")
    for rho in rho_grid:
        check_real("equicorrelation", rho, 0.0, 1.0, "[]")
    ndtr = _special().ndtr
    gammas = np.asarray(gamma_grid, dtype=float)
    rows = []
    for cell_id, rho in enumerate(rho_grid):
        started = time.perf_counter()

        def hits_of(rep):
            rng = stream(seed, cell_id, rep)
            shared = rng.standard_normal()
            own = rng.standard_normal(j_splits)
            pv = ndtr(-(math.sqrt(rho) * shared + math.sqrt(1.0 - rho) * own))
            return np.mean(pv[None, :] <= alpha * gammas[:, None], axis=1) >= gammas

        labels = [(f"rho={rho:g} gamma={g:g}", "psi_level") for g in gammas]
        rows += _rows(labels, sum(hits_of(rep) for rep in range(reps)), reps, started)
    return ResultTable(rows)
