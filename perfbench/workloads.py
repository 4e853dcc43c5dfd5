"""The benchmark's workloads: seeded inputs, one closed-loop operation, checks.

Every workload is a closed loop from one process: the next operation starts
when the previous one has returned. Inputs come only from the workload seed.
Each workload provides

* ``op(i, serial=False)`` -> ``(units, result, parts)``: operation ``i`` on
  inputs derived from ``(seed, i)``; ``units`` is what ``ops_per_s`` counts
  and ``parts`` maps named sub-steps to their seconds;
* ``check(i, result)`` -> list of failures of that one result;
* ``same(a, b)``: whether two runs of the same operation agree exactly;
* ``run_checks(results)`` -> ``[(label, ok, detail)]`` over all results.

The checks hold for any correct implementation whatever its random draws:
Monte Carlo checks use bands several standard errors wide.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

ALPHA = 0.05
METHODS = ("chi2", "bartlett", "t1", "t2", "t3")

#: slack for finite-sample miscalibration of t1/t3 at n = 100 (measured
#: sizes reach 0.065 for t3), on top of the Monte Carlo standard errors
SIZE_SLACK = 0.025
#: width of the Monte Carlo bands, in standard errors
BAND_SE = 4.0


def op_seed(seed: int, i: int) -> int:
    """A 32-bit program seed for operation i of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


class Workload:
    """Defaults: results compare with ==, no run-level checks, nothing to close."""

    def same(self, a, b):
        return a == b

    def run_checks(self, results):
        return []

    def close(self):
        pass


class McSweep(Workload):
    """typeI_sweep then power_sweep, all five methods, on the pool."""

    name = "mc_sweep"
    unit = "replicates"
    reps = 200
    eta_grid = (0.5, 0.65, 0.8)
    proportional_etas = (0.65, 0.8)
    signal_grid = (0.5, 1.0, 2.0)

    def __init__(self, mv, seed, nproc, workdir):
        self.ex = mv.experiments
        self.seed = seed
        self.threads = nproc
        self.cells = len(self.eta_grid) + len(self.signal_grid)

    def specs(self, i, threads):
        s = op_seed(self.seed, i)
        common = dict(generator="canonical", n=100, methods=METHODS, reps=self.reps,
                      alpha=ALPHA, seed=s, threads=threads)
        type1 = self.ex.ExperimentSpec(eta_grid=self.eta_grid, grow="pmr", **common)
        power = self.ex.ExperimentSpec(p=50, m=20, r=30, signal=("spikes", (1.0,)),
                                       signal_grid=self.signal_grid, **common)
        return type1, power

    def op(self, i, serial=False):
        type1, power = self.specs(i, 1 if serial else self.threads)
        tables = (self.ex.typeI_sweep(type1), self.ex.power_sweep(power))
        return self.reps * self.cells, tables, {}

    def check(self, i, tables):
        return [f"op {i}: {row.cell} {row.method}: {row.status}"
                for t in tables for row in t.rows if row.status != "ok"]

    def same(self, a, b):
        return [t.csv_text() for t in a] == [t.csv_text() for t in b]

    def run_checks(self, results):
        hits = {}
        for type1, power in results:
            for row in type1.rows + power.rows:
                if row.reps > 0 and row.rate is not None:
                    key = (row.cell, row.method)
                    h, n = hits.get(key, (0, 0))
                    hits[key] = (h + round(row.rate * row.reps), n + row.reps)
        out = []
        for eta in self.proportional_etas:
            for meth in ("t1", "t3"):
                key = next(k for k in hits if k[1] == meth and k[0].endswith(f"eta={eta:g}"))
                h, n = hits[key]
                rate = h / n
                band = SIZE_SLACK + BAND_SE * math.sqrt(ALPHA * (1 - ALPHA) / n)
                out.append((f"null rate {meth} eta={eta:g}", abs(rate - ALPHA) <= band,
                            f"{rate:.4f} within {ALPHA}+-{band:.4f} over {n} reps"))
        for meth in METHODS:
            rates = []
            for strength in self.signal_grid:
                h, n = hits[(f"trace_ratio={strength:g}", meth)]
                rates.append((h / n, n))
            ok = True
            for (r0, n0), (r1, n1) in zip(rates, rates[1:]):
                se = math.sqrt(r0 * (1 - r0) / n0 + r1 * (1 - r1) / n1)
                ok &= r1 >= r0 - BAND_SE * se
            out.append((f"power non-decreasing {meth}", ok,
                        "/".join(f"{r:.4f}" for r, _ in rates)))
        return out


class MultisplitHd(Workload):
    """multisplit_test at p > n with a general 2-row C, threads=1."""

    name = "multisplit_hd"
    unit = "splits"
    n, p, m, j_splits = 100, 150, 20, 200

    def __init__(self, mv, seed, nproc, workdir):
        self.mv = mv
        self.seed = seed
        # two contrasts, neither a leading identity row, so conditional_transform runs
        C = np.zeros((2, self.p))
        C[0, :2] = (1.0, -1.0)
        C[1, 2:4] = (1.0, 1.0)
        self.C = mv.model.HypothesisMatrix(C)

    def data(self, i):
        """Null or sparse-signal draw: five active predictors outside C's columns,
        plus, on a signal draw, a nonzero coefficient row on the first contrast."""
        rng = op_rng(self.seed, i)
        X = rng.standard_normal((self.n, self.p))
        B = np.zeros((self.p, self.m))
        active = rng.choice(np.arange(4, self.p), size=5, replace=False)
        B[active] = 0.5 * rng.standard_normal((5, self.m))
        if rng.random() < 0.5:
            B[0] = 0.8 * rng.standard_normal(self.m)
        Y = X @ B + rng.standard_normal((self.n, self.m))
        return self.mv.model.DataSet(X, Y)

    def op(self, i, serial=False):
        ms = self.mv.multisplit
        cfg = ms.MultiSplitConfig(j_splits=self.j_splits, pca_policy="parallel_analysis",
                                  seed=op_seed(self.seed, i))
        res = ms.multisplit_test(self.data(i), self.C, cfg, alpha=ALPHA, threads=1)
        return self.j_splits, res, {}

    def check(self, i, res):
        bad = []
        if not 0.0 <= res.p_t <= 1.0:
            bad.append(f"op {i}: p_t={res.p_t!r} outside [0,1]")
        if len(res.outcomes) != self.j_splits:
            bad.append(f"op {i}: {len(res.outcomes)} outcomes for J={self.j_splits}")
        return bad

    def same(self, a, b):
        return a.p_t == b.p_t and a.outcomes == b.outcomes


def _reference_neg2(X, Y, r):
    """-2 log L_n for [I_r 0] B = 0 from least-squares residuals and slogdet."""
    n = X.shape[0]
    full = Y - X @ np.linalg.lstsq(X, Y, rcond=None)[0]
    reduced = Y - X[:, r:] @ np.linalg.lstsq(X[:, r:], Y, rcond=None)[0]
    _, ld_full = np.linalg.slogdet(full.T @ full)
    _, ld_reduced = np.linalg.slogdet(reduced.T @ reduced)
    return n * (ld_reduced - ld_full)


class TallFit(Workload):
    """hypothesis_ss plus all five tests on a tall in-memory design, then one
    in-process ``mvlrt test`` run on the same design written to CSV."""

    name = "tall_fit"
    unit = "fits"
    n, p, m, r = 10_000, 50, 10, 10
    datasets = 2

    def __init__(self, mv, seed, nproc, workdir):
        self.mv = mv
        self.C = mv.model.HypothesisMatrix(np.eye(self.p)[: self.r])
        self.data, self.files = [], []
        for k in range(self.datasets):
            rng = op_rng(seed, k)
            X = rng.standard_normal((self.n, self.p))
            B = 0.1 * rng.standard_normal((self.p, self.m))
            B[: self.r] *= 0.0 if k % 2 == 0 else 0.1
            Y = X @ B + rng.standard_normal((self.n, self.m))
            self.data.append(mv.model.DataSet(X, Y))
            paths = {}
            for key, a in (("x", X), ("y", Y), ("c", self.C.C)):
                path = os.path.join(workdir, f"{key}{k}.csv")
                with open(path, "w") as fh:
                    np.savetxt(fh, a, fmt="%.17g", delimiter=",", comments="",
                               header=",".join(f"v{j}" for j in range(a.shape[1])))
                    # on disk before timing starts, so write-back does not overlap the ops
                    fh.flush()
                    os.fsync(fh.fileno())
                paths[key] = path
            self.files.append(paths)
        self.reference = [_reference_neg2(d.X, d.Y, self.r) for d in self.data]
        self.sink = open(os.devnull, "w")

    def close(self):
        self.sink.close()

    def op(self, i, serial=False):
        k, meth = i % self.datasets, METHODS[i % len(METHODS)]
        lrt = self.mv.lrt
        t0 = time.perf_counter()
        ss = self.mv.model.hypothesis_ss(self.data[k], self.C)
        reports = (lrt.chi2_test(ss), lrt.bartlett_test(ss), lrt.t1_test(ss),
                   lrt.t2_test(ss), lrt.t3_test(ss))
        t1 = time.perf_counter()
        f = self.files[k]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(self.sink):
            code = self.mv.cli.main(["test", "--x", f["x"], "--y", f["y"], "--c", f["c"],
                                     "--method", meth, "--format", "json"])
        parts = {"fit": t1 - t0, "cli": time.perf_counter() - t1}
        return 1, (reports, code, out.getvalue()), parts

    def check(self, i, result):
        reports, code, text = result
        got = reports[2].diagnostics["neg2_log_lrt"]
        want = self.reference[i % self.datasets]
        if abs(got - want) > 1e-8 * max(1.0, abs(want)):
            return [f"op {i}: -2 log L_n {got!r} != slogdet reference {want!r}"]
        if code != 0:
            return [f"op {i}: mvlrt test exited {code}"]
        meth = METHODS[i % len(METHODS)]
        lib = reports[METHODS.index(meth)]
        cli = json.loads(text)
        close = all(math.isclose(cli[key], getattr(lib, key), rel_tol=1e-9, abs_tol=1e-12)
                    for key in ("statistic", "p_value"))
        if (cli["method"] != lib.method or not close
                or cli["reject"] != int(lib.p_value <= ALPHA)):
            return [f"op {i}: mvlrt test {meth} printed {cli}, library gives {lib}"]
        return []


WORKLOADS = {w.name: w for w in (McSweep, MultisplitHd, TallFit)}
