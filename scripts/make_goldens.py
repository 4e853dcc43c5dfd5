"""Regenerate the fixed-seed golden outputs in tests/golden/.

The goldens pin outputs byte for byte, so that a change meant to leave the
numbers alone can show that it did:

* ``mvlrt test`` text and JSON for every method, and the default identity
  hypothesis;
* ``mvlrt multisplit`` at J=0 (``--unsafe-no-split``) and at J=20 with its
  ``--out`` audit CSV, for a general and a leading-identity hypothesis;
* small ``mvlrt simulate`` and ``mvlrt power`` tables, the latter with
  ``--out``, and ``mvlrt boundary``;
* the exit codes and texts of the typed errors, and of two retired options,
  ``--convention`` and ``--gnuplot``;
* the library's multi-split outcomes (``p_t`` and every split) and small
  ``multisplit_sweep`` and ``gamma_sensitivity`` tables;
* the Monte Carlo sweeps at the shape of the ``mc_sweep`` benchmark
  workload: ``typeI_sweep`` over eta 0.5/0.65/0.8 at n=100 and
  ``power_sweep`` at 100/50/20/30 with rank-1 spikes, all five methods at
  300 replicates per cell;
* the Tracy-Widom law: ``tw1_cdf`` on 2,501 points over [-13, 12], which
  crosses both tails and the tabulated grid, and ``tw1_upper_quantile`` at
  four levels.

Every output is hashed (SHA-256) into ``tests/golden/MANIFEST.sha256``, in
the format ``sha256sum -c`` reads. Outputs of at most ``SHORT`` bytes are
also kept as text next to it, so a mismatch shows as a readable diff.
``tests/test_golden.py`` regenerates the outputs and compares them with the
manifest; this script only rewrites it.

The hashes pin the floating-point results of one platform: the numpy and
scipy builds, their OpenBLAS and the CPU kernel it picks. ``platform.txt``
records the versions the manifest was made with.

Run from the repository root to rewrite tests/golden/::

    PYTHONPATH=src python3 scripts/make_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import platform
import sys
import tempfile

import numpy as np

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"
MANIFEST = GOLDEN / "MANIFEST.sha256"
PLATFORM = GOLDEN / "platform.txt"
METHODS = ("chi2", "bartlett", "t1", "t2", "t3")

#: outputs up to this many bytes are also kept as text files
SHORT = 4096

#: stands in for the scratch directory in every output that names a path
WORK = "$WORK"


def _save(path, a) -> str:
    a = np.atleast_2d(a)
    np.savetxt(path, a, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"c{j}" for j in range(a.shape[1])))
    return str(path)


def _inputs(work: pathlib.Path) -> dict:
    """Seeded CSV inputs: a classical design (n=80, p=6, m=3) and a wide one
    (n=40, p=60, m=5), each with general and special hypothesis matrices."""
    rng = np.random.default_rng(20261018)
    X = rng.standard_normal((80, 6))
    B = np.zeros((6, 3))
    B[:2] = 0.3 * rng.standard_normal((2, 3))
    Y = X @ B + rng.standard_normal((80, 3))
    C = np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
                  [0.5, 0.5, 0.0, 0.0, 1.0, -2.0]])
    Xw = rng.standard_normal((40, 60))
    Bw = np.zeros((60, 5))
    Bw[[0, 7, 30]] = rng.standard_normal((3, 5))
    Yw = Xw @ Bw + rng.standard_normal((40, 5))
    # two contrasts that are not a leading identity, so the design is rotated
    Cw = np.zeros((2, 60))
    Cw[0, :2] = (1.0, -1.0)
    Cw[1, 2:4] = (1.0, 1.0)
    return {
        "x": _save(work / "X.csv", X), "y": _save(work / "Y.csv", Y),
        "c": _save(work / "C.csv", C),
        "xw": _save(work / "Xw.csv", Xw), "yw": _save(work / "Yw.csv", Yw),
        "cw": _save(work / "Cw.csv", Cw),
        "cw_lead": _save(work / "Cw_lead.csv", np.eye(60)[:2]),
    }


def _cli(argv):
    """Run ``mvlrt`` in process: (exit code, stdout, the stderr error lines)."""
    from mvlrt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    return code, out.getvalue(), "\n".join(errors)


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _cli_outputs(f: dict, work: pathlib.Path) -> dict:
    out = {}

    def ok(argv):
        code, text, errors = _cli(argv)
        if code != 0:
            raise RuntimeError(f"mvlrt {' '.join(argv)} exited {code}: {errors}")
        return text

    data = ["--x", f["x"], "--y", f["y"]]
    for meth in METHODS:
        args = ["test", *data, "--c", f["c"], "--method", meth]
        out[f"test_{meth}.txt"] = ok(args)
        out[f"test_{meth}.json"] = ok(args + ["--format", "json"])
    out["test_t3_identity_c.txt"] = ok(["test", *data])

    wide = ["--x", f["xw"], "--y", f["yw"]]
    out["multisplit_j0.txt"] = ok(
        ["multisplit", *wide, "--c", f["cw"], "--j-splits", "0", "--unsafe-no-split",
         "--seed", "3", "--out", str(work / "ms_j0.csv")])
    out["multisplit_j0_audit.csv"] = _read(work / "ms_j0.csv")
    out["multisplit_j20.txt"] = ok(
        ["multisplit", *wide, "--c", f["cw"], "--j-splits", "20", "--seed", "11",
         "--pca-policy", "parallel_analysis", "--out", str(work / "ms_j20.csv")])
    out["multisplit_j20_audit.csv"] = _read(work / "ms_j20.csv")
    out["multisplit_j20_leading_identity.txt"] = ok(
        ["multisplit", *wide, "--c", f["cw_lead"], "--j-splits", "20", "--seed", "11",
         "--out", str(work / "ms_lead.csv")])
    out["multisplit_j20_leading_identity_audit.csv"] = _read(work / "ms_lead.csv")

    methods = ",".join(METHODS)
    out["simulate_canonical.csv"] = ok(
        ["simulate", "--n", "60", "--eta-grid", "0.5,0.7,0.95", "--methods", methods,
         "--reps", "100", "--seed", "3"])
    out["simulate_linear.csv"] = ok(
        ["simulate", "--generator", "linear", "--n", "60", "--p", "6", "--m", "4",
         "--r", "3", "--rho-x", "0.3", "--methods", "t1,t3", "--reps", "50",
         "--seed", "4"])
    power_csv = str(work / "power.csv")
    out["power_stdout.txt"] = ok(
        ["power", "--n", "60", "--p", "20", "--m", "8", "--r", "10",
         "--signal-grid", "1,3", "--methods", "t1,t2,t3", "--reps", "100",
         "--seed", "5", "--out", power_csv])
    out["power.csv"] = _read(power_csv)
    out["boundary.txt"] = ok(["boundary", "--n", "100", "--p", "50", "--m", "20",
                              "--r", "30"])

    cases = [
        ["test", *data, "--method", "bogus"],
        ["test", *data, "--convention", "sideways"],
        ["test", *wide, "--method", "t1"],
        ["test", *wide, "--c", f["c"]],
        ["multisplit", *wide, "--c", f["cw"], "--j-splits", "0"],
        ["multisplit", *wide, "--c", f["cw"], "--j-splits", "5", "--pca-policy", "9"],
        ["multisplit", *wide, "--c", f["cw"], "--j-splits", "5", "--delta", "0.9"],
        ["simulate", "--generator", "bogus"],
        ["simulate", "--noise", "t3"],
        ["power", "--signal-kind", "bogus", "--signal-grid", "1"],
        ["power", "--signal-grid", "1", "--gnuplot"],
        ["boundary", "--n", "10", "--p", "5", "--m", "2"],
        ["boundary", "--n", "10", "--p", "5", "--m", "2", "--r", "6"],
        ["test", "--x", str(work / "missing.csv"), "--y", f["y"]],
    ]
    lines = []
    for argv in cases:
        code, _text, errors = _cli(argv)
        lines.append(f"$ mvlrt {' '.join(argv)}\nexit={code}\n{errors}\n")
    out["errors.txt"] = "".join(lines)
    return out


def _library_outputs(f: dict) -> dict:
    from mvlrt import multisplit as ms
    from mvlrt.distributions import tw1_cdf, tw1_upper_quantile
    from mvlrt.experiments import (
        ExperimentSpec,
        gamma_sensitivity,
        multisplit_sweep,
        power_sweep,
        typeI_sweep,
    )
    from mvlrt.model import DataSet

    def load(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    data = DataSet(load(f["xw"]), load(f["yw"]))
    C = load(f["cw"])
    cfg = ms.MultiSplitConfig(j_splits=20, seed=11, pca_policy=2)
    res = ms.multisplit_test(data, C, cfg)
    lines = [f"p_t={res.p_t!r} reject={res.reject} gamma_min={res.gamma_min!r}"]
    lines += [repr(o) for o in res.outcomes]
    lines.append(f"per_split_pvalue(7)={ms.per_split_pvalue(data, C, cfg, 7)!r}")
    lines.append(f"no_split_pvalue={ms.no_split_pvalue(data, C, cfg)!r}")
    spec = ExperimentSpec(generator="linear", n=40, p=60, m=5, r=2, reps=4, seed=9,
                          signal=("diagonal", 1), signal_grid=(0.0, 2.0))
    common = dict(n=100, methods=METHODS, reps=300, seed=41)
    type1 = ExperimentSpec(eta_grid=(0.5, 0.65, 0.8), grow="pmr", **common)
    power = ExperimentSpec(p=50, m=20, r=30, signal=("spikes", (1.0,)),
                           signal_grid=(0.5, 1.0, 2.0), **common)
    return {
        "benchmark_sweeps.csv": typeI_sweep(type1).csv_text() + power_sweep(power).csv_text(),
        "multisplit_outcomes.txt": "\n".join(lines) + "\n",
        "multisplit_sweep.csv": multisplit_sweep(spec, j_grid=(0, 5)).csv_text(),
        "gamma_sensitivity.csv": gamma_sensitivity(
            j_splits=20, rho_grid=(0.0, 0.7), gamma_grid=(0.05, 0.5), reps=200,
            seed=2).csv_text(),
        "tw1_cdf.txt": "".join(f"{s!r} {tw1_cdf(s)!r}\n"
                               for s in np.linspace(-13.0, 12.0, 2501).tolist()),
        "tw1_upper_quantile.txt": "".join(f"{a!r} {tw1_upper_quantile(a)!r}\n"
                                          for a in (0.01, 0.05, 0.1, 0.5)),
    }


def outputs(work) -> dict:
    """Every golden output, name -> bytes, made with scratch files under ``work``."""
    work = pathlib.Path(work)
    f = _inputs(work)
    texts = {**_cli_outputs(f, work), **_library_outputs(f)}
    return {name: text.replace(str(work), WORK).encode()
            for name, text in sorted(texts.items())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_manifest() -> dict:
    """name -> SHA-256 hex digest, as committed."""
    pairs = {}
    for line in MANIFEST.read_text().splitlines():
        digest, name = line.split(maxsplit=1)
        pairs[name] = digest
    return pairs


def platform_text() -> str:
    import scipy

    return (f"python {platform.python_version()}\nnumpy {np.__version__}\n"
            f"scipy {scipy.__version__}\nmachine {platform.machine()}\n")


def write(got: dict) -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, data in got.items():
        if len(data) <= SHORT:
            (GOLDEN / name).write_bytes(data)
    MANIFEST.write_text("".join(f"{sha256(d)}  {n}\n" for n, d in got.items()))
    PLATFORM.write_text(platform_text())


def mismatches(got: dict) -> list:
    """Names whose output differs from the manifest, plus missing and extra names."""
    want = read_manifest()
    bad = sorted(set(want) ^ set(got))
    bad += [n for n in sorted(set(want) & set(got)) if sha256(got[n]) != want[n]]
    return bad


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        got = outputs(work)
    write(got)
    print(f"wrote {len(got)} outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
