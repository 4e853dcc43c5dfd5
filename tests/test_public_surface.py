"""The top-level namespace holds the workflow, the README quick start runs on it,
and the functions and report keys the benchmark hooks into exist."""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import re
import subprocess
import sys

import numpy as np

import mvlrt

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

WORKFLOW = [
    "DataFormatError", "DataSet", "DegenerateMatrixError", "DegenerateRootError", "Dims",
    "DomainError", "ExperimentSpec", "HypothesisMatrix", "HypothesisRankError",
    "MultiSplitConfig", "MultiSplitResult", "MvlrtError", "PowerSpec", "RegimeError",
    "ResultTable", "SingularDesignError", "SplitInfeasibleError", "SumsOfSquares", "TESTS",
    "TestReport", "bartlett_test", "boundary_check", "chi2_test", "gamma_sensitivity",
    "hypothesis_ss", "multisplit_sweep", "multisplit_test", "power_sweep", "t1_test",
    "t2_test", "t3_test", "theoretical_power", "tw1_cdf", "typeI_sweep",
]


def test_all_is_the_workflow_and_resolves():
    assert sorted(mvlrt.__all__) == WORKFLOW
    for name in mvlrt.__all__:
        assert getattr(mvlrt, name) is not None, name
    # the benchmark's setup step runs `import mvlrt; mvlrt.tw1_cdf(0.0)`
    assert 0.0 < mvlrt.tw1_cdf(0.0) < 1.0
    assert set(mvlrt.TESTS) == {"chi2", "bartlett", "t1", "t2", "t3"}


def test_setup_step_loads_only_the_scipy_subpackages_it_needs():
    """The benchmark's setup step imports scipy.special and scipy.linalg and none
    of the heavy scipy subpackages: the Tracy-Widom interpolant is numpy's."""
    code = ("import sys, mvlrt; mvlrt.tw1_cdf(0.0); "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {"scipy.special", "scipy.linalg"} <= loaded
    heavy = {"scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
             "scipy.integrate", "scipy.stats", "scipy.fft"}
    assert not heavy & loaded


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().strip()


def test_benchmark_hooks_resolve():
    """perfbench/ traces the functions named in its spans.TARGETS and reads
    three diagnostics keys, so neither may disappear from the package."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, fn_names in spans.TARGETS.items():
        mod = importlib.import_module(f"mvlrt.{mod_name}")
        for name in fn_names:
            assert callable(getattr(mod, name, None)), f"mvlrt.{mod_name}.{name}"
    ss = mvlrt.SumsOfSquares(50.0 * np.eye(4), np.eye(4), mvlrt.Dims(60, 8, 4, 4))
    assert "neg2_log_lrt" in mvlrt.t1_test(ss).diagnostics
    assert {"t2", "f_n"} <= set(mvlrt.t3_test(ss).diagnostics)
