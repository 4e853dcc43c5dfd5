"""The top-level namespace holds the workflow, the README quick start runs on it,
the functions and report keys the benchmark hooks into exist, and no module
keeps an import or a private name that nothing uses."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import mvlrt

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "mvlrt"

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


_HEAVY = {"scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.spatial",
          "scipy.integrate", "scipy.stats", "scipy.fft"}


def _scipy_modules_after(code, *args):
    """The scipy.* modules a fresh interpreter has loaded after running code."""
    code += "\nprint(' '.join(m for m in sys.modules if m.startswith('scipy.')))"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_setup_step_loads_only_the_scipy_subpackages_it_needs():
    """The benchmark's setup step needs no scipy subpackage and loads none:
    scipy.special and scipy.linalg are imported by the first call that uses them."""
    loaded = _scipy_modules_after("import sys, mvlrt; mvlrt.tw1_cdf(0.0)")
    assert not {"scipy.special", "scipy.linalg"} & loaded
    assert not _HEAVY & loaded


@pytest.mark.parametrize("method, wanted", [("t1", set()), ("t3", {"scipy.linalg"}),
                                            ("chi2", {"scipy.special"})])
def test_one_shot_test_command_loads_only_what_its_method_calls(tmp_path, method, wanted):
    rng = np.random.default_rng(19)
    x, y = tmp_path / "X.csv", tmp_path / "Y.csv"
    np.savetxt(x, rng.standard_normal((40, 5)), delimiter=",")
    np.savetxt(y, rng.standard_normal((40, 3)), delimiter=",")
    code = ("import sys\nfrom mvlrt.cli import main\n"
            "assert main(sys.argv[1:]) == 0")
    loaded = _scipy_modules_after(code, "test", "--x", str(x), "--y", str(y),
                                  "--method", method)
    assert {"scipy.special", "scipy.linalg"} & loaded == wanted
    assert not _HEAVY & loaded


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


def _loaded_names(tree) -> set:
    """Every name the tree reads as a name; an attribute or a docstring does not count."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_no_module_keeps_an_unused_import_or_private_name():
    """Each module-level import of a module is read in that module (the package's
    re-exports and __future__ aside), and each module-level name that starts with
    one underscore is read somewhere in the package: a deletion leaves no orphan."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = set().union(*map(_loaded_names, trees.values()))
    unused, orphans = [], []
    for name, tree in trees.items():
        read = _loaded_names(tree)
        for node in tree.body:
            defined = []
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and name != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [(name, b) for b in bound if b not in read]
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for target in targets for t in ast.walk(target)
                           if isinstance(t, ast.Name)]
            orphans += [(name, d) for d in defined
                        if d.startswith("_") and not d.startswith("__") and d not in everywhere]
    assert len(trees) >= 10
    assert unused == [] and orphans == []
