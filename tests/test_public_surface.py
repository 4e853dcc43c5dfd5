"""The top-level namespace holds the workflow, and the README quick start runs on it."""

import contextlib
import io
import pathlib
import re

import mvlrt

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

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


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 2
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().strip()
