"""Likelihood-ratio and largest-root tests for multivariate linear models.

Tests of the general linear hypothesis C B = 0 in Y = X B + E, with
calibrations that stay honest as the dimensions grow with the sample size,
plus a screening and multi-split procedure for designs with more predictors
than observations, and a Monte Carlo harness to audit all of it.
"""

from .distributions import tw1_cdf
from .errors import (
    DataFormatError,
    DegenerateMatrixError,
    DegenerateRootError,
    DomainError,
    HypothesisRankError,
    MvlrtError,
    RegimeError,
    SingularDesignError,
    SplitInfeasibleError,
)
from .experiments import (
    ExperimentSpec,
    ResultTable,
    gamma_sensitivity,
    multisplit_sweep,
    power_sweep,
    typeI_sweep,
)
from .lrt import (
    TESTS,
    PowerSpec,
    TestReport,
    bartlett_test,
    boundary_check,
    chi2_test,
    t1_test,
    t2_test,
    t3_test,
    theoretical_power,
)
from .model import DataSet, Dims, HypothesisMatrix, SumsOfSquares, hypothesis_ss
from .multisplit import MultiSplitConfig, MultiSplitResult, multisplit_test

__version__ = "0.1.0"

__all__ = [
    "DataFormatError",
    "DataSet",
    "DegenerateMatrixError",
    "DegenerateRootError",
    "Dims",
    "DomainError",
    "ExperimentSpec",
    "HypothesisMatrix",
    "HypothesisRankError",
    "MultiSplitConfig",
    "MultiSplitResult",
    "MvlrtError",
    "PowerSpec",
    "RegimeError",
    "ResultTable",
    "SingularDesignError",
    "SplitInfeasibleError",
    "SumsOfSquares",
    "TESTS",
    "TestReport",
    "bartlett_test",
    "boundary_check",
    "chi2_test",
    "gamma_sensitivity",
    "hypothesis_ss",
    "multisplit_sweep",
    "multisplit_test",
    "power_sweep",
    "t1_test",
    "t2_test",
    "t3_test",
    "theoretical_power",
    "tw1_cdf",
    "typeI_sweep",
]
