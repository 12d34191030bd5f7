"""Conformal permutation inference for counterfactual and synthetic controls.

The package tests sharp hypotheses about policy-effect trajectories: a
counterfactual proxy for the treated unit is fitted on the null-adjusted
full sample, and the post-treatment residuals are compared against their
permutation distribution.  Exactness under exchangeability and robustness
under weak dependence come from the procedure, not from the proxy model,
so any of the bundled estimators (difference-in-differences, synthetic
control, constrained and penalized regression, factor and matrix models,
autoregressions, and fused two-stage models) can be plugged in.
"""

from .estimators import EstimatorSpec, ProxyFit, fit
from .exceptions import (
    DimensionError,
    NumericalError,
    ParseError,
    RankDeficiencyError,
    SynthconfError,
)
from .inference import (
    CiEntry,
    ConfidenceBand,
    PermutationScheme,
    Statistic,
    TestResult,
    confidence_band,
    p_value,
    placebo_test,
    pointwise_ci,
    statistic_mean,
    statistic_sq,
    test_average_effect,
    test_multi_unit,
    test_sharp_null,
)
from .io import RunConfig, read_panel_csv
from .panel import (
    PanelData,
    adjust_under_null,
    aggregate_time_blocks,
    aggregate_units,
    pointwise_slice,
    pre_treatment_slice,
)
from .simulation import (
    DgpSpec,
    ExperimentResult,
    dgp_weights,
    oracle_power_bound,
    reproduce_figure_null_vs_pre,
    run_power_curve,
    run_size_experiment,
    simulate_panel,
)
from .solvers import (
    ElasticNetPenalty,
    SolveReport,
    SolverConfig,
    alternating_ls,
    ols,
    pca_factors,
    project_l1_ball,
    project_nuclear_ball,
    project_simplex,
    simplex_ls,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # panel
    "PanelData",
    "adjust_under_null", "aggregate_time_blocks", "aggregate_units",
    "pre_treatment_slice", "pointwise_slice",
    # solvers
    "SolverConfig", "SolveReport", "ElasticNetPenalty",
    "project_simplex", "project_l1_ball", "project_nuclear_ball",
    "simplex_ls",
    "pca_factors", "alternating_ls", "ols",
    # estimators
    "EstimatorSpec", "ProxyFit", "fit",
    # inference
    "PermutationScheme", "Statistic", "TestResult", "CiEntry", "ConfidenceBand",
    "statistic_sq", "statistic_mean", "p_value",
    "test_sharp_null", "pointwise_ci", "confidence_band",
    "test_average_effect", "test_multi_unit", "placebo_test",
    # simulation
    "DgpSpec", "ExperimentResult", "dgp_weights", "simulate_panel",
    "run_size_experiment", "run_power_curve", "oracle_power_bound",
    "reproduce_figure_null_vs_pre",
    # io
    "RunConfig", "read_panel_csv",
    # errors
    "SynthconfError", "DimensionError", "NumericalError",
    "RankDeficiencyError", "ParseError",
]
