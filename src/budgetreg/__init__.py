"""Attribute-budgeted ridge and lasso regression with data-dependent sampling."""

__version__ = "0.1.0"

from .core import (
    BALL_TOL,
    Dataset,
    Predictor,
    Regime,
    RunResult,
    norm,
    project_l1_ball,
    project_l2_ball,
    squared_loss,
)
from .estimator import SolverConfig, estimate_phi, estimate_point
from .harness import (
    ExperimentConfig,
    dataset_moments,
    relative_loss,
    run_experiment,
)
from .sampling import (
    AttributeDistribution,
    inner_product_p,
    lasso_optimal_q,
    ridge_optimal_q,
    sample_index,
    uniform_distribution,
)
from .solver_lasso import aelr_eta, run_gaelr
from .solver_ridge import aerr_eta, run_gaerr
from .two_phase import TwoPhaseConfig, run_two_phase

__all__ = [
    "BALL_TOL",
    "AttributeDistribution",
    "Dataset",
    "ExperimentConfig",
    "Predictor",
    "Regime",
    "RunResult",
    "SolverConfig",
    "TwoPhaseConfig",
    "aelr_eta",
    "aerr_eta",
    "dataset_moments",
    "estimate_phi",
    "estimate_point",
    "inner_product_p",
    "lasso_optimal_q",
    "norm",
    "project_l1_ball",
    "project_l2_ball",
    "relative_loss",
    "ridge_optimal_q",
    "run_experiment",
    "run_gaelr",
    "run_gaerr",
    "run_two_phase",
    "sample_index",
    "squared_loss",
    "uniform_distribution",
    "__version__",
]
