"""Streaming stochastic-gradient estimators for instrumental-variable regression."""

from .dgp import (
    DgpConfig,
    EndogenousLinear,
    OneSample,
    SharedConfounder,
    endogenous_linear_config,
    sample_one,
    shared_confounder_config,
    test_set,
)
from .estimators import (
    DirectSGDRegressor,
    Online2SLSRegressor,
    TwoSampleSGDRegressor,
    TwoStageSGDRegressor,
    direct_residual_update,
    online_2sls_update,
    two_sample_update,
    two_stage_update,
)
from .harness import ExperimentSpec, MetricSeries, fit_slope, mix_seed, run_experiment, run_trial
from .metrics import MetricPoint, dist_to_opt, test_mse
from .oracle import PopulationSummary, grad_f, mc_moments, summarize, theory_constants
from .schedule import (
    Constant,
    Polynomial,
    TheoryConstants,
    log_horizon_alpha,
    step,
    two_timescale_schedules,
)

__version__ = "0.1.0"

__all__ = [
    "Constant",
    "DgpConfig",
    "DirectSGDRegressor",
    "EndogenousLinear",
    "ExperimentSpec",
    "MetricPoint",
    "MetricSeries",
    "OneSample",
    "Online2SLSRegressor",
    "Polynomial",
    "PopulationSummary",
    "SharedConfounder",
    "TheoryConstants",
    "TwoSampleSGDRegressor",
    "TwoStageSGDRegressor",
    "direct_residual_update",
    "dist_to_opt",
    "endogenous_linear_config",
    "fit_slope",
    "grad_f",
    "log_horizon_alpha",
    "mc_moments",
    "mix_seed",
    "online_2sls_update",
    "run_experiment",
    "run_trial",
    "sample_one",
    "shared_confounder_config",
    "step",
    "summarize",
    "test_mse",
    "test_set",
    "theory_constants",
    "two_sample_update",
    "two_stage_update",
    "two_timescale_schedules",
    "__version__",
]
