"""nerm: nested error regression models.

Fits random-intercept linear regressions to clustered data by maximum
likelihood and REML, provides the increasing-cluster-size asymptotic
covariance, influence functions and moment-based confidence intervals, and
ships a Monte Carlo engine that verifies the distributional claims the
inference rests on.
"""

from .errors import (
    AllReplicatesFailed,
    DegenerateBetweenDesign,
    DegenerateWithinDesign,
    EmptyDataset,
    InsufficientSequence,
    InvalidConfig,
    InvalidDistribution,
    NermError,
    NonFiniteValue,
    NonPositiveVariance,
    NotPositiveDefinite,
    NoWithinCovariates,
    ParseError,
    RaggedCovariates,
    SingularDelta,
)
from .model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    assemble,
    center_within_covariates,
    parameter_layout,
    sufficient_stats,
    tau,
)
from .likelihood import (
    expected_score_jacobian,
    log_likelihood,
    score,
    score_jacobian,
)
from .estimation import (
    FitResult,
    adjusted_score,
    fit_ml,
    fit_reml,
    profile_beta,
    reml_criterion,
)
from .asymptotics import (
    ConfidenceInterval,
    CovariateLimits,
    MomentEstimates,
    confidence_intervals,
    estimate_moments,
    influence,
    matrix_A,
    matrix_B,
    matrix_Bn,
    matrix_C,
    normal_quantile,
    normalization,
)
from .simulation import (
    CenteredGamma,
    CenteredLogNormal,
    Degenerate,
    FixedCovariates,
    MonteCarloSummary,
    NormalDist,
    RandomCovariates,
    RateReport,
    ScaledT,
    SimConfig,
    generate_dataset,
    moment_diagnostics,
    parse_distribution,
    rate_probe,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
