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
    Cluster,
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    center_within_covariates,
    sufficient_stats,
    tau,
    validate_dataset,
)
from .likelihood import (
    ScoreJacobian,
    ScoreVector,
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
    AsymptoticCovariance,
    ConfidenceInterval,
    CovariateLimits,
    InfluencePoint,
    MomentEstimates,
    NormalizationK,
    confidence_intervals,
    estimate_moments,
    influence,
    matrix_A,
    matrix_B,
    matrix_Bn,
    matrix_C,
    normal_quantile,
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
    ReplicateResult,
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
