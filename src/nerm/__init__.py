"""nerm: nested error regression models.

Fits random-intercept linear regressions to clustered data by maximum
likelihood and REML, provides the increasing-cluster-size asymptotic
covariance and the moment-based confidence intervals built on it, and
ships a Monte Carlo engine that checks the distributional claims the
inference rests on.
"""

from .errors import (
    AllReplicatesFailed,
    DegenerateBetweenDesign,
    DegenerateWithinDesign,
    EmptyDataset,
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
    sufficient_stats_batch,
    tau,
)
from .likelihood import likelihood_batch
from .estimation import (
    FitResult,
    fit_ml,
    fit_reml,
    objective_batch,
    profile_beta,
)
from .asymptotics import (
    ConfidenceInterval,
    CovariateLimits,
    MomentEstimates,
    confidence_intervals,
    estimate_moments,
    intervals,
    matrix_C,
    normal_quantile,
    normalization,
)
from .simulation import (
    CenteredGamma,
    CenteredLogNormal,
    Degenerate,
    MonteCarloSummary,
    NormalDist,
    RandomCovariates,
    ScaledT,
    SimConfig,
    generate_dataset,
    parse_distribution,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
