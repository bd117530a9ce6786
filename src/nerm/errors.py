"""Exception types shared across the package.

Every error raised by nerm derives from :class:`NermError`, so callers can
catch one base class at API boundaries (the CLI maps them to exit codes).
"""

from __future__ import annotations

__all__ = [
    "NermError",
    "EmptyDataset",
    "RaggedCovariates",
    "NonFiniteValue",
    "NoWithinCovariates",
    "NonPositiveVariance",
    "SingularDelta",
    "DegenerateWithinDesign",
    "DegenerateBetweenDesign",
    "NotPositiveDefinite",
    "InvalidDistribution",
    "InvalidConfig",
    "AllReplicatesFailed",
    "ParseError",
]


class NermError(Exception):
    """Base class for all nerm errors."""


# ---------------------------------------------------------------------------
# data / validation
# ---------------------------------------------------------------------------

class EmptyDataset(NermError):
    """Fewer than two clusters, or a cluster with no observations."""


class RaggedCovariates(NermError):
    """Covariate shapes inconsistent with the declared dimensions."""


class NonFiniteValue(NermError):
    """NaN or infinity encountered in responses, covariates or parameters."""


class NoWithinCovariates(NermError):
    """An operation that needs within-cluster covariates got none."""


class NonPositiveVariance(NermError):
    """A variance parameter was zero or negative."""


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

class SingularDelta(NermError):
    """The profiled normal-equation matrix is singular (collinear design)."""


class DegenerateWithinDesign(NermError):
    """Within-cluster design carries no information (rank-deficient or
    no within-cluster replication at all)."""


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

class DegenerateBetweenDesign(NermError):
    """Second-moment matrix of the between design is degenerate."""


class NotPositiveDefinite(NermError):
    """A matrix that must be symmetric positive definite is not."""


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

class InvalidDistribution(NermError):
    """Unknown effect distribution tag or parameters out of range."""


class InvalidConfig(NermError):
    """A simulation or run configuration failed validation."""


class AllReplicatesFailed(NermError):
    """Every Monte Carlo replicate raised; no summary can be formed."""


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

class ParseError(NermError):
    """Malformed CSV input or unreadable file."""
