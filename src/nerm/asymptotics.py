"""Increasing-cluster-size asymptotics: covariance matrices, influence
functions and moment-based confidence intervals.

Normalized by K^(1/2), K = diag(g, g 1_pb, g, n 1_pw, n), the centered ML
(and REML) estimator is asymptotically normal with covariance

    C = B^-1 A B^-1,

where A is the limit covariance of the normalized score at the truth and
B the limit of the normalized negative expected score derivative.  With
between-covariate limits c1 = lim g^-1 sum x_b_i, C2 = lim g^-1 sum
x_b_i x_b_i' and within limit C3 = lim n^-1 S_w_x, both A and B are block
diagonal across the between/within split; B does not involve any third or
fourth moments, A picks up E alpha^3, E alpha^4 and E e^4.  Under normal
effects A = B, so C = B^-1; otherwise the sandwich keeps excess-kurtosis
terms in the variance rows and an E alpha^3 coupling between beta0 and
sigma_alpha_sq.

The finite-sample analogue B_n (the normalized negative expected score
derivative at the truth for the data at hand) converges to B; it is exposed
separately so the convergence can be probed directly.

Interval notes: coefficients get plain Wald intervals driven by the
relevant diagonal of C with plug-in moment estimates; the variance
components get intervals built on the log scale of the standard deviation
and back-transformed, which keeps the endpoints positive.  The beta0 and
sigma_e_sq intervals follow the same recipe by extension and are tagged as
such.  If a plug-in fourth moment falls below the squared variance estimate
the variance-of-variance estimate would be negative; the interval collapses
to zero width at the point estimate and is flagged instead.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBetweenDesign,
    InvalidConfig,
    NonFiniteValue,
    NotPositiveDefinite,
)
from .estimation import FitResult
from .likelihood import expected_score_jacobian
from .model import ClusteredDataset, ParameterVector, SufficientStats

__all__ = [
    "NormalizationK",
    "CovariateLimits",
    "MomentEstimates",
    "AsymptoticCovariance",
    "InfluencePoint",
    "ConfidenceInterval",
    "normal_quantile",
    "matrix_A",
    "matrix_B",
    "matrix_Bn",
    "matrix_C",
    "influence",
    "estimate_moments",
    "confidence_intervals",
]


# ---------------------------------------------------------------------------
# standard normal quantile
# ---------------------------------------------------------------------------

def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (stdlib ``statistics.NormalDist``).

    Args:
        p: probability strictly inside (0, 1).

    Returns:
        x with Phi(x) = p.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidConfig(f"quantile level must lie in (0, 1), got {p!r}")
    return statistics.NormalDist().inv_cdf(p)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationK:
    """Diagonal normalization K = diag(g, g 1_pb, g, n 1_pw, n)."""

    diag: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.diag, dtype=float, copy=True)
        d.setflags(write=False)
        object.__setattr__(self, "diag", d)

    @classmethod
    def from_counts(cls, g: int, n: int, p_b: int, p_w: int) -> "NormalizationK":
        diag = np.concatenate([
            np.full(1 + p_b, float(g)), [float(g)],
            np.full(p_w, float(n)), [float(n)],
        ])
        return cls(diag)

    @property
    def sqrt(self) -> np.ndarray:
        return np.sqrt(self.diag)


def _check_spd(mat: np.ndarray, what: str) -> None:
    if mat.size == 0:
        return
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise NotPositiveDefinite(f"{what} is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs[0] <= 0.0:
        raise NotPositiveDefinite(f"{what} is not positive definite")


@dataclass(frozen=True)
class CovariateLimits:
    """Covariate limit quantities: c1, C2 (between), C3 (within).

    Either exact limits of a covariate law or the finite-sample versions
    c1 = g^-1 sum x_b_i, C2 = g^-1 sum x_b_i x_b_i', C3 = S_w_x / n.
    """

    c1: np.ndarray       # (p_b,)
    C2: np.ndarray       # (p_b, p_b)
    C3: np.ndarray       # (p_w, p_w)

    def __post_init__(self) -> None:
        c1 = np.atleast_1d(np.asarray(self.c1, dtype=float)).copy()
        C2 = np.asarray(self.C2, dtype=float).reshape(c1.size, c1.size).copy()
        C3 = np.atleast_2d(np.asarray(self.C3, dtype=float)).copy() \
            if np.asarray(self.C3).size else np.empty((0, 0))
        _check_spd(C2, "between second-moment matrix C2")
        _check_spd(C3, "within covariance matrix C3")
        for a in (c1, C2, C3):
            a.setflags(write=False)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "C2", C2)
        object.__setattr__(self, "C3", C3)

    @property
    def p_b(self) -> int:
        return self.c1.size

    @property
    def p_w(self) -> int:
        return self.C3.shape[0]

    @classmethod
    def from_dataset(cls, ds: ClusteredDataset,
                     stats: SufficientStats) -> "CovariateLimits":
        Xb = ds.x_b
        c1 = Xb.mean(axis=0) if ds.p_b else np.empty(0)
        C2 = Xb.T @ Xb / stats.g if ds.p_b else np.empty((0, 0))
        C3 = stats.S_w_x / stats.n if ds.p_w else np.empty((0, 0))
        return cls(c1=c1, C2=C2, C3=C3)


@dataclass(frozen=True)
class MomentEstimates:
    """Plug-in third/fourth moments of the cluster effects and residuals."""

    mu3_alpha: float
    mu4_alpha: float
    mu3_e: float
    mu4_e: float

    def __post_init__(self) -> None:
        vals = (self.mu3_alpha, self.mu4_alpha, self.mu3_e, self.mu4_e)
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteValue("moment estimates must be finite")
        for name in ("mu3_alpha", "mu4_alpha", "mu3_e", "mu4_e"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def normal_theory(cls, sigma_alpha_sq: float,
                      sigma_e_sq: float) -> "MomentEstimates":
        """Moments a normal law would have; handy for law-level matrices."""
        return cls(0.0, 3.0 * sigma_alpha_sq**2, 0.0, 3.0 * sigma_e_sq**2)


@dataclass(frozen=True)
class AsymptoticCovariance:
    """Limit covariance C with its between-block ingredients d, d1, D2."""

    C: np.ndarray
    d: float
    d1: np.ndarray
    D2: np.ndarray

    def __post_init__(self) -> None:
        for name in ("C", "d1", "D2"):
            a = np.array(getattr(self, name), dtype=float, copy=True)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "d", float(self.d))


@dataclass(frozen=True)
class InfluencePoint:
    """Ingredients of one observation's influence: its cluster effect,
    residual, between covariates and centered within covariates."""

    alpha: float
    e: float
    x_b: np.ndarray
    x_w_dev: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "e", float(self.e))
        object.__setattr__(self, "x_b",
                           np.atleast_1d(np.asarray(self.x_b, dtype=float)))
        object.__setattr__(self, "x_w_dev",
                           np.atleast_1d(np.asarray(self.x_w_dev, dtype=float)))


# ---------------------------------------------------------------------------
# limit matrices
# ---------------------------------------------------------------------------

def _indices(p_b: int, p_w: int):
    dim = p_b + p_w + 3
    return dim, 0, slice(1, 1 + p_b), 1 + p_b, slice(2 + p_b, 2 + p_b + p_w), dim - 1


def _between_pieces(limits: CovariateLimits):
    """d, d1, D2 via the blockwise inverse of [[1, c1'], [c1, C2]]."""
    c1, C2 = limits.c1, limits.C2
    if limits.p_b == 0:
        return 1.0, np.empty(0), np.empty((0, 0))
    C2_inv_c1 = np.linalg.solve(C2, c1)
    s = 1.0 - float(c1 @ C2_inv_c1)
    if s <= 0.0:
        raise DegenerateBetweenDesign(
            "between design is degenerate: 1 - c1' C2^-1 c1 <= 0"
        )
    d = 1.0 / s
    d1 = -C2_inv_c1 / s
    D2 = np.linalg.inv(C2) + np.outer(C2_inv_c1, C2_inv_c1) / s
    return d, d1, D2


def matrix_B(limits: CovariateLimits, theta_dot) -> np.ndarray:
    """Limit of the normalized negative expected score derivative.

    Block diagonal: [[1, c1'],[c1, C2]]/sigma_alpha_sq over (beta0, beta1),
    then 1/(2 sigma_alpha_sq^2), then C3/sigma_e_sq, then 1/(2 sigma_e_sq^2).
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    p_b, p_w = limits.p_b, limits.p_w
    dim, i0, i1, ia, i2, ie = _indices(p_b, p_w)
    B = np.zeros((dim, dim))
    B[i0, i0] = 1.0 / sa
    B[i0, i1] = limits.c1 / sa
    B[i1, i0] = limits.c1 / sa
    B[i1, i1] = limits.C2 / sa
    B[ia, ia] = 1.0 / (2.0 * sa * sa)
    B[i2, i2] = limits.C3 / se
    B[ie, ie] = 1.0 / (2.0 * se * se)
    return B


def matrix_A(limits: CovariateLimits, theta_dot,
             moments: MomentEstimates) -> np.ndarray:
    """Limit covariance of the normalized score at the truth.

    Equals :func:`matrix_B` except in the variance rows, which carry
    E alpha^3, E alpha^4 - sigma_alpha_sq^2 and E e^4 - sigma_e_sq^2; under
    normal moments the two matrices coincide.
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    p_b, p_w = limits.p_b, limits.p_w
    dim, i0, i1, ia, i2, ie = _indices(p_b, p_w)
    A = matrix_B(limits, theta_dot)
    A = A.copy()
    coupling = moments.mu3_alpha / (2.0 * sa**3)
    A[i0, ia] = A[ia, i0] = coupling
    A[i1, ia] = limits.c1 * coupling
    A[ia, i1] = limits.c1 * coupling
    A[ia, ia] = (moments.mu4_alpha - sa * sa) / (4.0 * sa**4)
    A[ie, ie] = (moments.mu4_e - se * se) / (4.0 * se**4)
    return A


def matrix_C(limits: CovariateLimits, theta_dot,
             moments: MomentEstimates) -> AsymptoticCovariance:
    """Sandwich covariance B^-1 A B^-1 assembled blockwise.

    The closed form: sigma_alpha_sq [[d, d1'],[d1, D2]] over (beta0, beta1)
    with an E alpha^3 coupling between beta0 and sigma_alpha_sq,
    E alpha^4 - sigma_alpha_sq^2 for sigma_alpha_sq, sigma_e_sq C3^-1 for
    beta2 and E e^4 - sigma_e_sq^2 for sigma_e_sq; all other cells vanish.
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    p_b, p_w = limits.p_b, limits.p_w
    dim, i0, i1, ia, i2, ie = _indices(p_b, p_w)
    d, d1, D2 = _between_pieces(limits)
    C = np.zeros((dim, dim))
    C[i0, i0] = sa * d
    C[i0, i1] = sa * d1
    C[i1, i0] = sa * d1
    C[i1, i1] = sa * D2
    C[i0, ia] = C[ia, i0] = moments.mu3_alpha
    C[ia, ia] = moments.mu4_alpha - sa * sa
    if p_w:
        C[i2, i2] = se * np.linalg.inv(limits.C3)
    C[ie, ie] = moments.mu4_e - se * se
    return AsymptoticCovariance(C=C, d=d, d1=d1, D2=D2)


def matrix_Bn(ds: ClusteredDataset, stats: SufficientStats,
              theta_dot) -> np.ndarray:
    """Finite-sample analogue of B for the design at hand.

    Equals -K^(-1/2) E psi'(omega_dot) K^(-1/2) and converges to
    :func:`matrix_B` as g and the smallest cluster grow.  The coefficients
    of omega_dot cancel in E psi' at omega = omega_dot, so zeros stand in.
    """
    omega_dot = ParameterVector(0.0, np.zeros(ds.p_b), theta_dot[0],
                                np.zeros(ds.p_w), theta_dot[1])
    J = expected_score_jacobian(ds, stats, omega_dot, omega_dot).matrix
    k = NormalizationK.from_counts(stats.g, stats.n, ds.p_b, ds.p_w).sqrt
    return -J / np.outer(k, k)


# ---------------------------------------------------------------------------
# influence functions
# ---------------------------------------------------------------------------

def influence(point: InfluencePoint, limits: CovariateLimits,
              theta_dot) -> np.ndarray:
    """Influence of a single observation on the normalized estimator.

    Returns the vector (lam_beta0, lam_beta1, lam_sigma_alpha_sq, lam_beta2,
    lam_sigma_e_sq): the cluster-effect terms scaled by the between design,
    the squared-effect deviations for the variances, and C3^-1 times the
    centered within covariate times the residual for beta2.  Averages to
    zero under the truth.
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    d, d1, D2 = _between_pieces(limits)
    lam_beta0 = (d + float(d1 @ point.x_b)) * point.alpha
    lam_beta1 = (d1 + D2 @ point.x_b) * point.alpha
    lam_sa = point.alpha**2 - sa
    if limits.p_w:
        lam_beta2 = np.linalg.solve(limits.C3, point.x_w_dev) * point.e
    else:
        lam_beta2 = np.empty(0)
    lam_se = point.e**2 - se
    return np.concatenate(([lam_beta0], lam_beta1, [lam_sa],
                           lam_beta2, [lam_se]))


# ---------------------------------------------------------------------------
# plug-in moments and confidence intervals
# ---------------------------------------------------------------------------

def estimate_moments(ds: ClusteredDataset, stats: SufficientStats,
                     fit: FitResult) -> MomentEstimates:
    """Plug-in moment estimates from fit residuals.

    Cluster-level: empirical third/fourth moments of the cluster-mean
    residuals ybar_i - z_i' beta_hat.  Observation-level: moments of the
    within-centered residuals (y_ij - ybar_i) - (x_w_ij - xbar_w_i)' beta2_hat,
    averaged over all n observations.
    """
    om = fit.omega_hat
    rb = stats.ybar - stats.Z @ om.beta
    mu3_a = float(np.mean(rb**3))
    mu4_a = float(np.mean(rb**4))
    dy = (ds.y - np.repeat(stats.ybar, stats.m)) \
        - (ds.x_w - np.repeat(stats.xbar_w, stats.m, axis=0)) @ om.beta2
    dy2 = dy * dy
    return MomentEstimates(mu3_alpha=mu3_a, mu4_alpha=mu4_a,
                           mu3_e=float(dy2 @ dy) / stats.n,
                           mu4_e=float(dy2 @ dy2) / stats.n)


@dataclass(frozen=True)
class ConfidenceInterval:
    """One two-sided interval with provenance and degeneracy flags."""

    name: str
    estimate: float
    lower: float
    upper: float
    level: float
    source: str          # "standard" for the core intervals, "extension" else
    degenerate: bool = False

    def contains(self, value: float) -> bool:
        return bool(self.lower <= value <= self.upper)


def _log_scale_interval(name, var_hat, mu4_hat, count, z, level, source):
    """Variance interval built on the log-sd scale and squared back."""
    spread = mu4_hat - var_hat * var_hat
    if spread <= 0.0:
        return ConfidenceInterval(name, var_hat, var_hat, var_hat,
                                  level, source, degenerate=True)
    half = z * math.sqrt(spread) / (2.0 * math.sqrt(count) * var_hat)
    # A floor-pinned variance makes half astronomically large; the honest
    # limit of the back-transform is then (0, inf), not an overflow.
    lo = var_hat * math.exp(-2.0 * half)
    hi = var_hat * math.exp(2.0 * half) if 2.0 * half < 700.0 else math.inf
    return ConfidenceInterval(name, var_hat, lo, hi, level, source)


def confidence_intervals(fit: FitResult, limits: CovariateLimits,
                         moments: MomentEstimates,
                         gamma: float) -> list[ConfidenceInterval]:
    """Two-sided 100(1-gamma)% intervals for every model parameter.

    Coefficient intervals are Wald intervals using the relevant diagonal of
    the sandwich covariance with plug-in pieces; variance intervals use the
    log-sd scale and are squared back, so they stay positive.  The beta1,
    beta2 and sigma_alpha_sq constructions are the core ones; beta0 and
    sigma_e_sq follow by the same logic and are tagged "extension".

    Args:
        fit: fitted model (either method).
        limits: finite-sample covariate limits, usually
            ``CovariateLimits.from_dataset``.
        moments: plug-in moment estimates from :func:`estimate_moments`.
        gamma: two-sided miscoverage, in (0, 1).

    Returns:
        Intervals in canonical parameter order; degenerate
        variance-of-variance cases come back flagged with zero width.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidConfig(f"gamma must lie in (0, 1), got {gamma!r}")
    om = fit.omega_hat
    z = normal_quantile(1.0 - gamma / 2.0)
    level = 1.0 - gamma
    g, n = fit.g, fit.n
    sd_alpha = math.sqrt(om.sigma_alpha_sq)
    sd_e = math.sqrt(om.sigma_e_sq)
    d, d1, D2 = _between_pieces(limits)
    out: list[ConfidenceInterval] = []

    half = z * sd_alpha * math.sqrt(d) / math.sqrt(g)
    out.append(ConfidenceInterval("beta0", om.beta0, om.beta0 - half,
                                  om.beta0 + half, level, "extension"))
    for k in range(om.p_b):
        half = z * sd_alpha * math.sqrt(D2[k, k]) / math.sqrt(g)
        est = float(om.beta1[k])
        out.append(ConfidenceInterval(f"beta1[{k}]", est, est - half,
                                      est + half, level, "standard"))
    out.append(_log_scale_interval("sigma_alpha_sq", om.sigma_alpha_sq,
                                   moments.mu4_alpha, g, z, level, "standard"))
    if om.p_w:
        C3_inv = np.linalg.inv(limits.C3)
        for r in range(om.p_w):
            half = z * sd_e * math.sqrt(C3_inv[r, r]) / math.sqrt(n)
            est = float(om.beta2[r])
            out.append(ConfidenceInterval(f"beta2[{r}]", est, est - half,
                                          est + half, level, "standard"))
    out.append(_log_scale_interval("sigma_e_sq", om.sigma_e_sq,
                                   moments.mu4_e, n, z, level, "extension"))
    return out
