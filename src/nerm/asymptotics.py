"""Increasing-cluster-size asymptotics: the limit covariance and
moment-based confidence intervals.

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
sigma_alpha_sq.  Only C's closed form (:func:`matrix_C`) is built here;
the test suite builds A and B separately and checks the product.

Intervals follow one rule over v = diag(C) / K, with C evaluated at the
fitted variances and plug-in moment estimates: a coefficient gets
est +- z sqrt(v), a variance gets est exp(-+ z sqrt(v) / est), the Wald
interval for the log standard deviation squared back, so its endpoints stay
positive.  The beta0 and sigma_e_sq intervals extend the paper's
construction and are tagged as such.  A plug-in fourth moment at or below
the squared variance estimate makes the variance's diagonal of C
non-positive; that interval collapses to zero width at the point estimate
and is flagged instead.
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
    RaggedCovariates,
)
from .estimation import FitResult
from .model import (
    ClusteredDataset,
    assemble,
    parameter_layout,
    parameter_names,
    sufficient_stats,
)

__all__ = [
    "normalization",
    "CovariateLimits",
    "MomentEstimates",
    "ConfidenceInterval",
    "normal_quantile",
    "matrix_C",
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

def normalization(g: int, n: int, p_b: int, p_w: int) -> np.ndarray:
    """Diagonal of the normalization K = diag(g, g 1_pb, g, n 1_pw, n)."""
    return assemble(p_b, p_w, g, g, g, n, n)


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
    def from_dataset(cls, ds: ClusteredDataset) -> "CovariateLimits":
        Xb = ds.x_b
        return cls(c1=Xb.mean(axis=0), C2=Xb.T @ Xb / ds.g,
                   C3=sufficient_stats(ds).S_w_x / ds.n)


@dataclass(frozen=True)
class MomentEstimates:
    """Plug-in third/fourth moments of the cluster effects and fourth
    moment of the residuals: the moments C reads.  No E e^3 enters, since
    the within covariates are cluster-centred.

    The moments are in units of ``unit`` for a variance: a third moment in
    units of unit^1.5, a fourth in units of unit^2; 1 is the data's own.
    """

    mu3_alpha: float
    mu4_alpha: float
    mu4_e: float
    unit: float = 1.0

    def __post_init__(self) -> None:
        vals = (self.mu3_alpha, self.mu4_alpha, self.mu4_e, self.unit)
        if not all(np.isfinite(v) for v in vals) or self.unit <= 0.0:
            raise NonFiniteValue("moment estimates must be finite")
        for name in ("mu3_alpha", "mu4_alpha", "mu4_e", "unit"):
            object.__setattr__(self, name, float(getattr(self, name)))


# ---------------------------------------------------------------------------
# the limit covariance
# ---------------------------------------------------------------------------

def matrix_C(limits: CovariateLimits, theta_dot,
             moments: MomentEstimates) -> np.ndarray:
    """Sandwich covariance B^-1 A B^-1 in closed form.

    sigma_alpha_sq [[d, d1'],[d1, D2]] over (beta0, beta1), the inverse of
    [[1, c1'], [c1, C2]] taken by blocks, with an E alpha^3 coupling
    between beta0 and sigma_alpha_sq, E alpha^4 - sigma_alpha_sq^2 for
    sigma_alpha_sq, sigma_e_sq C3^-1 for beta2 and E e^4 - sigma_e_sq^2
    for sigma_e_sq; all other cells vanish.  ``theta_dot`` is in the units
    of ``moments.unit``, and so is C.
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    dim, i0, i1, ia, i2, ie = parameter_layout(limits.p_b, limits.p_w)
    c1, C2 = limits.c1, limits.C2
    C2_inv_c1 = np.linalg.solve(C2, c1)
    s = 1.0 - float(c1 @ C2_inv_c1)
    if s <= 0.0:
        raise DegenerateBetweenDesign(
            "between design is degenerate: 1 - c1' C2^-1 c1 <= 0"
        )
    d = 1.0 / s
    d1 = -C2_inv_c1 / s
    D2 = np.linalg.inv(C2) + np.outer(C2_inv_c1, C2_inv_c1) / s
    C = np.zeros((dim, dim))
    C[i0, i0] = sa * d
    C[i0, i1] = sa * d1
    C[i1, i0] = sa * d1
    C[i1, i1] = sa * D2
    C[i0, ia] = C[ia, i0] = moments.mu3_alpha
    C[ia, ia] = moments.mu4_alpha - sa * sa
    if limits.p_w:
        C[i2, i2] = se * np.linalg.inv(limits.C3)
    C[ie, ie] = moments.mu4_e - se * se
    return C


# ---------------------------------------------------------------------------
# plug-in moments and confidence intervals
# ---------------------------------------------------------------------------

def estimate_moments(ds: ClusteredDataset, fit: FitResult) -> MomentEstimates:
    """Plug-in moment estimates from fit residuals.

    Cluster-level: empirical third/fourth moments of the cluster-mean
    residuals ybar_i - z_i' beta_hat.  Observation-level: fourth moment of
    the within-centered residuals (y_ij - ybar_i) - (x_w_ij - xbar_w_i)' beta2_hat,
    averaged over all n observations.  They are formed in units of the
    fitted standard deviation, so they stay finite doubles at any scale of
    y: the unit is a power of 4 within a factor 2 of the fitted
    sigma_e_sq, so that every rescaling by it is exact.
    """
    om = fit.omega_hat
    stats = sufficient_stats(ds)
    e = math.frexp(om.sigma_e_sq)[1]
    sd = math.ldexp(1.0, e // 2)   # unit = sd^2 = 4^(e // 2)
    rb = (stats.ybar - stats.Z @ om.beta) / sd
    dy = ((ds.y - np.repeat(stats.ybar, stats.m))
          - (ds.x_w - np.repeat(stats.xbar_w, stats.m, axis=0)) @ om.beta2) / sd
    dy2 = dy * dy
    return MomentEstimates(mu3_alpha=float(np.mean(rb**3)),
                           mu4_alpha=float(np.mean(rb**4)),
                           mu4_e=float(dy2 @ dy2) / stats.n, unit=sd * sd)


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


def confidence_intervals(fit: FitResult, limits: CovariateLimits,
                         moments: MomentEstimates,
                         gamma: float) -> list[ConfidenceInterval]:
    """Two-sided 100(1-gamma)% intervals for every model parameter, all
    by the one rule of the module docstring over v = diag(C) / K, with C
    from :func:`matrix_C` at the fitted variances.

    Args:
        fit: fitted model (either method).
        limits: finite-sample covariate limits, usually
            ``CovariateLimits.from_dataset``.
        moments: plug-in moment estimates from :func:`estimate_moments`.
        gamma: two-sided miscoverage, in (0, 1).

    Returns:
        Intervals in canonical parameter order, beta0 and sigma_e_sq tagged
        "extension"; a variance whose diagonal of C is not positive comes
        back flagged with zero width.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidConfig(f"gamma must lie in (0, 1), got {gamma!r}")
    om = fit.omega_hat
    if (limits.p_b, limits.p_w) != (om.p_b, om.p_w):
        raise RaggedCovariates(f"limits have (p_b, p_w) = ({limits.p_b}, "
                               f"{limits.p_w}), the fit ({om.p_b}, {om.p_w})")
    z = normal_quantile(1.0 - gamma / 2.0)
    level = 1.0 - gamma
    u = moments.unit   # C and v in the moments' units, the endpoints in the data's
    C = matrix_C(limits, (om.sigma_alpha_sq / u, om.sigma_e_sq / u), moments)
    v = np.diag(C) / normalization(fit.g, fit.n, om.p_b, om.p_w)
    _, i0, _, ia, _, ie = parameter_layout(om.p_b, om.p_w)
    out: list[ConfidenceInterval] = []
    for k, (name, est) in enumerate(zip(parameter_names(om.p_b, om.p_w),
                                        om.flatten().tolist())):
        source = "extension" if k in (i0, ie) else "standard"
        if k not in (ia, ie):
            half = z * math.sqrt(v[k] * u)
            out.append(ConfidenceInterval(name, est, est - half, est + half,
                                          level, source))
        elif C[k, k] <= 0.0:
            out.append(ConfidenceInterval(name, est, est, est, level, source,
                                          degenerate=True))
        else:
            # A floor-pinned variance makes the exponent astronomically
            # large; the honest limit is then (0, inf), not an overflow.
            x = z * math.sqrt(v[k]) / (est / u)
            hi = est * math.exp(x) if x < 700.0 else math.inf
            out.append(ConfidenceInterval(name, est, est * math.exp(-x), hi,
                                          level, source))
    return out
