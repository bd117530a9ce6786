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

Every function here takes a stack of rows, one per (dataset, fit), along
a leading axis; a row's numbers never depend on the other rows.
:func:`intervals` is the one interval function: it checks what a stack
shares (gamma, the cluster layout, the fits' shape) once, then computes
covariate limits, plug-in moments, C and the intervals for all rows at
once, with the stack's one K and one z.

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
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateBetweenDesign,
    InvalidConfig,
    NermError,
    NonFiniteValue,
    NotPositiveDefinite,
    RaggedCovariates,
)
from .estimation import FitResult
from .model import (
    ClusteredDataset,
    _one_layout,
    _rowwise,
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
    "matrix_C",
    "estimate_moments",
    "intervals",
]


def _two_sided_z(gamma: float) -> float:
    """The quantile z of 1 - gamma/2 for a two-sided miscoverage gamma, or
    InvalidConfig naming gamma unless 0.5 < 1 - gamma/2 < 1 in double
    precision, which fails outside (0, 1) and within 1.1e-16 of an end."""
    if not 0.5 < 1.0 - gamma / 2.0 < 1.0:
        raise InvalidConfig(f"gamma must lie in (0, 1), with 1 - gamma/2 below 1 "
                            f"in double precision; got {gamma!r}")
    return statistics.NormalDist().inv_cdf(1.0 - gamma / 2.0)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def normalization(g: int, n: int, p_b: int, p_w: int) -> np.ndarray:
    """Diagonal of the normalization K = diag(g, g 1_pb, g, n 1_pw, n)."""
    return assemble(p_b, p_w, g, g, g, n, n)


def _check_spd(mat: np.ndarray, what: str) -> None:
    """Raises unless every matrix of the stack ``mat`` is symmetric
    positive definite."""
    if mat.size == 0:
        return
    flip = np.swapaxes(mat, -1, -2)
    if not np.allclose(mat, flip, rtol=1e-10, atol=1e-12):
        raise NotPositiveDefinite(f"{what} is not symmetric")
    if np.any(np.linalg.eigvalsh(0.5 * (mat + flip))[..., 0] <= 0.0):
        raise NotPositiveDefinite(f"{what} is not positive definite")


@dataclass(frozen=True)
class CovariateLimits:
    """Covariate limit quantities: c1, C2 (between), C3 (within).

    Either exact limits of a covariate law or the finite-sample versions
    c1 = g^-1 sum x_b_i, C2 = g^-1 sum x_b_i x_b_i', C3 = S_w_x / n.  A
    stack of rows carries a leading axis on all three.
    """

    c1: np.ndarray       # (..., p_b)
    C2: np.ndarray       # (..., p_b, p_b)
    C3: np.ndarray       # (..., p_w, p_w)

    def __post_init__(self) -> None:
        c1 = np.array(self.c1, dtype=float, ndmin=1)
        C2 = np.array(self.C2, dtype=float).reshape(c1.shape + c1.shape[-1:])
        C3 = np.array(self.C3, dtype=float, ndmin=2)
        if C3.size == 0:
            C3 = np.empty(C3.shape[:-2] + (0, 0))
        _check_spd(C2, "between second-moment matrix C2")
        _check_spd(C3, "within covariance matrix C3")
        for a in (c1, C2, C3):
            a.setflags(write=False)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "C2", C2)
        object.__setattr__(self, "C3", C3)

    @property
    def p_b(self) -> int:
        return self.c1.shape[-1]

    @property
    def p_w(self) -> int:
        return self.C3.shape[-1]

    @classmethod
    def from_datasets(cls, datasets: Sequence[ClusteredDataset]) -> "CovariateLimits":
        """The finite-sample limits of datasets of one shape, one row each."""
        Xb = np.stack([ds.x_b for ds in datasets])
        first = datasets[0]
        return cls(c1=Xb.mean(axis=1), C2=np.swapaxes(Xb, 1, 2) @ Xb / first.g,
                   C3=np.stack([sufficient_stats(ds).S_w_x for ds in datasets]) / first.n)


@dataclass(frozen=True)
class MomentEstimates:
    """Plug-in third/fourth moments of the cluster effects and fourth
    moment of the residuals: the moments C reads.  No E e^3 enters, since
    the within covariates are cluster-centred.

    The moments are in units of ``unit`` for a variance: a third moment in
    units of unit^1.5, a fourth in units of unit^2; 1 is the data's own.
    Each field is a float for one row, or an array for a stack of rows.
    """

    mu3_alpha: float
    mu4_alpha: float
    mu4_e: float
    unit: float = 1.0

    def __post_init__(self) -> None:
        vals = [np.array(v, dtype=float) for v in
                (self.mu3_alpha, self.mu4_alpha, self.mu4_e, self.unit)]
        if not all(np.all(np.isfinite(v)) for v in vals) or np.any(vals[3] <= 0.0):
            raise NonFiniteValue("moment estimates must be finite")
        for name, v in zip(("mu3_alpha", "mu4_alpha", "mu4_e", "unit"), vals):
            v.setflags(write=False)
            object.__setattr__(self, name, float(v) if v.ndim == 0 else v)


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
    of ``moments.unit``, and so is C.  For a stack of rows, ``theta_dot``
    is (rows, 2) and C is (rows, dim, dim).
    """
    theta = np.asarray(theta_dot, dtype=float)
    sa, se = theta[..., 0], theta[..., 1]
    dim, i0, i1, ia, i2, ie = parameter_layout(limits.p_b, limits.p_w)
    c1, C2 = limits.c1, limits.C2
    C2_inv_c1 = np.linalg.solve(C2, c1[..., None])[..., 0]
    s = 1.0 - np.vecdot(c1, C2_inv_c1)
    if np.any(s <= 0.0):
        raise DegenerateBetweenDesign(
            "between design is degenerate: 1 - c1' C2^-1 c1 <= 0"
        )
    d = 1.0 / s
    d1 = -C2_inv_c1 / s[..., None]
    D2 = np.linalg.inv(C2) \
        + C2_inv_c1[..., :, None] * C2_inv_c1[..., None, :] / s[..., None, None]
    C = np.zeros(sa.shape + (dim, dim))
    C[..., i0, i0] = sa * d
    C[..., i0, i1] = sa[..., None] * d1
    C[..., i1, i0] = sa[..., None] * d1
    C[..., i1, i1] = sa[..., None, None] * D2
    C[..., i0, ia] = C[..., ia, i0] = moments.mu3_alpha
    C[..., ia, ia] = moments.mu4_alpha - sa * sa
    if limits.p_w:
        C[..., i2, i2] = se[..., None, None] * np.linalg.inv(limits.C3)
    C[..., ie, ie] = moments.mu4_e - se * se
    return C


# ---------------------------------------------------------------------------
# plug-in moments and confidence intervals
# ---------------------------------------------------------------------------

def estimate_moments(datasets: Sequence[ClusteredDataset],
                     fits: Sequence[FitResult]) -> MomentEstimates:
    """Plug-in moment estimates from fit residuals, one row per (dataset,
    fit); the datasets share their cluster layout.

    Cluster-level: empirical third/fourth moments of the cluster-mean
    residuals ybar_i - z_i' beta_hat.  Observation-level: fourth moment of
    the within-centered residuals (y_ij - ybar_i) - (x_w_ij - xbar_w_i)' beta2_hat,
    averaged over all n observations.  They are formed in units of the
    fitted standard deviation, so they stay finite doubles at any scale of
    y: the unit is a power of 4 within a factor 2 of the fitted
    sigma_e_sq, so that every rescaling by it is exact.
    """
    stats = [sufficient_stats(ds) for ds in datasets]
    first = stats[0]
    dim, i0, i1, ia, i2, ie = parameter_layout(first.p_b, first.p_w)
    pos = np.arange(dim)
    om = np.stack([fit.omega_hat.flatten() for fit in fits])
    beta, beta2 = om[:, np.r_[i0, pos[i1], pos[i2]]], om[:, i2]
    sd = np.ldexp(1.0, np.frexp(om[:, ie])[1] // 2)[:, None]   # unit = sd^2
    ybar = np.stack([s.ybar for s in stats])
    m = first.m
    # an overflow leaves a non-finite moment, which MomentEstimates rejects
    with np.errstate(over="ignore", invalid="ignore"):
        rb = (ybar - np.matvec(np.stack([s.Z for s in stats]), beta)) / sd
        dy = np.stack([ds.y for ds in datasets])
        dy -= np.repeat(ybar, m, axis=1)
        dx = np.stack([ds.x_w for ds in datasets])
        dx -= np.repeat(np.stack([s.xbar_w for s in stats]), m, axis=1)
        dy -= np.matvec(dx, beta2)
        del dx
        dy /= sd
        dy *= dy
        return MomentEstimates(mu3_alpha=np.mean(rb**3, axis=1),
                               mu4_alpha=np.mean(rb**4, axis=1),
                               mu4_e=np.vecdot(dy, dy) / first.n, unit=sd[:, 0] ** 2)


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


# libm's exp, one value at a time: numpy's vector exp differs from it in the
# last bit for about 5% of arguments, which would move printed endpoints
_exp = np.vectorize(math.exp, otypes=[float])


def _interval_rows(fits: Sequence[FitResult], limits: CovariateLimits,
                   moments: MomentEstimates, K: np.ndarray, z: float,
                   level: float) -> list[list[ConfidenceInterval]]:
    """The intervals of every fit by the one rule of the module docstring
    over v = diag(C) / K, with C from :func:`matrix_C` at the fitted
    variances, the stack's limits and moments (one row per fit), the
    stack's diagonal ``K`` and the quantile ``z`` of ``level``.

    Per fit, the intervals in canonical parameter order, beta0 and
    sigma_e_sq tagged "extension"; a variance whose diagonal of C is not
    positive comes back flagged with zero width.
    """
    est = np.stack([fit.omega_hat.flatten() for fit in fits])
    _, i0, _, ia, _, ie = parameter_layout(limits.p_b, limits.p_w)
    u = np.asarray(moments.unit)[..., None]   # C and v in the moments' units
    theta = np.array([fit.omega_hat.theta for fit in fits])
    C = matrix_C(limits, theta / u, moments)
    v = np.diagonal(C, axis1=1, axis2=2) / K
    var = [ia, ie]
    flat = np.diagonal(C, axis1=1, axis2=2)[:, var] <= 0.0
    v[:, var] = np.where(flat, 0.0, v[:, var])
    half = z * np.sqrt(v * u)
    lower, upper = est - half, est + half
    # a variance: est exp(-+ x); a floor-pinned one makes x astronomically
    # large, and the honest limit is then (0, inf), not an overflow
    x = z * np.sqrt(v[:, var]) / (est[:, var] / u)
    with np.errstate(over="ignore"):   # an end past the largest double is inf
        wide = est[:, var] * _exp(np.minimum(x, 700.0))
    lower[:, var] = np.where(flat, est[:, var], est[:, var] * _exp(-x))
    upper[:, var] = np.where(flat, est[:, var], np.where(x < 700.0, wide, math.inf))
    names = parameter_names(limits.p_b, limits.p_w)
    source = ["extension" if k in (i0, ie) else "standard" for k in range(len(names))]
    degenerate = np.zeros(est.shape, dtype=bool)
    degenerate[:, var] = flat
    return [[ConfidenceInterval(*cell, level, tag, bad) for cell, tag, bad in
             zip(zip(names, *rows), source, flags)]
            for *rows, flags in zip(est.tolist(), lower.tolist(), upper.tolist(),
                                    degenerate.tolist())]


def intervals(datasets: Sequence[ClusteredDataset], fits: Sequence[FitResult],
              gamma: float) -> list:
    """Two-sided 100(1-gamma)% intervals for every model parameter of every
    (dataset, fit) pair, computed for all pairs at once from each dataset's
    own covariate limits and plug-in moments.

    Returns, per pair, its intervals in canonical parameter order, or the
    NermError that its limits, moments or intervals raise; a failure fails
    only its own pair.  What the whole stack shares is checked first,
    before any limit or moment is computed: InvalidConfig unless gamma
    lies in (0, 1), and RaggedCovariates when the datasets differ in their
    cluster layout or in number from the fits, or a fit's g, n, p_b or p_w
    differ from the datasets'.
    """
    z = _two_sided_z(gamma)
    _one_layout(datasets)
    if len(datasets) != len(fits):
        raise RaggedCovariates(f"{len(datasets)} datasets, {len(fits)} fits")
    if not datasets:
        return []
    shape = (datasets[0].g, datasets[0].n, datasets[0].p_b, datasets[0].p_w)
    if any((fit.g, fit.n, fit.omega_hat.p_b, fit.omega_hat.p_w) != shape for fit in fits):
        raise RaggedCovariates(f"every fit must be of a dataset with (g, n, p_b, p_w) "
                               f"= {shape}, as the datasets are")
    K = normalization(*shape)
    def stack(pairs):
        ds, fs = zip(*pairs)
        return _interval_rows(fs, CovariateLimits.from_datasets(ds),
                              estimate_moments(ds, fs), K, z, 1.0 - gamma)
    return _rowwise(stack, list(zip(datasets, fits)), NermError)
