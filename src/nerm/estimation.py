"""ML and REML fitting as a bounded scalar search in the variance ratio.

Write gamma = sigma_alpha_sq / sigma_e_sq and w_i = m_i / (1 + m_i gamma),
so tau_i = w_i / sigma_e_sq.  For fixed gamma the log-likelihood is

    l = (1/2) sum_i log w_i - (n/2) log sigma_e_sq - RSS / (2 sigma_e_sq),
    RSS(beta, gamma) = Q(beta2) + sum_i w_i r_i^2,

so the stacked coefficients beta = (beta0, beta1, beta2) come from the
normal equations

    M(gamma) beta = Z' diag(w) ybar + w,   M(gamma) = Z' diag(w) Z + W,

which do not involve sigma_e_sq (z_i = (1, x_b_i, xbar_w_i), w = (0, 0,
S_w_xy), W the block diagonal matrix holding S_w_x in the within corner),
and sigma_e_sq = RSS / df in closed form, with df = n for ML.  REML
maximizes the restricted objective

    l_R(theta) = l(beta_hat(theta), theta) - (1/2) log det Delta(theta),

Delta = M / sigma_e_sq, which profiles the same way with df = n - q and an
extra -(1/2) log det M.  What is left is a function of gamma >= 0 alone,
with the closed-form derivative

    -(1/2) sum_i w_i + (df/2) sum_i w_i^2 r_i^2 / RSS
        [+ (1/2) tr{M^-1 Z' diag(w^2) Z} for REML].

This is the profiled deviance of lme4 (Bates, Maechler, Bolker & Walker,
J. Stat. Softw. 67(1), 2015).  w_i depends on m_i alone, so each sum over
clusters is a sum over the K distinct sizes: with A_k = [Z_k | ybar_k]
the between rows of the clusters of size m_k and R_k its QR factor,

    M(gamma) = sum_k w_k Z_k' Z_k + W,
    sum_i w_i r_i^2 = sum_k w_k ||R_k (-beta; 1)||^2,

and likewise with w_k^2 for the slope.  An evaluation costs O(K), not
O(g).  A fixed log-spaced scan of gamma guards against a second mode; its
18 points are one stacked evaluation.  A bracketed false-position solve
(Illinois variant) finds each root of the derivative the scan brackets.
gamma = 0 is the only boundary: when the derivative there is <= 0 the fit
is reported with ``boundary_flag`` and sigma_alpha_sq = FLOOR * sigma_e_sq.
The other way to leave the interior, sigma_e_sq -> 0, happens only when the
pooled within residual Q_min is zero to rounding; that is decided before
the search and answered in closed form, again with ``boundary_flag``.
Collinearity of the design does not depend on gamma, so ``SingularDelta``
is decided once per dataset, by whether M(0) factors
(``SufficientStats.collinear``), and raised at every gamma alike.
The per-size sums, S_w_xy and S_w_x come from the dataset's shared
``SufficientStats``; ``_solve`` alone forms and factors M(gamma), for a
vector of gamma at once: the scan, each point of the root solve, and any
given theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateWithinDesign, EmptyDataset, SingularDelta
from .likelihood import log_likelihood, score
from .model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    parameter_layout,
    sufficient_stats,
    tau,
)

__all__ = [
    "FitResult",
    "profile_beta",
    "adjusted_score",
    "fit_ml",
    "fit_reml",
]

FLOOR = 1e-8   # ratio of a vanished variance to the other one, as reported
_SCAN = np.concatenate(([0.0], FLOOR * 10.0 ** np.arange(17)))  # up to 1e8
_GAMMA_TOL = 1e-12   # relative width of a solved bracket


# ---------------------------------------------------------------------------
# the profiled normal equations
# ---------------------------------------------------------------------------

_COLLINEAR = ("profiled normal equations are singular; the intercept-plus-"
              "covariate design is collinear")


def _factor_solve(M: np.ndarray, b: np.ndarray):
    """(L, M^-1 b) with M = L L'; SingularDelta when either step finds M
    singular."""
    try:
        return np.linalg.cholesky(M), np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDelta(_COLLINEAR) from exc


class _Point(NamedTuple):
    """The profiled problem at gamma: one value per field, or one row per
    gamma of a vector."""
    gamma: float
    value: float      # profiled objective, up to a constant
    slope: float      # its derivative in gamma
    beta: np.ndarray
    sigma_e_sq: float
    L: np.ndarray     # M(gamma) = L L'
    trace: float      # tr{M^-1 Z' diag(w^2) Z} for REML, 0 for ML

    def row(self, i: int) -> _Point:
        return _Point(*(field[i] for field in self))


def _solve(stats: SufficientStats, gamma, reml: bool = False) -> _Point:
    """The one place that forms and factors M(gamma) and solves the normal
    equations, at every gamma of a vector in one stacked call; returns the
    coefficients, sigma_e_sq, objective and slope per gamma, as rows.

    Every sum over clusters is a sum over the K distinct sizes of
    ``stats``: M and the right-hand side from the per-size cross products,
    the residual sums from the per-size QR factors.  So an evaluation costs
    O(K), and no (S, g) array is formed.
    """
    if stats.collinear:
        raise SingularDelta(_COLLINEAR)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    q, k = stats.Z.shape[1], 1 + stats.p_b
    size, G = stats.sizes, stats.G.reshape(stats.sizes.size, -1)
    w = size / (1.0 + gamma[:, None] * size)               # (S, K)
    A = (w @ G).reshape(-1, q + 1, q + 1)    # sum_k w_k A_k' A_k
    M, rhs = A[:, :q, :q], A[:, :q, q:]
    M[:, k:, k:] += stats.S_w_x
    rhs[:, k:, 0] += stats.S_w_xy
    if reml:   # M^-1 (rhs | Z' diag(w^2) Z) in one solve
        H = ((w * w) @ G).reshape(-1, q + 1, q + 1)[:, :q, :q]
        rhs = np.concatenate((rhs, H), axis=2)
    L, x = _factor_solve(M, rhs)
    beta = x[:, :, 0]
    trace = np.trace(x[:, :, 1:], axis1=1, axis2=2)   # 0 for ML: no H
    # ||R_k (-beta; 1)||^2: the residual sum of squares of size k's means
    Rt = np.swapaxes(stats.R, 1, 2)
    e2 = ((Rt[:, q, None] - beta @ Rt[:, :q]) ** 2).sum(axis=2).T   # (S, K)
    b2 = beta[:, k:]
    rss = stats.S_w_y - 2.0 * (b2 @ stats.S_w_xy) \
        + ((b2 @ stats.S_w_x) * b2).sum(axis=1) + (w * e2).sum(axis=1)
    df = stats.n - (q if reml else 0)
    value = 0.5 * (np.log(w) @ stats.counts) - 0.5 * df * np.log(rss / df)
    slope = -0.5 * (w @ stats.counts) + 0.5 * df * (w * w * e2).sum(axis=1) / rss
    if reml:
        value = value - np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        slope = slope + 0.5 * trace
    return _Point(gamma, value, slope, beta, rss / df, L, trace)


def _at_theta(stats: SufficientStats, theta, reml: bool = False) -> _Point:
    """:func:`_solve` at gamma = sigma_alpha_sq / sigma_e_sq."""
    tau(theta, 1.0)   # NonPositiveVariance unless both are finite and > 0
    return _solve(stats, float(theta[0]) / float(theta[1]), reml).row(0)


def profile_beta(stats: SufficientStats, theta):
    """Closed-form coefficient profile at fixed variance components.

    Args:
        stats: sufficient statistics of the dataset.
        theta: (sigma_alpha_sq, sigma_e_sq), both > 0.

    Returns:
        (beta_hat, Delta): the maximizing stacked coefficients
        (beta0, beta1, beta2) and the normal-equation matrix.

    Raises:
        NonPositiveVariance: a variance is not finite and > 0.
        SingularDelta: collinear design.
    """
    p = _at_theta(stats, theta)
    return p.beta, (p.L @ p.L.T) / float(theta[1])


def _omega_at(stats: SufficientStats, beta: np.ndarray, theta) -> ParameterVector:
    k = 1 + stats.p_b
    return ParameterVector(beta[0], beta[1:k], theta[0], beta[k:], theta[1])


def adjusted_score(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """REML estimating function: the score with trace-corrected variance entries.

    The coefficient entries coincide with the plain score; the variance
    entries subtract (1/2) tr{Delta^-1 dDelta/dtheta_k}, with
    dDelta/dsigma_alpha_sq = -Z' diag(tau^2) Z and dDelta/dsigma_e_sq =
    -Z' diag(tau^2/m) Z - W/sigma_e_sq^2 (W holds S_w_x in the within
    corner).  Its root is the REML estimator, and its variance entries
    evaluated at the profiled coefficients are the gradient of the
    restricted objective l(beta_hat(theta), theta) - (1/2) log det Delta.

    With tau_i = w_i / sigma_e_sq and w_i^2 / m_i = w_i - gamma w_i^2, the
    two traces are -T / sigma_e_sq and -(q - gamma T) / sigma_e_sq, where
    T = tr{M^-1 Z' diag(w^2) Z} is the REML term of the profiled slope.
    """
    se = omega.sigma_e_sq
    p = _at_theta(stats, omega.theta, reml=True)
    out = score(stats, omega)
    _, _, _, ia, _, ie = parameter_layout(stats.p_b, stats.p_w)
    out[ia] += 0.5 * p.trace / se
    out[ie] += 0.5 * (stats.Z.shape[1] - p.gamma * p.trace) / se
    return out


# ---------------------------------------------------------------------------
# the scalar problem in gamma
# ---------------------------------------------------------------------------

def _root(at, lo: _Point, hi: _Point) -> _Point:
    """Root of the slope in [lo, hi], lo.slope > 0 >= hi.slope, by Illinois
    false position; returns the positive end point with the smaller |slope|."""
    f_lo, f_hi, kept = lo.slope, hi.slope, 0
    for _ in range(100):
        if hi.slope == 0.0 or hi.gamma - lo.gamma <= _GAMMA_TOL * hi.gamma:
            break
        c = (lo.gamma * f_hi - hi.gamma * f_lo) / (f_hi - f_lo)
        if not lo.gamma < c < hi.gamma:
            c = 0.5 * (lo.gamma + hi.gamma)
        p = at(c).row(0)
        if p.slope > 0.0:
            lo, f_lo = p, p.slope
            f_hi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            hi, f_hi = p, p.slope
            f_lo *= 0.5 if kept == -1 else 1.0
            kept = -1
    return lo if lo.gamma > 0.0 and lo.slope < -hi.slope else hi


def _search(at):
    """Best local maximum of the profiled objective over gamma >= 0.

    Returns (point, at_boundary).  The scan, one stacked evaluation,
    starts at gamma = 0 and FLOOR and runs in decades; it goes on past 1e8
    one point at a time while the slope is positive.
    """
    scan = at(_SCAN)
    pts = [scan.row(i) for i in range(_SCAN.size)]
    for _ in range(40):
        if pts[-1].slope <= 0.0:
            break
        pts.append(at(10.0 * pts[-1].gamma).row(0))
    # gamma = 0 wins the KKT check when the slope there is <= 0; it is
    # reported at gamma = FLOOR, the second scan point.
    candidates = [(pts[1], True)] if pts[0].slope <= 0.0 else []
    candidates += [(_root(at, a, b), False) for a, b in zip(pts, pts[1:])
                   if a.slope > 0.0 >= b.slope]
    if not candidates:   # slope still positive far past any sane gamma
        candidates = [(pts[-1], False)]
    return max(candidates, key=lambda c: c[0].value)


def _collapsed(ds: ClusteredDataset, beta2: np.ndarray,
               reml: bool) -> ParameterVector:
    """Closed-form fit when the within residual vanishes: beta2 from the
    within equations, (beta0, beta1) by OLS on the adjusted cluster means,
    sigma_alpha_sq from their residuals and sigma_e_sq = FLOOR * that."""
    stats = sufficient_stats(ds)
    Xb = stats.Z[:, :1 + stats.p_b]
    target = stats.ybar - stats.xbar_w @ beta2
    coef, *_ = np.linalg.lstsq(Xb, target, rcond=None)
    resid = target - Xb @ coef
    df_b = stats.g - (Xb.shape[1] if reml else 0)
    sa = float(resid @ resid) / df_b if df_b > 0 else 0.0
    # the means are interpolated too: both variances vanish
    sa = max(sa, FLOOR * max(float(np.var(ds.y)), 1e-12))
    return _omega_at(stats, np.concatenate((coef, beta2)), (sa, FLOOR * sa))


# ---------------------------------------------------------------------------
# public fitting entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Outcome of an ML or REML fit.

    ``loglik_at_opt`` is the maximized criterion: the log-likelihood for ML
    and the restricted objective for REML.  ``score_norm`` is the Euclidean
    norm of the full estimating function (psi for ML, psi_A for REML) at
    the reported parameters; ``converged`` asserts it is below
    1e-8 * (1 + |loglik_at_opt|).  ``iterations`` counts the values of
    gamma at which the profiled objective was evaluated: 18 for the
    stacked scan, one for each later point (0 when sigma_e_sq collapses).
    A fit with a vanished variance is reported with ``boundary_flag`` set,
    that variance at FLOOR = 1e-8 times the other one, and usually
    ``converged`` False.
    """

    omega_hat: ParameterVector
    method: str                 # "ml" or "reml"
    converged: bool
    iterations: int
    score_norm: float
    boundary_flag: bool
    loglik_at_opt: float
    g: int
    n: int


def _within_beta2(stats: SufficientStats) -> np.ndarray:
    """Within-cluster estimator S_w_x^-1 S_w_xy; raises when S_w_x is
    rank deficient.

    The test does not depend on units: a column counts as constant within
    clusters when its within sum of squares is below 1e-24 of its raw sum
    of squares (rounding noise), and the columns as collinear when S_w_x,
    scaled to unit diagonal, has an eigenvalue below 1e-12.
    """
    if stats.p_w == 0:
        return np.zeros(0)
    S = stats.S_w_x
    within = np.diag(S)
    raw = within + stats.m @ stats.xbar_w ** 2   # sum_ij x_w_ij^2
    d = np.sqrt(within)
    if np.any(within <= 1e-24 * raw) \
            or np.linalg.eigvalsh(S / np.outer(d, d))[0] <= 1e-12:
        raise DegenerateWithinDesign(
            "a within-cluster covariate has no within-cluster variation "
            "(S_w_x is rank deficient)"
        )
    return np.linalg.solve(S, stats.S_w_xy)


def _fit(ds: ClusteredDataset, reml: bool) -> FitResult:
    if ds.g < 2:
        raise EmptyDataset(f"need at least 2 clusters, got {ds.g}")
    if ds.n <= ds.g:
        raise DegenerateWithinDesign(
            "every cluster is a singleton (n == g); the residual variance "
            "is not identified"
        )
    stats = sufficient_stats(ds)
    beta2 = _within_beta2(stats)
    # Q_min is zero to rounding when it cancels against S_w_y, or when the
    # within deviations themselves are at the rounding level of y
    q_min = stats.S_w_y - float(stats.S_w_xy @ beta2)
    evals = 0
    if q_min <= 1e-12 * stats.S_w_y + 1e-24 * float(ds.y @ ds.y):
        if stats.collinear:   # as the search would raise it
            raise SingularDelta(_COLLINEAR)
        omega, boundary = _collapsed(ds, beta2, reml), True
    else:
        def at(gamma):
            nonlocal evals
            p = _solve(stats, gamma, reml)
            evals += p.gamma.size
            return p

        best, boundary = _search(at)
        se = best.sigma_e_sq
        omega = _omega_at(stats, best.beta, (best.gamma * se, se))

    val = log_likelihood(stats, omega)
    if reml:   # - (1/2) log det Delta, Delta = L L' / sigma_e_sq
        L = _at_theta(stats, omega.theta).L
        val -= float(np.sum(np.log(np.diag(L)))) \
            - 0.5 * L.shape[0] * np.log(omega.sigma_e_sq)
        estimating = adjusted_score(stats, omega)
    else:
        estimating = score(stats, omega)
    sn = math.hypot(*estimating)   # no overflow in the squares
    return FitResult(
        omega_hat=omega,
        method="reml" if reml else "ml",
        converged=bool(sn < 1e-8 * (1.0 + abs(val))),
        iterations=evals,
        score_norm=sn,
        boundary_flag=boundary,
        loglik_at_opt=float(val),
        g=stats.g,
        n=stats.n,
    )


def fit_ml(ds: ClusteredDataset) -> FitResult:
    """Maximum likelihood fit.

    Args:
        ds: clustered dataset.

    Returns:
        FitResult with the ML parameter estimates; a vanished variance
        comes back flagged, never as an error.

    Raises:
        EmptyDataset: fewer than two clusters.
        SingularDelta: collinear intercept/covariate design.
        DegenerateWithinDesign: within design carries no information
            (every cluster a singleton, or S_w_x rank deficient).
    """
    return _fit(ds, reml=False)


def fit_reml(ds: ClusteredDataset) -> FitResult:
    """REML fit; same contract as :func:`fit_ml` with the adjusted objective."""
    return _fit(ds, reml=True)
