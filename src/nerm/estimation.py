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
J. Stat. Softw. 67(1), 2015).  A fixed log-spaced scan of gamma guards
against a second mode, and a bracketed false-position solve (Illinois
variant) finds each root of the derivative the scan brackets.  gamma = 0
is the only boundary: when the derivative there is <= 0 the fit is
reported with ``boundary_flag`` and sigma_alpha_sq = FLOOR * sigma_e_sq.
The other way to leave the interior, sigma_e_sq -> 0, happens only when the
pooled within residual Q_min is zero to rounding; that is decided before
the search and answered in closed form, again with ``boundary_flag``.
Collinearity of the design does not depend on gamma, so ``SingularDelta``
is decided once, at gamma = 0, the first point of the scan.  Z, S_w_xy and
S_w_x come from the dataset's shared ``SufficientStats``; ``_solve`` alone
forms and factors M(gamma), for the search and at any given theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateWithinDesign, SingularDelta
from .likelihood import ScoreVector, log_likelihood, score
from .model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    sufficient_stats,
    tau,
    validate_dataset,
)

__all__ = [
    "FitResult",
    "profile_beta",
    "reml_criterion",
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

def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _cholesky(M: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularDelta(
            "profiled normal equations are singular; the intercept-plus-"
            "covariate design is collinear"
        ) from exc


def _solve(stats: SufficientStats, gamma: float):
    """The one place that forms and factors M(gamma) and solves the normal
    equations; returns (w, L, beta) with M = L L'."""
    m = stats.m.astype(float)
    w = m / (1.0 + m * gamma)
    Z, k = stats.Z, 1 + stats.p_b
    M = (Z.T * w) @ Z
    M[k:, k:] += stats.S_w_x
    rhs = Z.T @ (w * stats.ybar)
    rhs[k:] += stats.S_w_xy
    L = _cholesky(M)
    return w, L, _chol_solve(L, rhs)


def _at_theta(stats: SufficientStats, theta):
    """:func:`_solve` at gamma = sigma_alpha_sq / sigma_e_sq; returns beta,
    L and log det Delta, where Delta = M / sigma_e_sq = L L' / sigma_e_sq."""
    tau(theta, 1.0)   # NonPositiveVariance unless both are finite and > 0
    se = float(theta[1])
    _, L, beta = _solve(stats, float(theta[0]) / se)
    return beta, L, 2.0 * float(np.sum(np.log(np.diag(L)))) - L.shape[0] * np.log(se)


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
    beta, L, _ = _at_theta(stats, theta)
    return beta, (L @ L.T) / float(theta[1])


def _omega_at(stats: SufficientStats, beta: np.ndarray, theta) -> ParameterVector:
    k = 1 + stats.p_b
    return ParameterVector(beta[0], beta[1:k], theta[0], beta[k:], theta[1])


def reml_criterion(ds: ClusteredDataset, stats: SufficientStats, theta) -> float:
    """Restricted likelihood objective l(beta_hat(theta), theta) - (1/2) log|Delta|."""
    beta, _, logdet = _at_theta(stats, theta)
    return log_likelihood(ds, stats, _omega_at(stats, beta, theta)) - 0.5 * logdet


def adjusted_score(ds: ClusteredDataset, stats: SufficientStats,
                   omega: ParameterVector) -> ScoreVector:
    """REML estimating function: the score with trace-corrected variance entries.

    The coefficient entries coincide with the plain score; the variance
    entries subtract (1/2) tr{Delta^-1 dDelta/dtheta_k}, with
    dDelta/dsigma_alpha_sq = -Z' diag(tau^2) Z and dDelta/dsigma_e_sq =
    -Z' diag(tau^2/m) Z - W/sigma_e_sq^2 (W holds S_w_x in the within
    corner).  Its root is the REML estimator, and its variance entries
    evaluated at the profiled coefficients are the gradient of
    :func:`reml_criterion`.
    """
    se = omega.sigma_e_sq
    _, L, _ = _at_theta(stats, omega.theta)
    Z, k = stats.Z, 1 + stats.p_b
    t = tau(omega.theta, stats.m)
    t2 = t * t
    dA = -(Z.T * t2) @ Z
    dE = -(Z.T * (t2 / stats.m)) @ Z
    dE[k:, k:] -= stats.S_w_x / se**2
    sc = score(ds, stats, omega)
    return ScoreVector(
        l_beta0=sc.l_beta0,
        l_beta1=sc.l_beta1,
        l_sigma_alpha_sq=sc.l_sigma_alpha_sq
        - 0.5 * se * float(np.trace(_chol_solve(L, dA))),
        l_beta2=sc.l_beta2,
        l_sigma_e_sq=sc.l_sigma_e_sq - 0.5 * se * float(np.trace(_chol_solve(L, dE))),
    )


# ---------------------------------------------------------------------------
# the scalar problem in gamma
# ---------------------------------------------------------------------------

class _Point(NamedTuple):
    gamma: float
    value: float      # profiled objective, up to a constant
    slope: float      # its derivative in gamma
    beta: np.ndarray
    sigma_e_sq: float


def _profiled(stats: SufficientStats, gamma: float, reml: bool) -> _Point:
    """Coefficients, sigma_e_sq, objective and slope at one gamma >= 0."""
    w, L, beta = _solve(stats, gamma)
    Z = stats.Z
    r = stats.ybar - Z @ beta
    b2 = beta[1 + stats.p_b:]
    rss = float(stats.S_w_y - 2.0 * (stats.S_w_xy @ b2) + b2 @ stats.S_w_x @ b2
                + np.sum(w * r * r))
    df = stats.n - (Z.shape[1] if reml else 0)
    value = 0.5 * float(np.sum(np.log(w))) - 0.5 * df * np.log(rss / df)
    slope = -0.5 * float(np.sum(w)) + 0.5 * df * float(np.sum((w * r) ** 2)) / rss
    if reml:
        value -= float(np.sum(np.log(np.diag(L))))
        slope += 0.5 * float(np.trace(_chol_solve(L, (Z.T * (w * w)) @ Z)))
    return _Point(gamma, value, slope, beta, rss / df)


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
        p = at(c)
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

    Returns (point, at_boundary).  The scan starts at gamma = 0 and FLOOR
    and runs in decades; it goes on past 1e8 while the slope is positive.
    """
    pts = [at(x) for x in _SCAN]
    for _ in range(40):
        if pts[-1].slope <= 0.0:
            break
        pts.append(at(10.0 * pts[-1].gamma))
    # gamma = 0 wins the KKT check when the slope there is <= 0; it is
    # reported at gamma = FLOOR, the second scan point.
    candidates = [(pts[1], True)] if pts[0].slope <= 0.0 else []
    candidates += [(_root(at, a, b), False) for a, b in zip(pts, pts[1:])
                   if a.slope > 0.0 >= b.slope]
    if not candidates:   # slope still positive far past any sane gamma
        candidates = [(pts[-1], False)]
    return max(candidates, key=lambda c: c[0].value)


def _collapsed(ds: ClusteredDataset, stats: SufficientStats,
               beta2: np.ndarray, reml: bool) -> ParameterVector:
    """Closed-form fit when the within residual vanishes: beta2 from the
    within equations, (beta0, beta1) by OLS on the adjusted cluster means,
    sigma_alpha_sq from their residuals and sigma_e_sq = FLOOR * that."""
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
    1e-8 * (1 + |loglik_at_opt|).  ``iterations`` counts the evaluations of
    the profiled objective in gamma (0 when sigma_e_sq collapses).  A fit
    with a vanished variance is reported with ``boundary_flag`` set, that
    variance at FLOOR = 1e-8 times the other one, and usually ``converged``
    False.
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


def _within_beta2(ds: ClusteredDataset, stats: SufficientStats) -> np.ndarray:
    """Within-cluster estimator S_w_x^-1 S_w_xy; raises when S_w_x is
    rank deficient."""
    if ds.p_w == 0:
        return np.zeros(0)
    eigs = np.linalg.eigvalsh(0.5 * (stats.S_w_x + stats.S_w_x.T))
    if eigs[0] <= 1e-12 * max(float(eigs[-1]), 1.0):
        raise DegenerateWithinDesign(
            "a within-cluster covariate has no within-cluster variation "
            "(S_w_x is rank deficient)"
        )
    return np.linalg.solve(stats.S_w_x, stats.S_w_xy)


def _fit(ds: ClusteredDataset, reml: bool) -> FitResult:
    validate_dataset(ds)
    stats = sufficient_stats(ds)
    beta2 = _within_beta2(ds, stats)
    # Q_min is zero to rounding when it cancels against S_w_y, or when the
    # within deviations themselves are at the rounding level of y
    q_min = stats.S_w_y - float(stats.S_w_xy @ beta2)
    evals = 0
    if q_min <= 1e-12 * stats.S_w_y + 1e-24 * float(ds.y @ ds.y):
        # the search decides SingularDelta at gamma = 0; so does this branch
        _solve(stats, 0.0)
        omega, boundary = _collapsed(ds, stats, beta2, reml), True
    else:
        def at(gamma):
            nonlocal evals
            evals += 1
            return _profiled(stats, gamma, reml)

        best, boundary = _search(at)
        se = best.sigma_e_sq
        omega = _omega_at(stats, best.beta, (best.gamma * se, se))

    val = log_likelihood(ds, stats, omega)
    if reml:
        _, _, logdet = _at_theta(stats, omega.theta)
        val -= 0.5 * logdet
        estimating = adjusted_score(ds, stats, omega)
    else:
        estimating = score(ds, stats, omega)
    sn = estimating.norm()
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
        ds: clustered dataset; validated on entry.

    Returns:
        FitResult with the ML parameter estimates; a vanished variance
        comes back flagged, never as an error.

    Raises:
        SingularDelta: collinear intercept/covariate design.
        DegenerateWithinDesign: within design carries no information.
    """
    return _fit(ds, reml=False)


def fit_reml(ds: ClusteredDataset) -> FitResult:
    """REML fit; same contract as :func:`fit_ml` with the adjusted objective."""
    return _fit(ds, reml=True)
