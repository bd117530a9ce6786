"""ML and REML fitting by profiling out the regression coefficients.

For fixed variance components theta = (sigma_alpha_sq, sigma_e_sq) the
log-likelihood is an exact quadratic in the stacked coefficient vector
beta = (beta0, beta1, beta2), maximized in closed form by the weighted
normal equations

    Delta(theta) beta_hat(theta) = sum_i tau_i z_i ybar_i + w / sigma_e_sq,
    Delta(theta) = sum_i tau_i z_i z_i' + W / sigma_e_sq,

with z_i = (1, x_b_i, xbar_w_i), w = (0, 0, S_w_xy) and W the block
diagonal matrix holding S_w_x in the within corner.  The two variance
components are then found by Newton steps with backtracking on the profiled
objective, parameterized as u = log theta so the iterates stay positive.
The gradient of the profiled objective is the variance block of the score
at (beta_hat(theta), theta) (envelope argument); its Hessian is the Schur
complement of the coefficient block in the full derivative matrix of the
score, both in closed form.

REML maximizes the adjusted profile objective

    l_R(theta) = l(beta_hat(theta), theta) - (1/2) log det Delta(theta),

whose gradient is the variance block of the adjusted estimating function
psi_A, i.e. the score plus -(1/2) tr{Delta^-1 dDelta/dtheta_k}.  Solving
psi_A = 0 jointly in all parameters or maximizing the adjusted profile in
theta alone give the same fit; tests exercise both routes.

If a log-variance is driven below log(1e-8 * var(y)) it is clamped there
and the result carries ``boundary_flag``; such fits are reported, not
raised.  A coarse 11 x 11 grid around the moment-based start guards against
stopping at a poor local maximum: the final answer is the better of Newton
from the start and Newton from the best grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWithinDesign, NoConvergence, SingularDelta
from .likelihood import ScoreVector, log_likelihood, score, score_jacobian
from .model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    sufficient_stats,
    tau,
    validate_dataset,
)

__all__ = [
    "ProfileSystem",
    "FitResult",
    "build_profile_system",
    "profile_beta",
    "reml_criterion",
    "adjusted_score",
    "fit_ml",
    "fit_reml",
]

MAX_ITER = 200
STEP_TOL = 1e-10        # infinity norm of the Newton step in log space
GRAD_TOL = 1e-8         # norm of the profiled gradient
VARIANCE_FLOOR_FACTOR = 1e-8   # times the total sample variance of y


# ---------------------------------------------------------------------------
# profiling machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileSystem:
    """Design pieces for the profiled normal equations."""

    Z: np.ndarray        # (g, 1 + p_b + p_w) rows z_i
    w: np.ndarray        # (1 + p_b + p_w,) = (0, 0, S_w_xy)
    W: np.ndarray        # block diag(0, 0, S_w_x)
    p_b: int
    p_w: int

    def __post_init__(self) -> None:
        for name in ("Z", "w", "W"):
            a = np.array(getattr(self, name), dtype=float, copy=True)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def build_profile_system(ds: ClusteredDataset, stats: SufficientStats) -> ProfileSystem:
    """Assemble z_i rows and the within-information blocks once per dataset."""
    g, p_b, p_w = stats.g, ds.p_b, ds.p_w
    q = 1 + p_b + p_w
    Z = np.empty((g, q))
    Z[:, 0] = 1.0
    Z[:, 1:1 + p_b] = ds.x_b
    Z[:, 1 + p_b:] = stats.xbar_w
    w = np.zeros(q)
    W = np.zeros((q, q))
    if p_w:
        w[1 + p_b:] = stats.S_w_xy
        W[1 + p_b:, 1 + p_b:] = stats.S_w_x
    return ProfileSystem(Z=Z, w=w, W=W, p_b=p_b, p_w=p_w)


def _chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def _profile(ps: ProfileSystem, stats: SufficientStats, theta):
    """Solve the normal equations; returns (beta_hat, Delta, chol, logdet)."""
    t = tau(theta, stats.m)
    se = float(theta[1])
    Delta = (ps.Z.T * t) @ ps.Z + ps.W / se
    rhs = ps.Z.T @ (t * stats.ybar) + ps.w / se
    try:
        L = np.linalg.cholesky(Delta)
    except np.linalg.LinAlgError as exc:
        raise SingularDelta(
            "profiled normal equations are singular; the intercept-plus-"
            "covariate design is collinear"
        ) from exc
    beta = _chol_solve(L, rhs)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return beta, Delta, L, logdet


def profile_beta(ps: ProfileSystem, stats: SufficientStats, theta):
    """Closed-form coefficient profile at fixed variance components.

    Args:
        ps: output of :func:`build_profile_system`.
        stats: sufficient statistics of the same dataset.
        theta: (sigma_alpha_sq, sigma_e_sq), both > 0.

    Returns:
        (beta_hat, Delta): the maximizing stacked coefficients
        (beta0, beta1, beta2) and the normal-equation matrix.

    Raises:
        SingularDelta: collinear design.
    """
    beta, Delta, _, _ = _profile(ps, stats, theta)
    return beta, Delta


def _omega_at(ps: ProfileSystem, beta: np.ndarray, theta) -> ParameterVector:
    p_b, p_w = ps.p_b, ps.p_w
    return ParameterVector(
        beta0=beta[0],
        beta1=beta[1:1 + p_b],
        sigma_alpha_sq=theta[0],
        beta2=beta[1 + p_b:1 + p_b + p_w],
        sigma_e_sq=theta[1],
    )


def reml_criterion(ds: ClusteredDataset, stats: SufficientStats, theta) -> float:
    """Restricted likelihood objective l(beta_hat(theta), theta) - (1/2) log|Delta|."""
    ps = build_profile_system(ds, stats)
    beta, _, _, logdet = _profile(ps, stats, theta)
    return log_likelihood(ds, stats, _omega_at(ps, beta, theta)) - 0.5 * logdet


def _delta_derivatives(ps: ProfileSystem, stats: SufficientStats, theta):
    """First and second derivatives of Delta(theta) in closed form."""
    t = tau(theta, stats.m)
    m = stats.m.astype(float)
    se = float(theta[1])
    t2, t3 = t * t, t * t * t
    Z = ps.Z
    dA = -(Z.T * t2) @ Z
    dE = -(Z.T * (t2 / m)) @ Z - ps.W / se**2
    ddAA = (Z.T * (2.0 * t3)) @ Z
    ddAE = (Z.T * (2.0 * t3 / m)) @ Z
    ddEE = (Z.T * (2.0 * t3 / (m * m))) @ Z + 2.0 * ps.W / se**3
    return dA, dE, ddAA, ddAE, ddEE


def adjusted_score(ds: ClusteredDataset, stats: SufficientStats,
                   omega: ParameterVector) -> ScoreVector:
    """REML estimating function: the score with trace-corrected variance entries.

    The coefficient entries coincide with the plain score; the variance
    entries subtract (1/2) tr{Delta^-1 dDelta/dtheta_k}.  Its root is the
    REML estimator, and its variance entries evaluated at the profiled
    coefficients are the gradient of :func:`reml_criterion`.
    """
    ps = build_profile_system(ds, stats)
    _, _, L, _ = _profile(ps, stats, omega.theta)
    dA, dE, _, _, _ = _delta_derivatives(ps, stats, omega.theta)
    sc = score(ds, stats, omega)
    adj_a = -0.5 * float(np.trace(_chol_solve(L, dA)))
    adj_e = -0.5 * float(np.trace(_chol_solve(L, dE)))
    return ScoreVector(
        l_beta0=sc.l_beta0,
        l_beta1=sc.l_beta1,
        l_sigma_alpha_sq=sc.l_sigma_alpha_sq + adj_a,
        l_beta2=sc.l_beta2,
        l_sigma_e_sq=sc.l_sigma_e_sq + adj_e,
    )


# ---------------------------------------------------------------------------
# Newton iteration on u = log(theta)
# ---------------------------------------------------------------------------

def _theta_grad_hess(ds, stats, ps, omega, L, reml):
    """Gradient and Hessian of the profiled objective with respect to theta.

    Envelope: gradient = variance block of the (adjusted) score at the
    profiled coefficients.  Hessian = Schur complement of the coefficient
    block of the score derivative matrix, plus, for REML, the exact second
    derivative of -(1/2) log|Delta|.
    """
    p_b, p_w = ps.p_b, ps.p_w
    idx_a, idx_e = 1 + p_b, p_b + p_w + 2
    beta_idx = list(range(0, 1 + p_b)) + list(range(2 + p_b, 2 + p_b + p_w))
    th_idx = [idx_a, idx_e]

    sc = score(ds, stats, omega)
    J = score_jacobian(ds, stats, omega).matrix
    grad = sc.flat[th_idx]
    Jbb = J[np.ix_(beta_idx, beta_idx)]
    Jbt = J[np.ix_(beta_idx, th_idx)]
    Jtb = J[np.ix_(th_idx, beta_idx)]
    Jtt = J[np.ix_(th_idx, th_idx)]
    hess = Jtt - Jtb @ np.linalg.solve(Jbb, Jbt)

    if reml:
        dA, dE, ddAA, ddAE, ddEE = _delta_derivatives(ps, stats, omega.theta)
        DdA = _chol_solve(L, dA)
        DdE = _chol_solve(L, dE)
        grad = grad + np.array([-0.5 * np.trace(DdA), -0.5 * np.trace(DdE)])
        h_aa = -0.5 * (np.trace(_chol_solve(L, ddAA)) - np.trace(DdA @ DdA))
        h_ae = -0.5 * (np.trace(_chol_solve(L, ddAE)) - np.trace(DdA @ DdE))
        h_ee = -0.5 * (np.trace(_chol_solve(L, ddEE)) - np.trace(DdE @ DdE))
        hess = hess + np.array([[h_aa, h_ae], [h_ae, h_ee]])
    return grad, hess


class _Objective:
    """Profiled (restricted) objective as a function of u = log(theta)."""

    def __init__(self, ds, stats, ps, reml):
        self.ds, self.stats, self.ps, self.reml = ds, stats, ps, reml

    def value(self, u):
        """Returns (value, omega, chol) or (-inf, None, None) if unusable."""
        theta = np.exp(u)
        if not np.all(np.isfinite(theta)) or np.any(theta <= 0.0):
            return -np.inf, None, None
        try:
            beta, _, L, logdet = _profile(self.ps, self.stats, theta)
        except SingularDelta:
            raise
        except np.linalg.LinAlgError:
            return -np.inf, None, None
        omega = _omega_at(self.ps, beta, theta)
        val = log_likelihood(self.ds, self.stats, omega)
        if self.reml:
            val -= 0.5 * logdet
        if not np.isfinite(val):
            return -np.inf, None, None
        return val, omega, L

    def grad_hess_u(self, u, omega, L):
        theta = np.exp(u)
        g_th, H_th = _theta_grad_hess(self.ds, self.stats, self.ps, omega,
                                      L, self.reml)
        g_u = theta * g_th
        H_u = np.outer(theta, theta) * H_th + np.diag(theta * g_th)
        return g_u, H_u


def _ascent_direction(H: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton direction, with the Hessian shifted to negative definite."""
    Hs = 0.5 * (H + H.T)
    eigs = np.linalg.eigvalsh(Hs)
    lam_max = eigs[-1]
    scale = max(np.max(np.abs(eigs)), 1.0)
    if lam_max > -1e-8 * scale:
        Hs = Hs - (lam_max + 1e-6 * scale) * np.eye(H.shape[0])
    step = -np.linalg.solve(Hs, grad)
    cap = 25.0  # log-space steps beyond e^25 are never useful
    big = np.max(np.abs(step))
    if big > cap:
        step *= cap / big
    return step


def _newton(obj: _Objective, u0: np.ndarray, floor_u: float):
    """Maximize obj from u0 with clamped backtracking Newton steps.

    Returns (u, value, omega, chol, iterations, hit_step_rule).
    """
    u = np.maximum(u0, floor_u)
    val, omega, L = obj.value(u)
    if omega is None:
        raise SingularDelta("profiled objective undefined at the starting value")
    for it in range(1, MAX_ITER + 1):
        grad, hess = obj.grad_hess_u(u, omega, L)
        pinned = (u <= floor_u + 1e-12) & (grad < 0.0)
        g_free = np.where(pinned, 0.0, grad)
        if np.linalg.norm(g_free) < GRAD_TOL:
            return u, val, omega, L, it, True
        step = _ascent_direction(hess, g_free)
        step = np.where(pinned, 0.0, step)  # do not push further into the floor
        slope = float(g_free @ step)
        t = 1.0
        accepted = False
        while t >= 1e-14:
            u_try = np.maximum(u + t * step, floor_u)
            val_try, omega_try, L_try = obj.value(u_try)
            if val_try > -np.inf and (
                val_try >= val + 1e-4 * t * slope or val_try > val
            ):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return u, val, omega, L, it, False  # stalled; caller decides
        moved = float(np.max(np.abs(u_try - u)))
        u, val, omega, L = u_try, val_try, omega_try, L_try
        if moved < STEP_TOL:
            return u, val, omega, L, it, True
    raise NoConvergence(
        f"variance-component iteration did not meet the stopping rule in "
        f"{MAX_ITER} Newton steps"
    )


# ---------------------------------------------------------------------------
# moment-based start
# ---------------------------------------------------------------------------

def _moment_start(ds: ClusteredDataset, stats: SufficientStats,
                  ps: ProfileSystem) -> np.ndarray:
    """ANOVA-style starting values (sigma_alpha_sq0, sigma_e_sq0)."""
    n, g = stats.n, stats.g
    if ds.p_w:
        try:
            b2 = np.linalg.solve(stats.S_w_x, stats.S_w_xy)
        except np.linalg.LinAlgError as exc:
            raise DegenerateWithinDesign(
                "pooled within-cluster covariate matrix S_w_x is singular"
            ) from exc
        q0 = float(stats.S_w_y - 2.0 * (stats.S_w_xy @ b2) + b2 @ stats.S_w_x @ b2)
    else:
        q0 = stats.S_w_y
    se0 = max(q0, 0.0) / (n - g)
    coef, *_ = np.linalg.lstsq(ps.Z, stats.ybar, rcond=None)
    resid = stats.ybar - ps.Z @ coef
    v_between = float(np.mean(resid * resid))
    sa0 = max(v_between - se0 * float(np.mean(1.0 / stats.m)), 1e-4 * se0)
    return np.array([sa0, se0])


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
    1e-8 * (1 + |loglik_at_opt|).  Boundary-clamped fits are reported with
    ``boundary_flag`` set and usually ``converged`` False.
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


def _check_within_design(ds: ClusteredDataset, stats: SufficientStats) -> None:
    if ds.p_w == 0:
        return
    eigs = np.linalg.eigvalsh(0.5 * (stats.S_w_x + stats.S_w_x.T))
    scale = max(float(eigs[-1]), 1.0)
    if eigs[0] <= 1e-12 * scale:
        raise DegenerateWithinDesign(
            "a within-cluster covariate has no within-cluster variation "
            "(S_w_x is rank deficient)"
        )


def _fit(ds: ClusteredDataset, reml: bool) -> FitResult:
    validate_dataset(ds)
    stats = sufficient_stats(ds)
    _check_within_design(ds, stats)
    ps = build_profile_system(ds, stats)
    obj = _Objective(ds, stats, ps, reml)

    var_y = float(np.var(ds.y))
    floor_u = math.log(VARIANCE_FLOOR_FACTOR * max(var_y, 1e-12))

    theta0 = np.maximum(_moment_start(ds, stats, ps), math.exp(floor_u))
    u0 = np.log(theta0)

    u_best, val_best, om_best, L_best, iters, _ = _newton(obj, u0, floor_u)

    # Coarse grid refinement: guard against a bad start or a second mode.
    span = np.log(100.0)
    axes = [np.clip(np.linspace(c - span, c + span, 11), floor_u, None)
            for c in u0]
    grid_best_val, grid_best_u = -np.inf, None
    for ua in axes[0]:
        for ue in axes[1]:
            v, _, _ = obj.value(np.array([ua, ue]))
            if v > grid_best_val:
                grid_best_val, grid_best_u = v, np.array([ua, ue])
    if grid_best_u is not None and grid_best_val > val_best:
        u2, val2, om2, L2, it2, _ = _newton(obj, grid_best_u, floor_u)
        if val2 > val_best:
            u_best, val_best, om_best, L_best, iters = u2, val2, om2, L2, it2

    boundary = bool(np.any(u_best <= floor_u + 1e-9))
    estimating = adjusted_score(ds, stats, om_best) if reml \
        else score(ds, stats, om_best)
    sn = estimating.norm()
    return FitResult(
        omega_hat=om_best,
        method="reml" if reml else "ml",
        converged=bool(sn < 1e-8 * (1.0 + abs(val_best))),
        iterations=iters,
        score_norm=sn,
        boundary_flag=boundary,
        loglik_at_opt=float(val_best),
        g=stats.g,
        n=stats.n,
    )


def fit_ml(ds: ClusteredDataset) -> FitResult:
    """Maximum likelihood fit.

    Args:
        ds: clustered dataset; validated on entry.

    Returns:
        FitResult with the ML parameter estimates.

    Raises:
        SingularDelta: collinear intercept/covariate design.
        DegenerateWithinDesign: within design carries no information.
        NoConvergence: iteration limit exhausted.
    """
    return _fit(ds, reml=False)


def fit_reml(ds: ClusteredDataset) -> FitResult:
    """REML fit; same contract as :func:`fit_ml` with the adjusted objective."""
    return _fit(ds, reml=True)
