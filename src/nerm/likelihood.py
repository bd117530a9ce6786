"""Log-likelihood, score and score derivatives for the nested error model.

With tau_i = m_i / (sigma_e_sq + m_i * sigma_alpha_sq), the mean residual
r_i = ybar_i - beta0 - x_b_i' beta1 - xbar_w_i' beta2, and the pooled
within-cluster quadratic

    Q(beta2) = S_w_y - 2 beta2' S_w_xy + beta2' S_w_x beta2,

the Gaussian log-likelihood, dropping constants free of the parameters, is

    l(omega) = (1/2) sum_i log tau_i - ((n-g)/2) log sigma_e_sq
               - Q(beta2) / (2 sigma_e_sq) - (1/2) sum_i tau_i r_i^2.

Stacking its partial derivatives in the canonical parameter order gives the
estimating function psi(omega); its derivative matrix and the expectation of
that matrix under arbitrary true parameters (needed for the increasing-
cluster-size theory, where expectations use E r_i = z_i'(beta_true - beta)
and E r_i^2 = {z_i'(beta_true - beta)}^2 + 1/tau_true_i) are produced here
in closed form.  Only sufficient statistics enter, so everything is O(g)
per evaluation.

The estimating function splits into a between block psi_b = (l_beta0,
l_beta1, l_sigma_alpha_sq), driven by cluster means, and a within block
psi_w = (l_beta2, l_sigma_e_sq), driven by within-cluster deviations; the
block views on the Jacobian expose exactly that partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClusteredDataset, ParameterVector, SufficientStats, tau

__all__ = [
    "ScoreVector",
    "ScoreJacobian",
    "log_likelihood",
    "score",
    "score_jacobian",
    "expected_score_jacobian",
]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreVector:
    """Estimating function psi(omega), stored by named block."""

    l_beta0: float
    l_beta1: np.ndarray
    l_sigma_alpha_sq: float
    l_beta2: np.ndarray
    l_sigma_e_sq: float

    @property
    def flat(self) -> np.ndarray:
        """Canonical order (beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq)."""
        return np.concatenate((
            [self.l_beta0], np.atleast_1d(self.l_beta1),
            [self.l_sigma_alpha_sq], np.atleast_1d(self.l_beta2),
            [self.l_sigma_e_sq],
        ))

    @property
    def between(self) -> np.ndarray:
        """(l_beta0, l_beta1, l_sigma_alpha_sq) block."""
        return np.concatenate(([self.l_beta0], np.atleast_1d(self.l_beta1),
                               [self.l_sigma_alpha_sq]))

    @property
    def within(self) -> np.ndarray:
        """(l_beta2, l_sigma_e_sq) block."""
        return np.concatenate((np.atleast_1d(self.l_beta2), [self.l_sigma_e_sq]))

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))


@dataclass(frozen=True)
class ScoreJacobian:
    """Derivative matrix of psi, with between/within block views."""

    matrix: np.ndarray     # (p_b + p_w + 3, p_b + p_w + 3)
    p_b: int
    p_w: int

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float, copy=True)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def _nb(self) -> int:
        return self.p_b + 2  # between rows: beta0, beta1, sigma_alpha_sq

    @property
    def bb(self) -> np.ndarray:
        return self.matrix[:self._nb, :self._nb]

    @property
    def bw(self) -> np.ndarray:
        return self.matrix[:self._nb, self._nb:]

    @property
    def wb(self) -> np.ndarray:
        return self.matrix[self._nb:, :self._nb]

    @property
    def ww(self) -> np.ndarray:
        return self.matrix[self._nb:, self._nb:]


# ---------------------------------------------------------------------------
# internal plumbing
# ---------------------------------------------------------------------------

def _pieces(ds: ClusteredDataset, stats: SufficientStats, omega: ParameterVector):
    """Common per-cluster arrays used by all evaluations."""
    m = stats.m.astype(float)
    t = tau(omega.theta, m)
    Xb = ds.x_b
    Xw = stats.xbar_w
    r = stats.ybar - omega.beta0 - Xb @ omega.beta1 - Xw @ omega.beta2
    return m, t, Xb, Xw, r


def _Q(stats: SufficientStats, beta2: np.ndarray) -> float:
    return float(stats.S_w_y - 2.0 * (stats.S_w_xy @ beta2)
                 + beta2 @ stats.S_w_x @ beta2)


# ---------------------------------------------------------------------------
# likelihood and score
# ---------------------------------------------------------------------------

def log_likelihood(ds: ClusteredDataset, stats: SufficientStats,
                   omega: ParameterVector) -> float:
    """Gaussian log-likelihood up to an additive constant.

    Args:
        ds: dataset (supplies the between covariates).
        stats: sufficient statistics of ``ds``.
        omega: interior parameter vector.

    Returns:
        l(omega) as defined in the module docstring.
    """
    m, t, _, _, r = _pieces(ds, stats, omega)
    se = omega.sigma_e_sq
    return float(
        0.5 * np.sum(np.log(t))
        - 0.5 * (stats.n - stats.g) * np.log(se)
        - _Q(stats, omega.beta2) / (2.0 * se)
        - 0.5 * np.sum(t * r * r)
    )


def score(ds: ClusteredDataset, stats: SufficientStats,
          omega: ParameterVector) -> ScoreVector:
    """Gradient of the log-likelihood (the estimating function psi)."""
    m, t, Xb, Xw, r = _pieces(ds, stats, omega)
    se = omega.sigma_e_sq
    tr = t * r
    t2r2 = t * t * r * r
    l_beta0 = float(np.sum(tr))
    l_beta1 = Xb.T @ tr
    l_sa = -0.5 * float(np.sum(t)) + 0.5 * float(np.sum(t2r2))
    l_beta2 = (stats.S_w_xy - stats.S_w_x @ omega.beta2) / se + Xw.T @ tr
    l_se = (
        -0.5 * float(np.sum(t / m))
        - 0.5 * (stats.n - stats.g) / se
        + _Q(stats, omega.beta2) / (2.0 * se * se)
        + 0.5 * float(np.sum(t2r2 / m))
    )
    return ScoreVector(l_beta0, l_beta1, l_sa, l_beta2, l_se)


# ---------------------------------------------------------------------------
# derivative matrix of the score
# ---------------------------------------------------------------------------

def _assemble(ds, stats, omega, *, r_lin, r_sq, Q_val, Sxy_term):
    """Shared assembly for the observed and expected derivative matrices.

    The two matrices differ only in what stands in for the random bits:
    the mean residual r_i linearly (``r_lin``), its square (``r_sq``),
    the quadratic Q(beta2) (``Q_val``) and S_w_xy - S_w_x beta2
    (``Sxy_term``, a p_w vector).  Everything else is deterministic given
    the design and is shared verbatim between the two variants.
    """
    m = stats.m.astype(float)
    t = tau(omega.theta, m)
    Xb = ds.x_b
    Xw = stats.xbar_w
    se = omega.sigma_e_sq
    p_b, p_w = ds.p_b, ds.p_w
    dim = p_b + p_w + 3
    i0, i1 = 0, slice(1, 1 + p_b)
    ia = 1 + p_b
    i2 = slice(2 + p_b, 2 + p_b + p_w)
    ie = dim - 1

    t2 = t * t
    t3 = t2 * t
    tm = t / m            # tau_i / m_i
    t2m = t2 / m
    t3m = t3 / m
    J = np.zeros((dim, dim))

    # --- row l_beta0 ------------------------------------------------------
    J[i0, i0] = -np.sum(t)
    J[i0, i1] = -(t @ Xb)
    J[i0, ia] = -np.sum(t2 * r_lin)
    J[i0, i2] = -(t @ Xw)
    J[i0, ie] = -np.sum(t2m * r_lin)

    # --- rows l_beta1 -----------------------------------------------------
    J[i1, i0] = -(Xb.T @ t)
    J[i1, i1] = -(Xb.T * t) @ Xb
    J[i1, ia] = -(Xb.T @ (t2 * r_lin))
    J[i1, i2] = -(Xb.T * t) @ Xw
    J[i1, ie] = -(Xb.T @ (t2m * r_lin))

    # --- row l_sigma_alpha_sq ---------------------------------------------
    J[ia, i0] = -np.sum(t2 * r_lin)
    J[ia, i1] = -((t2 * r_lin) @ Xb)
    J[ia, ia] = 0.5 * np.sum(t2) - np.sum(t3 * r_sq)
    J[ia, i2] = -((t2 * r_lin) @ Xw)
    J[ia, ie] = 0.5 * np.sum(t2m) - np.sum(t3m * r_sq)

    # --- rows l_beta2 -----------------------------------------------------
    J[i2, i0] = -(Xw.T @ t)
    J[i2, i1] = -(Xw.T * t) @ Xb
    J[i2, ia] = -(Xw.T @ (t2 * r_lin))
    J[i2, i2] = -stats.S_w_x / se - (Xw.T * t) @ Xw
    J[i2, ie] = -Sxy_term / (se * se) - Xw.T @ (t2m * r_lin)

    # --- row l_sigma_e_sq ---------------------------------------------------
    J[ie, i0] = -np.sum(t2m * r_lin)
    J[ie, i1] = -((t2m * r_lin) @ Xb)
    J[ie, ia] = 0.5 * np.sum(t2m) - np.sum(t3m * r_sq)
    J[ie, i2] = -Sxy_term / (se * se) - (t2m * r_lin) @ Xw
    J[ie, ie] = (
        0.5 * np.sum(t2 / (m * m))
        + 0.5 * (stats.n - stats.g) / (se * se)
        - Q_val / se**3
        - np.sum(t3 / (m * m) * r_sq)
    )
    return ScoreJacobian(J, p_b=p_b, p_w=p_w)


def score_jacobian(ds: ClusteredDataset, stats: SufficientStats,
                   omega: ParameterVector) -> ScoreJacobian:
    """Derivative matrix of psi with respect to omega, in closed form.

    Symmetric (it is the Hessian of the log-likelihood) and, at a converged
    interior fit, negative definite.
    """
    _, t, _, _, r = _pieces(ds, stats, omega)
    return _assemble(
        ds, stats, omega,
        r_lin=r,
        r_sq=r * r,
        Q_val=_Q(stats, omega.beta2),
        Sxy_term=stats.S_w_xy - stats.S_w_x @ omega.beta2,
    )


def expected_score_jacobian(ds: ClusteredDataset, stats: SufficientStats,
                            omega: ParameterVector,
                            omega_dot: ParameterVector) -> ScoreJacobian:
    """Expectation of ``score_jacobian(omega)`` when omega_dot generated the data.

    Uses E r_i = z_i'(beta_dot - beta) and E r_i^2 = {z_i'(beta_dot -
    beta)}^2 + 1/tau_dot_i, where z_i = (1, x_b_i, xbar_w_i); the within
    cross products satisfy E S_w_xy = S_w_x beta2_dot and E Q(beta2) =
    (beta2_dot - beta2)' S_w_x (beta2_dot - beta2) + (n - g) sigma_e_sq_dot.
    The covariates are treated as fixed.
    """
    m = stats.m.astype(float)
    Xb = ds.x_b
    Xw = stats.xbar_w
    t_dot = tau(omega_dot.theta, m)
    mean_r = (
        (omega_dot.beta0 - omega.beta0)
        + Xb @ (omega_dot.beta1 - omega.beta1)
        + Xw @ (omega_dot.beta2 - omega.beta2)
    )
    d2 = omega_dot.beta2 - omega.beta2
    se = omega.sigma_e_sq
    exp_Q = float(d2 @ stats.S_w_x @ d2) + (stats.n - stats.g) * omega_dot.sigma_e_sq
    return _assemble(
        ds, stats, omega,
        r_lin=mean_r,
        r_sq=mean_r * mean_r + 1.0 / t_dot,
        Q_val=exp_Q,
        Sxy_term=stats.S_w_x @ d2,
    )
