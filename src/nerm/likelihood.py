"""Log-likelihood, score and score derivatives for the nested error model.

With tau_i = m_i / (sigma_e_sq + m_i * sigma_alpha_sq), the between design
z_i = (1, x_b_i, xbar_w_i), the stacked coefficients beta = (beta0, beta1,
beta2), the mean residual r_i = ybar_i - z_i' beta and the pooled
within-cluster quadratic

    Q(beta2) = S_w_y - 2 beta2' S_w_xy + beta2' S_w_x beta2,

the Gaussian log-likelihood, dropping constants free of the parameters, is

    l(omega) = (1/2) sum_i log tau_i - ((n-g)/2) log sigma_e_sq
               - Q(beta2) / (2 sigma_e_sq) - (1/2) sum_i tau_i r_i^2.

Its gradient is the estimating function psi(omega); its derivative matrix
and the expectation of that matrix under arbitrary true parameters (needed
for the increasing-cluster-size theory, where expectations use E r_i =
z_i'(beta_true - beta) and E r_i^2 = {z_i'(beta_true - beta)}^2 +
1/tau_true_i) are produced here in closed form.  Only the sufficient
statistics enter, so everything is O(g) per evaluation.

Each quantity is written once in the order (beta, sigma_alpha_sq,
sigma_e_sq), beta in the column order of Z, and mapped to the canonical
order (beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq) by one permutation
built from :func:`nerm.model.parameter_layout`.  In the canonical order the
between block (beta0, beta1, sigma_alpha_sq) is driven by cluster means and
the within block (beta2, sigma_e_sq) by within-cluster deviations.  With
d_i = (1, 1/m_i), the derivative of tau_i in (sigma_alpha_sq, sigma_e_sq)
is -tau_i^2 d_i.
"""

from __future__ import annotations

import numpy as np

from .model import ParameterVector, SufficientStats, parameter_layout, tau

__all__ = [
    "log_likelihood",
    "score",
    "score_jacobian",
    "expected_score_jacobian",
]


def _canonical(stats: SufficientStats) -> np.ndarray:
    """Canonical positions of (beta, sigma_alpha_sq, sigma_e_sq)."""
    dim, i0, i1, ia, i2, ie = parameter_layout(stats.p_b, stats.p_w)
    pos = np.arange(dim)
    return np.r_[i0, pos[i1], pos[i2], ia, ie]


def _tau_d(stats: SufficientStats, omega: ParameterVector):
    """tau_i and the rows d_i = (1, 1/m_i), stacked as a (2, g) array."""
    m = stats.m.astype(float)
    return tau(omega.theta, m), np.stack((np.ones_like(m), 1.0 / m))


def _Q(stats: SufficientStats, beta2: np.ndarray) -> float:
    return float(stats.S_w_y - 2.0 * (stats.S_w_xy @ beta2)
                 + beta2 @ stats.S_w_x @ beta2)


def log_likelihood(stats: SufficientStats, omega: ParameterVector) -> float:
    """Gaussian log-likelihood up to an additive constant.

    Args:
        stats: sufficient statistics of the dataset.
        omega: interior parameter vector.

    Returns:
        l(omega) as defined in the module docstring.
    """
    t = tau(omega.theta, stats.m)
    r = stats.ybar - stats.Z @ omega.beta
    se = omega.sigma_e_sq
    return float(
        0.5 * np.sum(np.log(t))
        - 0.5 * (stats.n - stats.g) * np.log(se)
        - _Q(stats, omega.beta2) / (2.0 * se)
        - 0.5 * np.sum(t * r * r)
    )


def score(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """Gradient of the log-likelihood (the estimating function psi), as a
    flat array in the canonical order."""
    t, d = _tau_d(stats, omega)
    tr = t * (stats.ybar - stats.Z @ omega.beta)
    se = omega.sigma_e_sq
    l_beta = stats.Z.T @ tr
    l_beta[1 + stats.p_b:] += (stats.S_w_xy - stats.S_w_x @ omega.beta2) / se
    l_theta = 0.5 * d @ (tr * tr - t)
    l_theta[1] += _Q(stats, omega.beta2) / (2.0 * se * se) \
        - 0.5 * (stats.n - stats.g) / se
    out = np.empty(l_beta.size + 2)
    out[_canonical(stats)] = np.concatenate((l_beta, l_theta))
    return out


def _jacobian(stats, omega, r, r_sq, Q, u) -> np.ndarray:
    """Derivative matrix of psi in the canonical order.

    The observed and the expected matrix differ only in what stands in for
    the random pieces: the mean residual ``r``, its square ``r_sq``,
    Q(beta2) (``Q``) and S_w_xy - S_w_x beta2 (``u``).
    """
    t, d = _tau_d(stats, omega)
    Z, se = stats.Z, omega.sigma_e_sq
    k, q = 1 + stats.p_b, Z.shape[1]
    J = np.empty((q + 2, q + 2))
    J[:q, :q] = -(Z.T * t) @ Z
    J[k:q, k:q] -= stats.S_w_x / se
    J[:q, q:] = -Z.T @ (d * (t * t * r)).T
    J[k:q, q + 1] -= u / (se * se)
    J[q:, :q] = J[:q, q:].T
    J[q:, q:] = (d * (0.5 * t * t - t**3 * r_sq)) @ d.T
    J[q + 1, q + 1] += 0.5 * (stats.n - stats.g) / (se * se) - Q / se**3
    c = _canonical(stats)
    out = np.empty_like(J)
    out[np.ix_(c, c)] = J
    return out


def score_jacobian(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """Derivative matrix of psi with respect to omega, in closed form.

    Symmetric (it is the Hessian of the log-likelihood) and, at a converged
    interior fit, negative definite.
    """
    r = stats.ybar - stats.Z @ omega.beta
    return _jacobian(stats, omega, r, r * r, _Q(stats, omega.beta2),
                     stats.S_w_xy - stats.S_w_x @ omega.beta2)


def expected_score_jacobian(stats: SufficientStats, omega: ParameterVector,
                            omega_dot: ParameterVector) -> np.ndarray:
    """Expectation of ``score_jacobian(omega)`` when omega_dot generated the data.

    Uses E r_i = z_i'(beta_dot - beta) and E r_i^2 = {z_i'(beta_dot -
    beta)}^2 + 1/tau_dot_i; the within cross products satisfy E S_w_xy =
    S_w_x beta2_dot and E Q(beta2) = (beta2_dot - beta2)' S_w_x (beta2_dot -
    beta2) + (n - g) sigma_e_sq_dot.  The covariates are treated as fixed.
    """
    mean_r = stats.Z @ (omega_dot.beta - omega.beta)
    d2 = omega_dot.beta2 - omega.beta2
    exp_Q = float(d2 @ stats.S_w_x @ d2) \
        + (stats.n - stats.g) * omega_dot.sigma_e_sq
    return _jacobian(stats, omega, mean_r,
                     mean_r * mean_r + 1.0 / tau(omega_dot.theta, stats.m),
                     exp_Q, stats.S_w_x @ d2)
