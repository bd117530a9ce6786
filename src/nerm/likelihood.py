"""Log-likelihood and score for the nested error model.

With tau_i = m_i / (sigma_e_sq + m_i * sigma_alpha_sq), the between design
z_i = (1, x_b_i, xbar_w_i), the stacked coefficients beta = (beta0, beta1,
beta2), the mean residual r_i = ybar_i - z_i' beta and the pooled
within-cluster quadratic

    Q(beta2) = S_w_y - 2 beta2' S_w_xy + beta2' S_w_x beta2,

the Gaussian log-likelihood, dropping constants free of the parameters, is

    l(omega) = (1/2) sum_i log tau_i - ((n-g)/2) log sigma_e_sq
               - Q(beta2) / (2 sigma_e_sq) - (1/2) sum_i tau_i r_i^2.

Its gradient is the estimating function psi(omega).  Only the sufficient
statistics enter, so both are O(g) per evaluation.

The score is written once in the order (beta, sigma_alpha_sq, sigma_e_sq),
beta in the column order of Z, and mapped to the canonical order (beta0,
beta1, sigma_alpha_sq, beta2, sigma_e_sq) by one permutation built from
:func:`nerm.model.parameter_layout`.  With d_i = (1, 1/m_i), the derivative
of tau_i in (sigma_alpha_sq, sigma_e_sq) is -tau_i^2 d_i.
"""

from __future__ import annotations

import numpy as np

from .model import ParameterVector, SufficientStats, parameter_layout, tau

__all__ = [
    "log_likelihood",
    "score",
]


def _canonical(stats: SufficientStats) -> np.ndarray:
    """Canonical positions of (beta, sigma_alpha_sq, sigma_e_sq)."""
    dim, i0, i1, ia, i2, ie = parameter_layout(stats.p_b, stats.p_w)
    pos = np.arange(dim)
    return np.r_[i0, pos[i1], pos[i2], ia, ie]


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
    m = stats.m.astype(float)
    t = tau(omega.theta, m)
    d = np.stack((np.ones_like(m), 1.0 / m))   # the rows d_i, as (2, g)
    tr = t * (stats.ybar - stats.Z @ omega.beta)
    se = omega.sigma_e_sq
    l_beta = stats.Z.T @ tr
    l_beta[1 + stats.p_b:] += (stats.S_w_xy - stats.S_w_x @ omega.beta2) / se
    l_theta = 0.5 * d @ (tr * tr - t)
    # two divisions: se * se underflows to 0 for se below about 1e-162
    l_theta[1] += _Q(stats, omega.beta2) / se / (2.0 * se) \
        - 0.5 * (stats.n - stats.g) / se
    out = np.empty(l_beta.size + 2)
    out[_canonical(stats)] = np.concatenate((l_beta, l_theta))
    return out
