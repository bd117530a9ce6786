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

from typing import Sequence

import numpy as np

from .model import SufficientStats, parameter_layout

__all__ = [
    "likelihood_batch",
]


def likelihood_batch(stats: Sequence[SufficientStats],
                     omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood and score of every row at once.

    Args:
        stats: sufficient statistics, one per row, all with the same number
            of clusters and covariates.
        omegas: (rows, dim) interior parameter vectors, flat in the
            canonical order.

    Returns:
        (l, psi): l(omega) up to an additive constant, shape (rows,), and
        its gradient psi(omega), shape (rows, dim) in the canonical order,
        each row computed from its own statistics alone.
    """
    first = stats[0]
    dim, i0, i1, ia, i2, ie = parameter_layout(first.p_b, first.p_w)
    pos = np.arange(dim)
    canonical = np.r_[i0, pos[i1], pos[i2], ia, ie]   # of (beta, theta)
    omegas = np.asarray(omegas, dtype=float)
    beta, beta2 = omegas[:, canonical[:-2]], omegas[:, i2]
    sa, se = omegas[:, ia, None], omegas[:, ie]
    m = np.stack([s.m for s in stats]).astype(float)
    Z = np.stack([s.Z for s in stats])
    S_w_xy = np.stack([s.S_w_xy for s in stats])
    S_w_x = np.stack([s.S_w_x for s in stats])
    within = np.array([s.n - s.g for s in stats])
    t = m / (se[:, None] + m * sa)                         # tau_i
    r = np.stack([s.ybar for s in stats]) - np.matvec(Z, beta)
    Q = np.array([s.S_w_y for s in stats]) - 2.0 * np.vecdot(S_w_xy, beta2) \
        + np.vecdot(np.vecmat(beta2, S_w_x), beta2)
    value = 0.5 * np.sum(np.log(t), axis=1) - 0.5 * within * np.log(se) \
        - Q / (2.0 * se) - 0.5 * np.sum(t * r * r, axis=1)
    tr = t * r
    l_beta = np.vecmat(tr, Z)
    l_beta[:, 1 + first.p_b:] += (S_w_xy - np.matvec(S_w_x, beta2)) / se[:, None]
    d = np.stack((np.ones_like(m), 1.0 / m), axis=1)       # the rows d_i, (B, 2, g)
    l_theta = np.matvec(0.5 * d, tr * tr - t)
    # two divisions: se * se underflows to 0 for se below about 1e-162
    l_theta[:, 1] += Q / se / (2.0 * se) - 0.5 * within / se
    psi = np.empty_like(omegas)
    psi[:, canonical] = np.concatenate((l_beta, l_theta), axis=1)
    return value, psi
