"""Likelihood, score and score derivatives against independent oracles.

The load-bearing comparisons are (a) likelihood differences against a dense
multivariate normal density, (b) analytic derivatives against central finite
differences, and (c) the expected derivative matrix against a Monte Carlo
average over freshly simulated responses on a fixed design.
"""

import math

import numpy as np
import pytest

from nerm.likelihood import (
    expected_score_jacobian,
    log_likelihood,
    score,
    score_jacobian,
)
from nerm.model import Cluster, ClusteredDataset, ParameterVector, sufficient_stats

from .helpers import (
    close,
    dense_mvn_loglik,
    fd_gradient,
    fd_jacobian,
    make_dataset,
    random_dataset,
    random_omega,
    score_jacobian_rows,
)


def _loglik_of_flat(ds, stats, p_b, p_w):
    def f(flat):
        return log_likelihood(ds, stats, ParameterVector.from_flat(flat, p_b, p_w))
    return f


# ---------------------------------------------------------------------------
# closed-form spot values
# ---------------------------------------------------------------------------

def test_loglik_single_pair_at_unit_variances():
    # g=1 pathological inputs are fine at this layer (validation is upstream):
    # m=2, y=(0,0), all parameters 1: tau = 2/3, Q = 0, r = -1,
    # l = log(2/3)/2 - log(1)/2 - 0 - (2/3)/2 = log(2/3)/2 - 1/3
    ds = make_dataset([[0.0, 0.0]])
    st = sufficient_stats(ds)
    om = ParameterVector(1.0, [], 1.0, [], 1.0)
    assert log_likelihood(ds, st, om) == pytest.approx(
        0.5 * math.log(2.0 / 3.0) - 1.0 / 3.0, abs=1e-14)


def test_loglik_singleton_cluster_zero_case():
    # m=1, y = beta0, unit variances: tau = 1/2, r = 0, n - g = 0, Q = 0
    ds = make_dataset([[3.0]])
    st = sufficient_stats(ds)
    om = ParameterVector(3.0, [], 1.0, [], 1.0)
    assert log_likelihood(ds, st, om) == pytest.approx(0.5 * math.log(0.5), abs=1e-14)


def test_score_balanced_means_cancel():
    # ybar = (+1, -1) with identical tau and beta0 = 0: l_beta0 sums to zero
    ds = make_dataset([[1.0, 1.0], [-1.0, -1.0]])
    st = sufficient_stats(ds)
    om = ParameterVector(0.0, [], 1.0, [], 1.0)
    assert score(ds, st, om).l_beta0 == pytest.approx(0.0, abs=1e-14)


def test_jacobian_beta0_cell_is_minus_tau_sum():
    ds = make_dataset([[1.0], [2.0]])
    st = sufficient_stats(ds)
    om = ParameterVector(0.0, [], 1.0, [], 1.0)   # tau = 1/2 each
    J = score_jacobian(ds, st, om)
    assert J.matrix[0, 0] == pytest.approx(-1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# dense multivariate normal oracle
# ---------------------------------------------------------------------------

def test_loglik_differences_match_dense_mvn():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = int(rng.integers(2, 8))
        ds, _ = random_dataset(rng, g=g, m_max=6,
                               p_b=int(rng.integers(0, 3)),
                               p_w=int(rng.integers(0, 3)))
        st = sufficient_stats(ds)
        om1 = random_omega(rng, ds.p_b, ds.p_w)
        om2 = random_omega(rng, ds.p_b, ds.p_w)
        mine = log_likelihood(ds, st, om1) - log_likelihood(ds, st, om2)
        dense = dense_mvn_loglik(ds, om1) - dense_mvn_loglik(ds, om2)
        assert close(mine, dense, rtol=1e-10)


def test_loglik_offset_is_the_known_constant():
    rng = np.random.default_rng(22)
    ds, om = random_dataset(rng, g=5, m_max=5, p_b=1, p_w=1)
    st = sufficient_stats(ds)
    const = 0.5 * st.n * math.log(2.0 * math.pi) \
        + 0.5 * float(np.sum(np.log(st.m)))
    diff = log_likelihood(ds, st, om) - dense_mvn_loglik(ds, om)
    assert diff == pytest.approx(const, rel=1e-12)


# ---------------------------------------------------------------------------
# finite-difference checks
# ---------------------------------------------------------------------------

def test_score_matches_fd_gradient():
    rng = np.random.default_rng(23)
    for _ in range(8):
        ds, _ = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=6,
                               p_b=int(rng.integers(0, 3)),
                               p_w=int(rng.integers(0, 3)))
        st = sufficient_stats(ds)
        om = random_omega(rng, ds.p_b, ds.p_w)
        f = _loglik_of_flat(ds, st, ds.p_b, ds.p_w)
        assert close(score(ds, st, om).flat, fd_gradient(f, om.flatten()),
                     rtol=1e-5)


def test_jacobian_matches_fd_of_score():
    rng = np.random.default_rng(24)
    for _ in range(6):
        ds, _ = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=6,
                               p_b=int(rng.integers(0, 3)),
                               p_w=int(rng.integers(0, 3)))
        st = sufficient_stats(ds)
        om = random_omega(rng, ds.p_b, ds.p_w)

        def psi(flat):
            return score(ds, st, ParameterVector.from_flat(
                flat, ds.p_b, ds.p_w)).flat

        J = score_jacobian(ds, st, om).matrix
        assert close(J, fd_jacobian(psi, om.flatten()), rtol=1e-4)


def test_jacobian_is_symmetric():
    rng = np.random.default_rng(25)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=2, p_w=2)
    st = sufficient_stats(ds)
    om = random_omega(rng, 2, 2)
    J = score_jacobian(ds, st, om).matrix
    assert np.allclose(J, J.T, atol=1e-10)


def test_jacobian_block_views_tile_the_matrix():
    rng = np.random.default_rng(26)
    ds, _ = random_dataset(rng, g=5, m_max=4, p_b=1, p_w=2)
    st = sufficient_stats(ds)
    J = score_jacobian(ds, st, random_omega(rng, 1, 2))
    nb = 1 + 2  # beta0, beta1, sigma_alpha_sq
    assert J.bb.shape == (nb, nb)
    assert J.ww.shape == (3, 3)
    top = np.hstack([J.bb, J.bw])
    bottom = np.hstack([J.wb, J.ww])
    assert np.array_equal(np.vstack([top, bottom]), J.matrix)


def test_jacobian_rows_picks_row_per_parameter():
    rng = np.random.default_rng(27)
    ds, _ = random_dataset(rng, g=5, m_max=5, p_b=1, p_w=1)
    st = sufficient_stats(ds)
    omegas = [random_omega(rng, 1, 1) for _ in range(5)]
    rows = score_jacobian_rows(ds, st, omegas)
    for k, om in enumerate(omegas):
        assert np.allclose(rows[k], score_jacobian(ds, st, om).matrix[k])
    with pytest.raises(ValueError):
        score_jacobian_rows(ds, st, omegas[:-1])


# ---------------------------------------------------------------------------
# expectations: Monte Carlo on a fixed design
# ---------------------------------------------------------------------------

def _simulate_on_design(rng, design, omega):
    clusters = []
    for c, (xb, xw) in zip(design.clusters, design_covs(design)):
        alpha = rng.normal(scale=math.sqrt(omega.sigma_alpha_sq))
        e = rng.normal(scale=math.sqrt(omega.sigma_e_sq), size=c.m)
        y = omega.beta0 + xb @ omega.beta1 + xw @ omega.beta2 + alpha + e
        clusters.append(Cluster(c.id, y, xb, xw))
    return ClusteredDataset.from_clusters(clusters, p_b=design.p_b, p_w=design.p_w)


def design_covs(ds):
    return [(c.x_b, c.x_w) for c in ds.clusters]


def test_score_has_mean_zero_at_truth():
    rng = np.random.default_rng(28)
    design, om_dot = random_dataset(rng, g=6, m_max=5, p_b=1, p_w=1, m_min=2)
    reps = 4000
    acc = np.zeros(5)
    acc2 = np.zeros(5)
    for _ in range(reps):
        ds = _simulate_on_design(rng, design, om_dot)
        s = score(ds, sufficient_stats(ds), om_dot).flat
        acc += s
        acc2 += s * s
    mean = acc / reps
    se = np.sqrt((acc2 / reps - mean**2) / reps)
    assert np.all(np.abs(mean) <= 4.0 * se + 1e-12)


def test_expected_jacobian_matches_monte_carlo():
    # Evaluate the derivative matrix away from the generating parameters so
    # every substitution (mean residual, squared residual, E Q, E S_w_xy)
    # is actually exercised.
    rng = np.random.default_rng(29)
    design, om_dot = random_dataset(rng, g=6, m_max=5, p_b=1, p_w=1, m_min=2)
    om_eval = random_omega(rng, 1, 1)
    reps = 4000
    dim = 5
    acc = np.zeros((dim, dim))
    acc2 = np.zeros((dim, dim))
    for _ in range(reps):
        ds = _simulate_on_design(rng, design, om_dot)
        J = score_jacobian(ds, sufficient_stats(ds), om_eval).matrix
        acc += J
        acc2 += J * J
    mean = acc / reps
    se = np.sqrt(np.maximum(acc2 / reps - mean**2, 0.0) / reps)
    expected = expected_score_jacobian(
        design, sufficient_stats(design), om_eval, om_dot).matrix
    assert np.all(np.abs(mean - expected) <= 4.0 * se + 1e-10)


def test_expected_jacobian_at_truth_equals_observed_information_mean():
    # At omega = omega_dot the expected matrix must agree with the plain
    # Jacobian when the data carry no noise (Degenerate residuals): build
    # that limit directly with r == 0 and Q == E Q.
    rng = np.random.default_rng(30)
    design, om_dot = random_dataset(rng, g=5, m_max=4, p_b=1, p_w=1, m_min=2)
    st = sufficient_stats(design)
    E = expected_score_jacobian(design, st, om_dot, om_dot)
    # beta rows never involve the random pieces, so they must match exactly
    J = score_jacobian(design, st, om_dot)
    idx = [0, 1, 3]  # beta0, beta1[0], beta2[0]
    assert np.allclose(E.matrix[np.ix_(idx, idx)], J.matrix[np.ix_(idx, idx)])
