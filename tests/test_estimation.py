"""Profiling, the REML adjustment, and the ML/REML optimizers.

The optimizer checks are all against independent routes: a dense GLS solve
for the profiled coefficients, finite differences of the restricted
objective for the adjusted score, closed forms for a two-cluster balanced
fixture, and brute-force grids over the variance components.
"""

import math

import numpy as np
import pytest

from nerm.errors import DegenerateWithinDesign, SingularDelta
from nerm.estimation import (
    adjusted_score,
    fit_ml,
    fit_reml,
    profile_beta,
    reml_criterion,
)
from nerm.likelihood import log_likelihood, score
from nerm.model import ParameterVector, sufficient_stats
from nerm.simulation import (
    RandomCovariates,
    SimConfig,
    generate_dataset,
    parse_distribution,
)

from .helpers import (
    best_feasible_gain,
    close,
    fd_gradient,
    make_dataset,
    profiled_objective,
    random_dataset,
)

TWO_CLUSTER = make_dataset([[1.0, 2.0], [3.0, 4.0]])


def _dense_gls_beta(ds, theta):
    """Stacked GLS coefficients via the full covariance; oracle route."""
    sa, se = theta
    rows, X = [], []
    for c in ds.clusters:
        V = se * np.eye(c.m) + sa * np.ones((c.m, c.m))
        Xi = np.hstack([np.ones((c.m, 1)),
                        np.tile(c.x_b, (c.m, 1)),
                        c.x_w])
        Vi_inv = np.linalg.inv(V)
        rows.append((Xi.T @ Vi_inv @ Xi, Xi.T @ Vi_inv @ c.y))
        X.append(Xi)
    lhs = sum(r[0] for r in rows)
    rhs = sum(r[1] for r in rows)
    return np.linalg.solve(lhs, rhs)


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------

def test_profile_beta_matches_dense_gls():
    rng = np.random.default_rng(31)
    for _ in range(6):
        ds, _ = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=6,
                               p_b=int(rng.integers(0, 3)),
                               p_w=int(rng.integers(0, 3)), m_min=2)
        st = sufficient_stats(ds)
        theta = (rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        beta, _ = profile_beta(st, theta)
        assert np.allclose(beta, _dense_gls_beta(ds, theta), rtol=1e-9, atol=1e-9)


def test_profile_beta_zeroes_the_coefficient_score():
    rng = np.random.default_rng(32)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=2, p_w=1, m_min=2)
    st = sufficient_stats(ds)
    theta = (0.8, 1.4)
    beta, _ = profile_beta(st, theta)
    om = ParameterVector(beta[0], beta[1:3], theta[0], beta[3:], theta[1])
    s = score(ds, st, om)
    assert abs(s.l_beta0) < 1e-9
    assert np.all(np.abs(s.l_beta1) < 1e-9)
    assert np.all(np.abs(s.l_beta2) < 1e-9)


def test_profile_rejects_collinear_design():
    # duplicate the intercept as a between covariate
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], x_b=[[1.0], [1.0]], p_b=1)
    st = sufficient_stats(ds)
    with pytest.raises(SingularDelta):
        profile_beta(st, (1.0, 1.0))


# ---------------------------------------------------------------------------
# REML adjustment
# ---------------------------------------------------------------------------

def test_adjusted_score_is_gradient_of_restricted_objective():
    rng = np.random.default_rng(33)
    for _ in range(5):
        ds, _ = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=6,
                               p_b=1, p_w=1, m_min=2)
        st = sufficient_stats(ds)
        theta = np.array([rng.uniform(0.4, 1.8), rng.uniform(0.4, 1.8)])
        beta, _ = profile_beta(st, theta)
        om = ParameterVector(beta[0], beta[1:2], theta[0], beta[2:], theta[1])
        adj = adjusted_score(ds, st, om)
        fd = fd_gradient(lambda th: reml_criterion(ds, st, th), theta)
        assert close(adj.l_sigma_alpha_sq, fd[0], rtol=1e-5)
        assert close(adj.l_sigma_e_sq, fd[1], rtol=1e-5)
        # coefficient entries are untouched by the adjustment
        plain = score(ds, st, om)
        assert adj.l_beta0 == plain.l_beta0
        assert np.array_equal(adj.l_beta2, plain.l_beta2)


# ---------------------------------------------------------------------------
# two-cluster closed forms
# ---------------------------------------------------------------------------

def test_ml_two_cluster_fixture():
    fit = fit_ml(TWO_CLUSTER)
    assert fit.converged and not fit.boundary_flag
    assert fit.omega_hat.beta0 == pytest.approx(2.5, abs=1e-6)
    assert fit.omega_hat.sigma_alpha_sq == pytest.approx(0.75, abs=1e-6)
    assert fit.omega_hat.sigma_e_sq == pytest.approx(0.5, abs=1e-6)


def test_reml_two_cluster_fixture():
    fit = fit_reml(TWO_CLUSTER)
    assert fit.converged and not fit.boundary_flag
    assert fit.omega_hat.beta0 == pytest.approx(2.5, abs=1e-6)
    assert fit.omega_hat.sigma_alpha_sq == pytest.approx(1.75, abs=1e-6)
    assert fit.omega_hat.sigma_e_sq == pytest.approx(0.5, abs=1e-6)
    # restricted objective at the optimum is what the result reports
    assert fit.loglik_at_opt == pytest.approx(
        reml_criterion(TWO_CLUSTER, sufficient_stats(TWO_CLUSTER),
                       fit.omega_hat.theta), abs=1e-12)


# ---------------------------------------------------------------------------
# the optimum really is the optimum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reml", [False, True])
def test_fit_beats_a_dense_grid(reml):
    rng = np.random.default_rng(34)
    ds, _ = random_dataset(rng, g=5, m_max=6, p_b=1, p_w=1, m_min=2)
    st = sufficient_stats(ds)
    fit = (fit_reml if reml else fit_ml)(ds)
    th_hat = np.asarray(fit.omega_hat.theta)

    def objective(theta):
        if reml:
            return reml_criterion(ds, st, theta)
        beta, _ = profile_beta(st, theta)
        om = ParameterVector(beta[0], beta[1:2], theta[0], beta[2:], theta[1])
        return log_likelihood(ds, st, om)

    best = objective(th_hat)
    grid = np.exp(np.linspace(np.log(th_hat) - 3.0, np.log(th_hat) + 3.0, 201))
    worst_gap = 0.0
    for ta in grid[:, 0]:
        for te in grid[:, 1]:
            worst_gap = min(worst_gap, best - objective((ta, te)))
    assert worst_gap >= -1e-9  # nothing on the grid beats the fit


@pytest.mark.parametrize("reml", [False, True])
def test_fit_is_a_local_maximum_under_perturbation(reml):
    rng = np.random.default_rng(35)
    ds, _ = random_dataset(rng, g=8, m_max=6, p_b=1, p_w=1, m_min=2)
    fit = (fit_reml if reml else fit_ml)(ds)
    st = sufficient_stats(ds)
    th = np.asarray(fit.omega_hat.theta)

    def objective(theta):
        if reml:
            return reml_criterion(ds, st, theta)
        beta, _ = profile_beta(st, theta)
        om = ParameterVector(beta[0], beta[1:2], theta[0], beta[2:], theta[1])
        return log_likelihood(ds, st, om)

    base = objective(th)
    for _ in range(100):
        cand = th * np.exp(rng.uniform(-0.05, 0.05, size=2))
        assert objective(cand) <= base + 1e-10


def test_fit_score_norm_small_at_interior_optimum():
    rng = np.random.default_rng(36)
    ds, _ = random_dataset(rng, g=12, m_max=8, p_b=1, p_w=1, m_min=2)
    st = sufficient_stats(ds)
    ml = fit_ml(ds)
    assert ml.converged
    assert score(ds, st, ml.omega_hat).norm() == pytest.approx(ml.score_norm)
    rm = fit_reml(ds)
    assert rm.converged
    assert adjusted_score(ds, st, rm.omega_hat).norm() == pytest.approx(rm.score_norm)


# ---------------------------------------------------------------------------
# equivariance and reporting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reml", [False, True])
def test_fit_is_affine_equivariant_in_y(reml):
    rng = np.random.default_rng(37)
    ds, _ = random_dataset(rng, g=7, m_max=6, p_b=1, p_w=1, m_min=2)
    a, b = 3.0, -2.0
    scaled = make_dataset(
        [a * c.y + b for c in ds.clusters],
        [c.x_b for c in ds.clusters],
        [c.x_w for c in ds.clusters],
        p_b=1, p_w=1)
    f1 = (fit_reml if reml else fit_ml)(ds)
    f2 = (fit_reml if reml else fit_ml)(scaled)
    om1, om2 = f1.omega_hat, f2.omega_hat
    assert om2.beta0 == pytest.approx(a * om1.beta0 + b, rel=1e-6, abs=1e-6)
    assert np.allclose(om2.beta1, a * om1.beta1, rtol=1e-6, atol=1e-6)
    assert np.allclose(om2.beta2, a * om1.beta2, rtol=1e-6, atol=1e-6)
    assert om2.sigma_alpha_sq == pytest.approx(a * a * om1.sigma_alpha_sq, rel=1e-5)
    assert om2.sigma_e_sq == pytest.approx(a * a * om1.sigma_e_sq, rel=1e-5)


def test_boundary_flag_when_cluster_means_coincide():
    # all cluster means equal -> the between variance wants to be zero
    ds = make_dataset([[-1.0, 1.0], [-2.0, 2.0], [-3.0, 3.0]])
    fit = fit_ml(ds)
    assert fit.boundary_flag
    assert fit.omega_hat.sigma_alpha_sq < 1e-6
    assert fit.omega_hat.sigma_e_sq > 0.1


def _assert_collapsed_within_variance(fit, sa):
    assert fit.boundary_flag
    assert fit.omega_hat.sigma_e_sq < 1e-6
    assert fit.omega_hat.sigma_alpha_sq == pytest.approx(sa, abs=1e-6)


def test_boundary_flag_when_no_within_variation():
    # constant y inside each cluster -> the residual variance collapses;
    # sigma_alpha_sq is the sum of squared deviations of the means 1, 2, 5
    # (26/3) over g = 3 for ML and over g - 1 = 2 for REML
    ds = make_dataset([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
    _assert_collapsed_within_variance(fit_ml(ds), 26.0 / 9.0)


def test_boundary_flag_when_no_within_variation_reml():
    ds = make_dataset([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
    _assert_collapsed_within_variance(fit_reml(ds), 13.0 / 3.0)


def test_boundary_flag_when_within_variation_is_rounding():
    # repeated decimals: the cluster mean of 0.1, 0.1, 0.1 is not 0.1 in
    # binary, so the within deviations are rounding noise, not zero
    ds = make_dataset([[0.1] * 3, [0.2] * 3, [0.7] * 3])
    dev = np.array([0.1, 0.2, 0.7]) - 1.0 / 3.0
    _assert_collapsed_within_variance(fit_ml(ds), float(dev @ dev) / 3.0)


@pytest.mark.parametrize("fit", [fit_ml, fit_reml])
def test_fit_rejects_collinear_design(fit):
    # the between covariate duplicates the intercept
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], x_b=[[1.0], [1.0]], p_b=1)
    with pytest.raises(SingularDelta):
        fit(ds)


def _stress_config(g, m, sa, alpha_dist, e_dist):
    """`nerm simulate` defaults (p_b = p_w = 1) at sigma_e_sq = 1, seed 3."""
    return SimConfig(
        g=g, cluster_sizes=m,
        true_omega=ParameterVector(0.0, [0.5], sa, [0.5], 1.0),
        alpha_dist=parse_distribution(alpha_dist),
        e_dist=parse_distribution(e_dist),
        covariate_model=RandomCovariates(
            mu_b=[0.5], Sigma_b=np.eye(1), mu_w=[0.0],
            Upsilon_w=0.25 * np.eye(1), Sigma_w=np.eye(1)),
        seed=3, replications=150)


@pytest.mark.parametrize("g, m, sa, alpha_dist, e_dist", [
    (10, 3, 0.05, "normal", "normal"),
    (20, 2, 0.01, "lognormal(1)", "t(5)"),
    (8, 5, 1e-4, "normal", "normal"),
])
def test_small_g_fits_never_raise_and_reach_a_local_maximum(
        g, m, sa, alpha_dist, e_dist):
    # many of these fits have their ML/REML sigma_alpha_sq at zero
    cfg = _stress_config(g, m, sa, alpha_dist, e_dist)
    flagged = 0
    for k in range(cfg.replications):
        ds = generate_dataset(cfg, k)
        for reml in (False, True):
            fit = (fit_reml if reml else fit_ml)(ds)
            theta = fit.omega_hat.theta
            f0 = profiled_objective(ds, theta, reml)
            # 1e-6 leaves room for reporting zero as FLOOR * sigma_e_sq
            assert best_feasible_gain(ds, theta, reml) <= 1e-6 * (1.0 + abs(f0))
            assert fit.boundary_flag or fit.converged
            flagged += fit.boundary_flag
    assert flagged > 0


def test_rejects_within_covariate_without_variation():
    # w equals the cluster mean everywhere, so S_w_x == 0
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]],
                      x_w=[[[1.0], [1.0]], [[2.0], [2.0]]], p_w=1)
    with pytest.raises(DegenerateWithinDesign):
        fit_ml(ds)


def test_fit_reports_counts():
    fit = fit_ml(TWO_CLUSTER)
    assert (fit.g, fit.n) == (2, 4)
    assert fit.method == "ml"
    assert fit_reml(TWO_CLUSTER).method == "reml"


def test_fit_recovers_truth_on_moderate_sample():
    rng = np.random.default_rng(38)
    ds, om_dot = random_dataset(rng, g=150, m_max=12, p_b=1, p_w=1, m_min=2)
    fit = fit_ml(ds)
    assert fit.converged
    # loose: one realization, the point is that nothing is wildly off
    assert fit.omega_hat.beta0 == pytest.approx(om_dot.beta0, abs=0.5)
    assert fit.omega_hat.sigma_alpha_sq == pytest.approx(
        om_dot.sigma_alpha_sq, rel=0.6)
    assert fit.omega_hat.sigma_e_sq == pytest.approx(om_dot.sigma_e_sq, rel=0.3)
