"""Profiling, the REML adjustment, and the ML/REML optimizers.

The optimizer checks are all against independent routes: a dense GLS solve
for the profiled coefficients, finite differences of the restricted
objective for the adjusted score, closed forms for a two-cluster balanced
fixture, and brute-force grids over the variance components.
"""

import math

import numpy as np
import pytest

from nerm.asymptotics import intervals
from nerm.errors import (
    DegenerateWithinDesign,
    InvalidConfig,
    RaggedCovariates,
    SingularDelta,
)
from nerm.estimation import (
    _rows,
    _solve,
    fit_batch,
    fit_ml,
    fit_reml,
    profile_beta,
)
from nerm.model import (
    ClusteredDataset,
    ParameterVector,
    parameter_layout,
    sufficient_stats,
    sufficient_stats_batch,
)
from nerm.simulation import (
    RandomCovariates,
    SimConfig,
    generate_dataset,
    parse_distribution,
)

from .helpers import (
    Cluster,
    adjusted_score,
    best_feasible_gain,
    close,
    clusters,
    fd_gradient,
    grid_objective,
    log_likelihood,
    make_dataset,
    pack,
    profiled_objective,
    profiled_per_cluster,
    random_dataset,
    random_omega,
    reml_criterion,
    score,
    score_jacobian,
)

TWO_CLUSTER = make_dataset([[1.0, 2.0], [3.0, 4.0]])


def _dense_gls_beta(ds, theta):
    """Stacked GLS coefficients via the full covariance; oracle route."""
    sa, se = theta
    rows, X = [], []
    for c in clusters(ds):
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
    s = score(st, om)
    _, i0, i1, _, i2, _ = parameter_layout(2, 1)
    assert abs(s[i0]) < 1e-9
    assert np.all(np.abs(s[i1]) < 1e-9)
    assert np.all(np.abs(s[i2]) < 1e-9)


@pytest.mark.parametrize("p_b", [0, 1, 2])
@pytest.mark.parametrize("p_w", [0, 1, 2])
def test_coefficient_block_of_the_jacobian_is_minus_delta(p_b, p_w):
    # the likelihood's derivative matrix, permuted to the canonical order,
    # and the normal-equation matrix Delta = M(gamma) / sigma_e_sq of the
    # estimation module must be one matrix over the coefficients
    rng = np.random.default_rng(37 + 3 * p_b + p_w)
    dim, i0, i1, _, i2, _ = parameter_layout(p_b, p_w)
    pos = np.arange(dim)
    coef = np.r_[i0, pos[i1], pos[i2]]
    for _ in range(5):
        ds, _ = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=5,
                               p_b=p_b, p_w=p_w)
        st = sufficient_stats(ds)
        om = random_omega(rng, p_b, p_w)
        _, delta = profile_beta(st, om.theta)
        block = -score_jacobian(st, om)[np.ix_(coef, coef)]
        assert np.max(np.abs(block - delta)) <= 1e-12 * np.max(np.abs(delta))


def test_profile_rejects_collinear_design():
    # duplicate the intercept as a between covariate
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], x_b=[[1.0], [1.0]], p_b=1)
    st = sufficient_stats(ds)
    with pytest.raises(SingularDelta):
        profile_beta(st, (1.0, 1.0))


def _uneven_dataset(x_b_of=None):
    """p_b = p_w = 2 over 13 clusters of sizes 1 (four singletons), 2 (one
    cluster, fewer than q + 1 = 6) and 5 (eight), shuffled."""
    rng = np.random.default_rng(43)
    sizes = rng.permutation([1] * 4 + [2] + [5] * 8)
    records = []
    for i, m in enumerate(sizes):
        x_b = rng.normal(size=2) if x_b_of is None else x_b_of(rng)
        x_w = rng.normal(size=(m, 2))
        y = 0.3 + x_b @ [0.5, -1.0] + x_w @ [0.8, 0.2] + rng.normal() \
            + rng.normal(size=m)
        records.append(Cluster(f"k{i}", y, x_b, x_w))
    return pack(records, p_b=2, p_w=2)


@pytest.mark.parametrize("reml", [False, True])
def test_stacked_solve_matches_the_per_cluster_assembly(reml):
    st = sufficient_stats(_uneven_dataset())
    assert list(st.sizes) == [1, 2, 5] and list(st.counts) == [4, 1, 8]
    gammas = np.array([0.0, 1e-8, 0.03, 0.7, 1.0, 12.0, 1e4])
    got = _solve(_rows([st], [reml]), gammas[None])
    for i, gamma in enumerate(gammas):
        value, slope, beta, se = profiled_per_cluster(st, gamma, reml)
        assert close(got.value[0, i], value, 1e-12, floor=0.0)
        assert close(got.slope[0, i], slope, 1e-12, floor=0.0)
        assert close(got.beta[0, i], beta, 1e-12, floor=0.0)
        assert close(got.sigma_e_sq[0, i], se, 1e-12, floor=0.0)


def test_stacked_solve_rejects_collinear_design_at_gamma_zero():
    # the second between covariate is twice the first
    ds = _uneven_dataset(lambda rng: np.array([1.0, 2.0]) * rng.normal())
    st = sufficient_stats(ds)
    with pytest.raises(SingularDelta):
        _solve(_rows([st], [False]), [[0.0]])
    for fit in (fit_ml, fit_reml):
        with pytest.raises(SingularDelta):
            fit(ds)
    # collinearity is decided once per dataset, so no gamma escapes it
    # through a rounding-level pivot of the factorization
    for gamma in (1e-8, 0.5, 1.0, 2.0, 3.0, 10.0, 1e3):
        for reml in (False, True):
            with pytest.raises(SingularDelta):
                _solve(_rows([st], [reml]), [[gamma]])
        with pytest.raises(SingularDelta):
            profile_beta(st, (gamma, 1.0))


def test_a_design_singular_at_one_gamma_fails_alone_in_its_batch():
    # the between covariate is the intercept to 5e-8: M(0) factors, so the
    # design is not collinear, but M(gamma) fails to factor at a scanned gamma
    def dataset(x_b):
        return ClusteredDataset(
            y=[-0.6259065236416427, 0.3331816847010001, -2.4575635902058073,
               3.1000422989145844, -0.698650730461769, -0.7298350527255578],
            x_w=[[0.03952289053338441], [-1.3610593983050674],
                 [0.027994264249169242], [-0.05486311801846381],
                 [0.8987397888581683], [-0.9147903518132915]],
            x_b=x_b, offsets=[0, 2, 4, 6], ids=["a", "b", "c"])

    near = dataset([[1.0000000152041297], [0.9999999568168915], [0.9999999747115891]])
    good = [dataset([[0.3], [1.2], [-0.5]]), dataset([[2.0], [-1.0], [0.4]])]
    assert not sufficient_stats(near).collinear
    for fit in (fit_ml, fit_reml):
        with pytest.raises(SingularDelta):
            fit(near)
    first, middle, last = fit_batch([good[0], near, good[1]])
    assert [type(f) for f in middle] == [SingularDelta, SingularDelta]
    assert [first, last] == [[fit_ml(ds), fit_reml(ds)] for ds in good]
    with pytest.raises(InvalidConfig):
        fit_batch(good, ("ml", "gls"))


def test_a_stack_takes_datasets_of_one_cluster_layout(monkeypatch):
    # every stacked call on datasets takes one cluster layout (offsets,
    # p_b and p_w) and raises RaggedCovariates on any other stack before
    # any work: a mixed stack would give intervals read off the first
    # dataset's cluster sizes, or fail with a bare numpy error
    rng = np.random.default_rng(23)

    def dataset(offsets, p_b=1, p_w=1):
        g, n = len(offsets) - 1, offsets[-1]
        return ClusteredDataset(y=rng.normal(size=n), x_w=rng.normal(size=(n, p_w)),
                                x_b=rng.normal(size=(g, p_b)), offsets=offsets,
                                ids=[f"c{k}" for k in range(g)])

    a = dataset([0, 2, 4, 9, 12, 20])
    b = dataset([0, 8, 10, 13, 18, 20])         # other cluster sizes
    c = dataset([0, 2, 4, 9, 12, 21])           # other n
    d = dataset([0, 2, 4, 9, 12, 20], p_b=2)    # other p_b
    e = dataset([0, 2, 4, 9, 12, 20, 23])       # other g and n
    f = dataset([0, 2, 4, 9, 12, 20], p_w=2)    # other p_w
    for other in (b, c, d):
        with pytest.raises(RaggedCovariates):
            sufficient_stats_batch([a, other])
        with pytest.raises(RaggedCovariates):
            fit_batch([a, other])
    assert not any("_stats" in ds.__dict__ for ds in (a, b, c, d))   # no work
    fits = {id(ds): fit_ml(ds) for ds in (a, b, c, d, e, f)}

    def no_work(*args):
        raise AssertionError("limits or moments computed")

    # what the whole stack shares is checked once, before any limit or moment
    with monkeypatch.context() as mp:
        mp.setattr("nerm.asymptotics.estimate_moments", no_work)
        mp.setattr("nerm.asymptotics.CovariateLimits.from_datasets", no_work)
        for other in (b, c, d):
            with pytest.raises(RaggedCovariates):
                intervals([a, other], [fits[id(a)], fits[id(other)]], 0.05)
        with pytest.raises(RaggedCovariates):   # one fit for two datasets
            intervals([a, a], [fits[id(a)]], 0.05)
        for other in (d, e, f):   # a fit of another dataset's g, n, p_b or p_w
            with pytest.raises(RaggedCovariates):
                intervals([a, a], [fits[id(a)], fits[id(other)]], 0.05)
        for gamma in (2.0, math.nan):
            for stack in (([a, a], [fits[id(a)]] * 2), ([], [])):
                with pytest.raises(InvalidConfig, match="gamma"):
                    intervals(*stack, gamma)
    for ds in (a, b, c, d):   # each alone, or stacked with itself
        assert fit_batch([ds, ds]) == [[fit_ml(ds), fit_reml(ds)]] * 2
        assert intervals([ds, ds], [fits[id(ds)]] * 2, 0.05) \
            == intervals([ds], [fits[id(ds)]], 0.05) * 2


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
        adj = adjusted_score(st, om)
        fd = fd_gradient(lambda th: reml_criterion(st, th), theta)
        _, i0, _, ia, i2, ie = parameter_layout(1, 1)
        assert close(adj[ia], fd[0], rtol=1e-5)
        assert close(adj[ie], fd[1], rtol=1e-5)
        # coefficient entries are untouched by the adjustment
        plain = score(st, om)
        assert adj[i0] == plain[i0]
        assert np.array_equal(adj[i2], plain[i2])


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
        reml_criterion(sufficient_stats(TWO_CLUSTER), fit.omega_hat.theta),
        abs=1e-12)


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
    grid = np.exp(np.linspace(np.log(th_hat) - 3.0, np.log(th_hat) + 3.0, 201))
    ta, te = (t.ravel() for t in np.meshgrid(grid[:, 0], grid[:, 1], indexing="ij"))
    values = grid_objective(st, np.r_[th_hat[0], ta], np.r_[th_hat[1], te], reml)
    worst_gap = min(0.0, float(np.min(values[0] - values[1:])))   # values[0]: the fit
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
            return reml_criterion(st, theta)
        beta, _ = profile_beta(st, theta)
        om = ParameterVector(beta[0], beta[1:2], theta[0], beta[2:], theta[1])
        return log_likelihood(st, om)

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
    assert np.linalg.norm(score(st, ml.omega_hat)) == pytest.approx(ml.score_norm)
    rm = fit_reml(ds)
    assert rm.converged
    assert np.linalg.norm(adjusted_score(st, rm.omega_hat)) == pytest.approx(
        rm.score_norm)


# ---------------------------------------------------------------------------
# equivariance and reporting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reml", [False, True])
def test_fit_is_affine_equivariant_in_y(reml):
    rng = np.random.default_rng(37)
    ds, _ = random_dataset(rng, g=7, m_max=6, p_b=1, p_w=1, m_min=2)
    a, b = 3.0, -2.0
    scaled = make_dataset(
        [a * c.y + b for c in clusters(ds)],
        [c.x_b for c in clusters(ds)],
        [c.x_w for c in clusters(ds)],
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


def test_iterations_count_the_gamma_values_evaluated():
    # the stacked scan counts its 18 points; a fit on the bound brackets
    # no root and evaluates nothing else, an interior fit goes on solving
    ds = make_dataset([[-1.0, 1.0], [-2.0, 2.0], [-3.0, 3.0]])
    assert [fit(ds).iterations for fit in (fit_ml, fit_reml)] == [18, 18]
    assert fit_ml(TWO_CLUSTER).iterations > 18


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


def _with_x_w_scaled(ds, scale):
    return type(ds)(y=ds.y, x_w=ds.x_w * scale, x_b=ds.x_b,
                    offsets=ds.offsets, ids=ds.ids)


@pytest.mark.parametrize("fit", [fit_ml, fit_reml])
def test_within_rank_test_does_not_depend_on_units(fit):
    ds, _ = random_dataset(np.random.default_rng(44), g=30, m_max=6,
                           p_b=1, p_w=2)
    ref = fit(ds).omega_hat.beta2
    for scale in (1e-20, 1e-8, 1e8):
        got = fit(_with_x_w_scaled(ds, scale)).omega_hat.beta2 * scale
        assert close(got, ref, 1e-8, floor=0.0), scale


@pytest.mark.parametrize("fit", [fit_ml, fit_reml])
def test_between_covariates_fit_in_any_units_or_offset(fit):
    # neither units nor a between covariate far from zero next to its
    # spread make the collinearity test at gamma = 0 call the design
    # singular (the fit itself loses digits to the offset, 2e-3 here:
    # ROADMAP item 3)
    ds, _ = random_dataset(np.random.default_rng(45), g=30, m_max=6,
                           p_b=2, p_w=1)
    ref = fit(ds).omega_hat
    for scale, shift, tol in ((1e-20, 0.0, 1e-8), (1e8, 0.0, 1e-8),
                              (1.0, 1e6, 1e-2)):
        got = fit(type(ds)(y=ds.y, x_w=ds.x_w, x_b=ds.x_b * scale + shift,
                           offsets=ds.offsets, ids=ds.ids)).omega_hat
        assert close(got.beta1 * scale, ref.beta1, tol, floor=0.0), scale
        assert close(got.sigma_alpha_sq, ref.sigma_alpha_sq, tol,
                     floor=0.0), scale


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_covariate_constant_within_clusters_raises_at_any_scale(scale):
    # 0.1, 0.7 and 0.3 are not binary fractions: the within deviations are
    # rounding noise, not zeros
    ds = make_dataset([[1.0, 2.0, 3.0], [3.0, 4.0, 5.0], [2.0, 2.0, 7.0]],
                      x_w=[[[v]] * 3 for v in (0.1, 0.7, 0.3)], p_w=1)
    with pytest.raises(DegenerateWithinDesign):
        fit_ml(_with_x_w_scaled(ds, scale))


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
