"""Distributions, data generation, the replication engine, diagnostics.

Determinism is the backbone here: every replicate owns a stream derived
from (seed, replicate index), so the same configuration must reproduce bit
for bit, with any worker count.
"""

import json

import numpy as np
import pytest

from nerm.errors import (
    AllReplicatesFailed,
    InsufficientSequence,
    InvalidConfig,
    InvalidDistribution,
)
from nerm.model import ParameterVector, parameter_names
from nerm.simulation import (
    CenteredGamma,
    CenteredLogNormal,
    Degenerate,
    FixedCovariates,
    NormalDist,
    RandomCovariates,
    ScaledT,
    SimConfig,
    generate_dataset,
    moment_diagnostics,
    parse_distribution,
    rate_probe,
    run_replications,
)
from nerm.simulation import _diagnose_ebar


def _plain_config(**kw):
    base = dict(
        g=12, cluster_sizes=4,
        true_omega=ParameterVector(0.3, [0.5], 1.0, [0.8], 1.0),
        covariate_model=RandomCovariates(
            mu_b=[0.5], Sigma_b=[[1.0]], mu_w=[0.0],
            Upsilon_w=[[0.25]], Sigma_w=[[1.0]]),
        seed=99, replications=24,
    )
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def test_parse_distribution_tags():
    assert isinstance(parse_distribution("normal"), NormalDist)
    assert isinstance(parse_distribution("zero"), Degenerate)
    assert parse_distribution("t(7)") == ScaledT(7.0)
    assert parse_distribution("gamma(2)") == CenteredGamma(2.0)
    assert parse_distribution(" LogNormal(0.5) ") == CenteredLogNormal(0.5)


@pytest.mark.parametrize("tag", ["t(3)", "t(4)", "gamma(0)", "gamma(-1)",
                                 "lognormal(0)", "cauchy", "t(seven)", ""])
def test_parse_distribution_rejects(tag):
    with pytest.raises(InvalidDistribution):
        parse_distribution(tag)


@pytest.mark.parametrize("dist", [NormalDist(), ScaledT(7.0), ScaledT(5.5),
                                  CenteredGamma(2.0), CenteredGamma(0.5),
                                  CenteredLogNormal(0.5)])
def test_distribution_moments_match_samples(dist):
    rng = np.random.default_rng(abs(hash(repr(dist))) % 2**31)
    variance = 1.3
    x = dist.sample(rng, 1_000_000, variance)
    n = x.size
    for power, target in ((1, 0.0), (2, variance),
                          (3, dist.moment3(variance)),
                          (4, dist.moment4(variance))):
        xp = x ** power
        se = xp.std() / np.sqrt(n)
        assert abs(xp.mean() - target) <= 4.5 * se, (power, xp.mean(), target)


def test_degenerate_samples_zero():
    d = Degenerate()
    assert np.array_equal(d.sample(None, 5, 2.0), np.zeros(5))
    assert d.variance(2.0) == 0.0
    assert d.moment3(2.0) == 0.0 and d.moment4(2.0) == 0.0


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_shapes():
    om0 = ParameterVector(0.0, [], 1.0, [], 1.0)
    with pytest.raises(InvalidConfig):
        SimConfig(g=1, cluster_sizes=3, true_omega=om0)
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=3, true_omega=om0, replications=0)
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=3, true_omega=om0, gamma=1.0)
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=[3, 3], true_omega=om0).sizes
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=1, true_omega=om0)  # n == g
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=[2, 2, 0, 2], true_omega=om0)


def test_config_requires_matching_covariate_model():
    om = ParameterVector(0.0, [0.5], 1.0, [], 1.0)
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=3, true_omega=om)  # no model at all
    wrong = RandomCovariates(mu_b=[0.0, 0.0], Sigma_b=np.eye(2),
                             mu_w=np.empty(0), Upsilon_w=np.empty((0, 0)),
                             Sigma_w=np.empty((0, 0)))
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=3, true_omega=om, covariate_model=wrong)


def test_config_checks_fixed_covariates():
    om = ParameterVector(0.0, [0.5], 1.0, [], 1.0)
    fixed = FixedCovariates(x_b=np.zeros((3, 1)),
                            x_w=tuple(np.empty((2, 0)) for _ in range(3)))
    with pytest.raises(InvalidConfig):
        SimConfig(g=4, cluster_sizes=2, true_omega=om, covariate_model=fixed)


def test_random_covariates_validate_matrices():
    with pytest.raises(InvalidConfig):
        RandomCovariates(mu_b=[0.0], Sigma_b=[[1.0, 0.0]], mu_w=[0.0],
                         Upsilon_w=[[0.1]], Sigma_w=[[1.0]])
    with pytest.raises(InvalidConfig):
        RandomCovariates(mu_b=[0.0], Sigma_b=[[-1.0]], mu_w=[0.0],
                         Upsilon_w=[[0.1]], Sigma_w=[[1.0]])


def test_random_covariates_limits():
    cov = RandomCovariates(mu_b=[0.5], Sigma_b=[[2.0]], mu_w=[1.0],
                           Upsilon_w=[[0.25]], Sigma_w=[[0.5]])
    lim = cov.limits()
    assert lim.c1.tolist() == [0.5]
    assert lim.C2.tolist() == [[2.25]]
    assert lim.C3.tolist() == [[0.5]]


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_generate_dataset_is_deterministic():
    cfg = _plain_config()
    a = generate_dataset(cfg, replicate_index=3)
    b = generate_dataset(cfg, replicate_index=3)
    for ca, cb in zip(a.clusters, b.clusters):
        assert np.array_equal(ca.y, cb.y)
        assert np.array_equal(ca.x_b, cb.x_b)
        assert np.array_equal(ca.x_w, cb.x_w)
    c = generate_dataset(cfg, replicate_index=4)
    assert not np.array_equal(a.clusters[0].y, c.clusters[0].y)
    d = generate_dataset(_plain_config(seed=100), replicate_index=3)
    assert not np.array_equal(a.clusters[0].y, d.clusters[0].y)


def test_generate_dataset_shapes_and_sizes():
    cfg = _plain_config(cluster_sizes=[2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4])
    ds = generate_dataset(cfg)
    assert ds.g == 12 and ds.n == 36
    assert ds.cluster_sizes.tolist() == [2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4]
    assert ds.p_b == 1 and ds.p_w == 1


def test_degenerate_effects_reproduce_the_mean_surface():
    cfg = _plain_config(alpha_dist=Degenerate(), e_dist=Degenerate())
    ds = generate_dataset(cfg)
    om = cfg.true_omega
    for c in ds.clusters:
        mean = om.beta0 + float(c.x_b @ om.beta1) + c.x_w @ om.beta2
        assert np.allclose(c.y, mean, atol=1e-12)


def test_generated_variances_track_the_truth():
    om = ParameterVector(0.0, [], 0.7, [], 1.9)
    cfg = SimConfig(g=4000, cluster_sizes=2, true_omega=om, seed=5)
    ds = generate_dataset(cfg)
    ybar = np.array([c.y.mean() for c in ds.clusters])
    within = np.concatenate([c.y - c.y.mean() for c in ds.clusters])
    # Var(ybar) = sa + se/2; within deviations have variance se/2 each
    assert np.var(ybar) == pytest.approx(0.7 + 1.9 / 2, rel=0.1)
    assert 2.0 * np.var(within) == pytest.approx(1.9, rel=0.1)


def test_fixed_covariates_pass_through():
    x_b = np.array([[1.0], [2.0], [3.0]])
    x_w = tuple(np.full((2, 1), float(i)) for i in range(3))
    fixed = FixedCovariates(x_b=x_b, x_w=x_w)
    om = ParameterVector(0.0, [1.0], 1.0, [1.0], 1.0)
    cfg = SimConfig(g=3, cluster_sizes=2, true_omega=om,
                    covariate_model=fixed, seed=0)
    ds1 = generate_dataset(cfg, 0)
    ds2 = generate_dataset(cfg, 1)
    for ds in (ds1, ds2):
        assert np.array_equal(ds.x_b, x_b)
        for c, w in zip(ds.clusters, x_w):
            assert np.array_equal(c.x_w, w)
    assert not np.array_equal(ds1.clusters[0].y, ds2.clusters[0].y)


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

def test_run_replications_summary_shape():
    cfg = _plain_config()
    s = run_replications(cfg)
    assert s.n_replications == 24
    assert s.n_ok + s.n_failed == 24
    assert s.n_failed == 0
    names = parameter_names(1, 1)
    assert s.parameter_names == names
    assert set(s.coverage) == set(names)
    assert s.empirical_covariance.shape == (5, 5)
    assert np.allclose(s.empirical_covariance, s.empirical_covariance.T)
    assert np.isfinite(s.gap_mean) and np.isfinite(s.gap_median)
    assert 0.0 <= s.cross_block_max_correlation <= 1.0
    assert len(s.replicates) == 24
    # the JSON view is a plain serializable dict
    text = json.dumps(s.to_json_dict())
    assert json.loads(text)["n_ok"] == s.n_ok


def test_run_replications_deterministic_and_worker_independent():
    cfg = _plain_config()
    s1 = run_replications(cfg)
    s2 = run_replications(cfg)
    s3 = run_replications(cfg, max_workers=2)
    for other in (s2, s3):
        assert np.array_equal(s1.empirical_covariance, other.empirical_covariance)
        assert s1.coverage == other.coverage
        assert s1.gap_mean == other.gap_mean
        for a, b in zip(s1.replicates, other.replicates):
            assert a.index == b.index
            assert np.array_equal(a.omega_ml, b.omega_ml)
            assert np.array_equal(a.omega_reml, b.omega_reml)


def test_run_replications_with_one_replicate():
    s = run_replications(_plain_config(replications=1))
    assert s.n_ok == 1 and s.n_boundary == 0
    # a covariance needs two replicates; coverage and the gap need one
    assert np.all(np.isnan(s.empirical_covariance))
    assert np.isnan(s.cross_block_max_correlation)
    assert all(v in (0.0, 1.0) for v in s.coverage.values())
    assert np.isfinite(s.gap_mean) and s.gap_median == s.gap_mean


def test_all_failing_replicates_raise():
    # within covariate with zero idiosyncratic spread: constant inside each
    # cluster, so the within design is degenerate in every replicate
    om = ParameterVector(0.0, [], 1.0, [0.5], 1.0)
    cov = RandomCovariates(mu_b=np.empty(0), Sigma_b=np.empty((0, 0)),
                           mu_w=[0.0], Upsilon_w=[[1.0]], Sigma_w=[[0.0]])
    cfg = SimConfig(g=5, cluster_sizes=3, true_omega=om,
                    covariate_model=cov, seed=1, replications=4)
    with pytest.raises(AllReplicatesFailed):
        run_replications(cfg)


def test_normalized_errors_use_the_scaling_matrix():
    cfg = _plain_config(replications=3)
    s = run_replications(cfg)
    r = s.replicates[0]
    scale = np.array([np.sqrt(12), np.sqrt(12), np.sqrt(12),
                      np.sqrt(48), np.sqrt(48)])
    manual = scale * (r.omega_ml - cfg.true_omega.flatten())
    assert np.allclose(r.normalized_error, manual)


# ---------------------------------------------------------------------------
# moment diagnostics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", ["normal", "t(7)", "gamma(2)"])
def test_moment_diagnostics_consistent_with_the_law(dist):
    om = ParameterVector(0.0, [], 1.0, [], 1.4)
    sizes = [5] * 10 + [50] * 10
    cfg = SimConfig(g=20, cluster_sizes=sizes, true_omega=om,
                    e_dist=parse_distribution(dist), seed=17,
                    replications=3000)
    diag = moment_diagnostics(cfg)
    assert set(diag) == {5, 50}
    for entry in diag.values():
        assert set(entry) == {"mean", "second", "third", "fourth"}
        for cell in entry.values():
            assert abs(cell["zscore"]) < 4.0


def test_moment_diagnostics_detect_a_wrong_law():
    # empirical sums from a skewed law, expectations from the normal one
    om = ParameterVector(0.0, [], 1.0, [], 1.0)
    cfg = SimConfig(g=10, cluster_sizes=5, true_omega=om,
                    e_dist=CenteredGamma(0.4), seed=23, replications=5000)
    rng = np.random.default_rng(23)
    draws = CenteredGamma(0.4).sample(rng, (50_000, 5), 1.0)
    ebar = draws.mean(axis=1)
    sums = {5: (np.array([np.sum(ebar**k) for k in range(1, 9)]), ebar.size)}
    honest = _diagnose_ebar(sums, CenteredGamma(0.4), 1.0)
    lying = _diagnose_ebar(sums, NormalDist(), 1.0)
    assert abs(honest[5]["third"]["zscore"]) < 4.0
    assert abs(lying[5]["third"]["zscore"]) > 10.0


def test_run_replications_carries_the_same_diagnostics():
    cfg = _plain_config(replications=200, e_dist=parse_distribution("t(7)"))
    s = run_replications(cfg)
    assert set(s.ebar_moments) == {4}
    assert s.ebar_max_abs_z < 4.5


# ---------------------------------------------------------------------------
# rate probe
# ---------------------------------------------------------------------------

def _probe_config(g, m, reps=60):
    return _plain_config(g=g, cluster_sizes=m, replications=reps, seed=7)


def test_rate_probe_needs_a_growing_sequence():
    with pytest.raises(InsufficientSequence):
        rate_probe([_probe_config(10, 4), _probe_config(20, 4)])
    with pytest.raises(InsufficientSequence):
        rate_probe([_probe_config(10, 4), _probe_config(20, 4),
                    _probe_config(20, 4)])
    with pytest.raises(InsufficientSequence):
        # g grows but n stalls
        rate_probe([_probe_config(10, 8), _probe_config(20, 4),
                    _probe_config(40, 2)])


def test_rate_probe_requires_both_covariate_kinds():
    om = ParameterVector(0.0, [], 1.0, [], 1.0)
    cfgs = [SimConfig(g=k, cluster_sizes=4, true_omega=om, seed=1,
                      replications=4) for k in (8, 16, 32)]
    with pytest.raises(InvalidConfig):
        rate_probe(cfgs)


def test_rate_probe_sees_shrinking_spread():
    report = rate_probe([_probe_config(15, 4), _probe_config(30, 4),
                         _probe_config(60, 4)])
    assert report.g_values == [15, 30, 60]
    assert report.sd_beta1[0] > report.sd_beta1[-1]
    assert report.sd_beta2[0] > report.sd_beta2[-1]
    # loose sanity: both slopes clearly negative at desk scale
    assert report.slope_beta1 < -0.25
    assert report.slope_beta2 < -0.25
