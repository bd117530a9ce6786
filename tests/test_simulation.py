"""Distributions, data generation, the replication engine, diagnostics.

Determinism is the backbone here: every replicate owns a stream derived
from (seed, replicate index), so the same configuration must reproduce bit
for bit, with any worker count.
"""

import dataclasses
import json
import zlib

import numpy as np
import pytest

from nerm import asymptotics, estimation, model, simulation
from nerm.asymptotics import intervals, normalization
from nerm.cli import main, write_dataset_csv
from nerm.errors import (
    AllReplicatesFailed,
    InvalidConfig,
    InvalidDistribution,
    SingularDelta,
)
from nerm.model import ParameterVector, parameter_names
from nerm.simulation import (
    CenteredGamma,
    CenteredLogNormal,
    Degenerate,
    NormalDist,
    RandomCovariates,
    ScaledT,
    SimConfig,
    generate_dataset,
    parse_distribution,
    run_replications,
)
from nerm.simulation import _diagnose_ebar

from .helpers import clusters, moment_diagnostics


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
    # the largest sigma whose fourth moment is still a finite double
    assert parse_distribution("lognormal(13.3)") == CenteredLogNormal(13.3)


@pytest.mark.parametrize("tag", ["t(3)", "t(4)", "gamma(0)", "gamma(-1)",
                                 "lognormal(0)", "cauchy", "t(seven)", "",
                                 "lognormal(14)", "lognormal(30)",
                                 "lognormal(inf)", "lognormal(1e-9)",
                                 "t(inf)", "gamma(inf)"])
def test_parse_distribution_rejects(tag):
    with pytest.raises(InvalidDistribution):
        parse_distribution(tag)


@pytest.mark.parametrize("dist", [NormalDist(), ScaledT(7.0), ScaledT(5.5),
                                  CenteredGamma(2.0), CenteredGamma(0.5),
                                  CenteredLogNormal(0.5), ScaledT(9.0)])
def test_distribution_moments_match_samples(dist):
    rng = np.random.default_rng(zlib.crc32(repr(dist).encode()))
    variance = 1.3
    x = dist.sample(rng, 1_000_000, variance)
    n = x.size
    for power, target in ((1, 0.0), (2, variance),
                          (3, dist.moment3(variance)),
                          (4, dist.moment4(variance))):
        # the band's standard error needs a finite moment of order 2 power;
        # t(df) has moments below df only
        if isinstance(dist, ScaledT) and 2 * power >= dist.df:
            continue
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
    with pytest.raises(InvalidConfig, match="got 1e-300"):   # 1 - gamma/2 == 1
        SimConfig(g=4, cluster_sizes=3, true_omega=om0, gamma=1e-300)
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


def test_random_covariates_validate_matrices():
    with pytest.raises(InvalidConfig):
        RandomCovariates(mu_b=[0.0], Sigma_b=[[1.0, 0.0]], mu_w=[0.0],
                         Upsilon_w=[[0.1]], Sigma_w=[[1.0]])
    with pytest.raises(InvalidConfig):
        RandomCovariates(mu_b=[0.0], Sigma_b=[[-1.0]], mu_w=[0.0],
                         Upsilon_w=[[0.1]], Sigma_w=[[1.0]])


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_generate_dataset_is_deterministic():
    cfg = _plain_config()
    a = generate_dataset(cfg, replicate_index=3)
    b = generate_dataset(cfg, replicate_index=3)
    for ca, cb in zip(clusters(a), clusters(b)):
        assert np.array_equal(ca.y, cb.y)
        assert np.array_equal(ca.x_b, cb.x_b)
        assert np.array_equal(ca.x_w, cb.x_w)
    c = generate_dataset(cfg, replicate_index=4)
    assert not np.array_equal(clusters(a)[0].y, clusters(c)[0].y)
    d = generate_dataset(_plain_config(seed=100), replicate_index=3)
    assert not np.array_equal(clusters(a)[0].y, clusters(d)[0].y)


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
    for c in clusters(ds):
        mean = om.beta0 + float(c.x_b @ om.beta1) + c.x_w @ om.beta2
        assert np.allclose(c.y, mean, atol=1e-12)


def test_generated_variances_track_the_truth():
    om = ParameterVector(0.0, [], 0.7, [], 1.9)
    cfg = SimConfig(g=4000, cluster_sizes=2, true_omega=om, seed=5)
    ds = generate_dataset(cfg)
    ybar = np.array([c.y.mean() for c in clusters(ds)])
    within = np.concatenate([c.y - c.y.mean() for c in clusters(ds)])
    # Var(ybar) = sa + se/2; within deviations have variance se/2 each
    assert np.var(ybar) == pytest.approx(0.7 + 1.9 / 2, rel=0.1)
    assert 2.0 * np.var(within) == pytest.approx(1.9, rel=0.1)


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
    assert s.error.tolist() == [""] * 24
    assert s.boundary.shape == s.ml_reml_gap.shape == (24,)
    for arr in (s.omega_ml, s.omega_reml, s.normalized_error, s.ci_hits):
        assert arr.shape == (24, 5)
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
        assert np.array_equal(s1.omega_ml, other.omega_ml)
        assert np.array_equal(s1.omega_reml, other.omega_reml)


def _boundary_config(replications):
    """nerm simulate --g 10 --m 3 --sigma-alpha-sq 0.05 --seed 3: about half
    of the fits end on the variance floor."""
    return _plain_config(g=10, cluster_sizes=3, replications=replications, seed=3,
                         true_omega=ParameterVector(0.0, [0.5], 0.05, [0.5], 1.0))


def test_a_replicate_fits_the_same_in_any_batch(tmp_path, capsys):
    # a replicate's analysis must not depend on what else its batch holds,
    # so the results cannot depend on how the replicates are chunked: its
    # fits, intervals, hits and gap are the same alone, in its chunk and
    # at --workers 2, and nerm ci gives the same endpoints for its dataset
    cfg = _boundary_config(40)
    datasets = [generate_dataset(cfg, k) for k in range(40)]
    batch = estimation.fit_batch(datasets)
    first = estimation.fit_batch(datasets[:15])
    alone = [[estimation.fit_ml(ds), estimation.fit_reml(ds)] for ds in datasets]
    assert batch[:15] == first and batch == alone   # every field, iterations too
    assert 0 < sum(f.boundary_flag for row in batch for f in row) < 80
    assert len({f.iterations for row in batch for f in row}) > 5
    mls = [ml for ml, _ in batch]
    chunk = intervals(datasets, mls, cfg.gamma)
    assert chunk == [intervals([ds], [ml], cfg.gamma)[0]
                     for ds, ml in zip(datasets, mls)]
    assert intervals([], [], cfg.gamma) == [] == estimation.fit_batch([])
    runs = [run_replications(cfg), run_replications(cfg, max_workers=2),
            run_replications(_boundary_config(15))]
    for s in runs:
        n = s.n_replications
        for name in ("error", "boundary", "omega_ml", "omega_reml",
                     "normalized_error", "ci_hits", "ml_reml_gap"):
            a, b = getattr(runs[0], name)[:n], getattr(s, name)
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert np.array_equal(
            s.omega_ml, [row[0].omega_hat.flatten() for row in batch[:n]])
        assert np.array_equal(s.boundary, [ml.boundary_flag or reml.boundary_flag
                                           for ml, reml in batch[:n]])
        truth = cfg.true_omega.flatten()
        assert np.array_equal(s.ci_hits, [[ci.contains(t) for ci, t in zip(cis, truth)]
                                          for cis in chunk[:n]])
        k_half = np.sqrt(normalization(cfg.g, cfg.n, 1, 1))
        assert np.array_equal(s.ml_reml_gap, [
            np.linalg.norm(k_half * (reml.omega_hat.flatten() - ml.omega_hat.flatten()))
            for ml, reml in batch[:n]])
    # the nerm ci path is the one-row case: the same endpoints, bit for bit
    for k in (0, 1, 7):
        path = str(tmp_path / f"rep{k}.csv")
        write_dataset_csv(datasets[k], path)
        main(["ci", "--input", path, "--method", "ml"])
        report = json.loads(capsys.readouterr().out)["results"]["ml"]
        assert report["fit"]["omega"] == mls[k].omega_hat.flatten().tolist()
        assert [(iv["lower"], iv["upper"]) for iv in report["intervals"]] == [
            (ci.lower, None if ci.upper == np.inf else ci.upper) for ci in chunk[k]]


def test_replicates_share_their_normal_equation_solves(monkeypatch):
    # the fits of a chunk are searched together: far fewer stacked solves
    # than one per point per fit (about 13 per replicate, unbatched)
    calls = []
    solve = estimation._solve

    def counting(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(estimation, "_solve", counting)
    s = run_replications(_boundary_config(15))
    assert s.n_ok == 15 and s.n_boundary > 0
    assert len(calls) < 4 * 15


def test_a_chunk_shares_its_factorizations(monkeypatch):
    # the statistics, the within rank test, the covariate limits and the
    # collinearity check of a chunk are stacked calls: a fixed number of
    # eigvalsh and QR calls per chunk, and one Cholesky call besides those
    # of the normal-equation solves (per replicate, unbatched: 3 eigvalsh,
    # 1 QR and 1 Cholesky); and each fit is flattened once, when it is
    # built, so the flat layout is assembled about twice per replicate
    counts = {}
    solves = []
    solve = estimation._solve

    def counting_solve(*args):
        solves.append(1)
        return solve(*args)

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(estimation, "_solve", counting_solve)
    for name in ("eigvalsh", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name, counter(name, getattr(np.linalg, name)))
    for module in (model, asymptotics):
        monkeypatch.setattr(module, "assemble", counter("assemble", module.assemble))
    for reps in (15, 30):   # one chunk each
        counts.clear()
        solves.clear()
        s = run_replications(_boundary_config(reps))
        assert s.n_ok == reps and s.n_boundary > 0
        assert counts["eigvalsh"] <= 3 and counts["qr"] == 1
        assert counts["cholesky"] <= 1 + len(solves)
        assert counts["assemble"] <= 2 * reps + 8


def test_pool_is_never_larger_than_the_replicates(monkeypatch):
    sizes = []

    class InlinePool:   # records the size asked for, maps in-process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr("nerm.simulation.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    cfg = _plain_config(replications=3)
    alone = run_replications(cfg)
    pooled = run_replications(cfg, max_workers=500)
    assert sizes == [3]
    assert np.array_equal(alone.omega_ml, pooled.omega_ml)
    run_replications(cfg, max_workers=2)
    run_replications(_plain_config(replications=1), max_workers=8)
    assert sizes == [3, 2]   # one replicate runs without a pool
    # nor larger than the CPUs: 5000 workers on four CPUs ask for four,
    # and a machine that cannot count its CPUs gets no pool
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    run_replications(_plain_config(replications=6), max_workers=5000)
    monkeypatch.setattr("os.cpu_count", lambda: None)
    run_replications(cfg, max_workers=5000)
    assert sizes == [3, 2, 4]
    for bad in (0, -2):
        with pytest.raises(InvalidConfig):
            run_replications(cfg, max_workers=bad)


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


def test_nonfinite_fixed_covariates_fail_every_replicate():
    # the dataset is checked when a replicate builds it, inside the
    # replicate, so the failure is recorded there and not raised bare
    class PlantedNaN:   # a covariate model: p_b, p_w and draw(rng, sizes)
        p_b = p_w = 1

        def draw(self, rng, sizes):
            x_w = rng.normal(size=(int(sizes.sum()), 1))
            x_w[7, 0] = np.nan   # second row of the third cluster
            return rng.normal(size=(len(sizes), 1)), x_w

    cfg = SimConfig(g=4, cluster_sizes=3,
                    true_omega=ParameterVector(0.0, [0.5], 1.0, [0.5], 1.0),
                    covariate_model=PlantedNaN(), seed=8, replications=3)
    with pytest.raises(AllReplicatesFailed,
                       match=r"^all 3 replicates failed; first error: NonFiniteValue: "
                             r"cluster 'c0002': non-finite response$"):
        run_replications(cfg)


class _ShortWithinRows:
    """A covariate model drawing n - 1 within rows; with ``every`` set,
    only on every ``every``-th draw (counting from the first)."""
    p_b = p_w = 1

    def __init__(self, every=1):
        self.every, self.calls = every, 0

    def draw(self, rng, sizes):
        short = self.calls % self.every == 0
        self.calls += 1
        n = int(sizes.sum()) - short
        return rng.normal(size=(len(sizes), 1)), rng.normal(size=(n, 1))


def test_ragged_covariate_draw_fails_its_replicate_only():
    cfg = SimConfig(g=4, cluster_sizes=3,
                    true_omega=ParameterVector(0.0, [0.5], 1.0, [0.5], 1.0),
                    covariate_model=_ShortWithinRows(), seed=8, replications=3)
    (row, ebar), = simulation._run_chunk(cfg, 0, 1)
    assert row[0] == ("RaggedCovariates: covariate model drew x_b (4, 1) and "
                      "x_w (11, 1), expected (4, 1) and (12, 1)")
    # the failed replicate keeps the cluster-mean errors of its stream
    rng = np.random.default_rng([8, 0, 0])
    _ShortWithinRows().draw(rng, cfg.sizes)
    cfg.alpha_dist.sample(rng, 4, 1.0)
    e = cfg.e_dist.sample(rng, 12, 1.0)
    assert np.allclose(ebar, e.reshape(4, 3).mean(axis=1), rtol=1e-15, atol=0)
    with pytest.raises(AllReplicatesFailed,
                       match=r"^all 3 replicates failed; first error: "
                             r"RaggedCovariates: "):
        run_replications(cfg)
    # ragged on replicates 0 and 2 of 4: the run finishes with two failures
    s = run_replications(SimConfig(
        g=4, cluster_sizes=3, true_omega=cfg.true_omega,
        covariate_model=_ShortWithinRows(every=2), seed=8, replications=4))
    assert [err.split(":")[0] for err in s.error] == [
        "RaggedCovariates", "", "RaggedCovariates", ""]
    assert s.n_ok == 2 and set(s.ebar_moments) == {3}


def test_normalized_errors_use_the_scaling_matrix():
    cfg = _plain_config(replications=3)
    s = run_replications(cfg)
    scale = np.array([np.sqrt(12), np.sqrt(12), np.sqrt(12),
                      np.sqrt(48), np.sqrt(48)])
    manual = scale * (s.omega_ml[0] - cfg.true_omega.flatten())
    assert np.allclose(s.normalized_error[0], manual)


def test_failed_replicates_are_nan_rows(monkeypatch):
    real_fit_batch = simulation.fit_batch

    def flaky_fit_batch(datasets):   # fails a seed-fixed subset of the ML fits
        return [[SingularDelta("planted"), reml] if ds.y[0] > 0.3 else [ml, reml]
                for ds, (ml, reml) in zip(datasets, real_fit_batch(datasets))]

    monkeypatch.setattr(simulation, "fit_batch", flaky_fit_batch)
    s = run_replications(_plain_config())
    failed = s.error != ""
    assert 0 < s.n_failed == failed.sum() < 24 and s.n_ok == 24 - s.n_failed
    assert set(s.error[failed]) == {"SingularDelta: planted"}
    for arr in (s.omega_ml, s.omega_reml, s.normalized_error):
        assert np.isnan(arr[failed]).all() and np.isfinite(arr[~failed]).all()
    assert not s.ci_hits[failed].any() and not s.boundary[failed].any()
    assert np.isnan(s.ml_reml_gap[failed]).all()
    inside = s.interior
    assert np.array_equal(inside, ~failed & ~s.boundary)
    assert s.coverage == dict(zip(s.parameter_names,
                                  s.ci_hits[inside].mean(axis=0).tolist()))
    assert s.gap_median == np.median(s.ml_reml_gap[inside])
    assert np.array_equal(s.empirical_covariance,
                          np.cov(s.normalized_error[inside], rowvar=False))


def test_an_interval_failure_fails_its_replicate_only(monkeypatch):
    # the intervals of a chunk are one stacked call; a row whose moments
    # are no finite doubles fails its own replicate, with the text the
    # row gives alone, and the other rows keep their hits
    real_fit_batch = simulation.fit_batch
    planted = {}

    def far_off(datasets):   # an ML fit far off on a seed-fixed subset
        out = []
        for ds, (ml, reml) in zip(datasets, real_fit_batch(datasets)):
            if ds.y[0] > 0.3:
                om = ml.omega_hat
                om = ParameterVector(1e300, om.beta1, om.sigma_alpha_sq,
                                     om.beta2, om.sigma_e_sq)
                ml = dataclasses.replace(ml, omega_hat=om)
            planted[id(ds)] = ml
            out.append([ml, reml])
        return out

    monkeypatch.setattr(simulation, "fit_batch", far_off)
    cfg = _plain_config()
    s = run_replications(cfg)
    failed = s.error != ""
    assert 0 < failed.sum() < 24
    assert set(s.error[failed]) == {"NonFiniteValue: moment estimates must be finite"}
    monkeypatch.setattr(simulation, "fit_batch", real_fit_batch)
    clean = run_replications(cfg)
    assert np.array_equal(s.ci_hits[~failed], clean.ci_hits[~failed])
    assert np.array_equal(s.omega_reml[~failed], clean.omega_reml[~failed])


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
    honest = _diagnose_ebar({5: ebar[None, :]}, CenteredGamma(0.4), 1.0)
    lying = _diagnose_ebar({5: ebar[None, :]}, NormalDist(), 1.0)
    assert abs(honest[5]["third"]["zscore"]) < 4.0
    assert abs(lying[5]["third"]["zscore"]) > 10.0


def test_ebar_diagnostics_match_raw_power_means_at_any_scale():
    # reference: power means in the data's own units; the library sums in
    # units of sqrt(sigma_e_sq), so only rounding may differ
    law = CenteredGamma(2.0)
    rows = law.sample(np.random.default_rng(31), (40, 6), 1.7)
    got = _diagnose_ebar({3: rows}, law, 1.7)[3]
    c = 1e60   # eighth powers of these would overflow a double
    big = _diagnose_ebar({3: c * rows}, law, 1.7 * c * c)[3]
    for k, key in enumerate(("mean", "second", "third", "fourth"), start=1):
        emp = np.mean(rows**k)
        mc_se = np.sqrt((np.mean(rows**(2 * k)) - emp**2) / rows.size)
        cell = got[key]
        assert cell["empirical"] == pytest.approx(emp, rel=1e-12)
        assert cell["mc_se"] == pytest.approx(mc_se, rel=1e-12)
        assert cell["zscore"] == pytest.approx(
            (emp - cell["expected"]) / mc_se, rel=1e-12)
        for field in ("empirical", "expected", "mc_se"):
            assert big[key][field] == pytest.approx(c**k * cell[field], rel=1e-12)
        assert big[key]["zscore"] == pytest.approx(cell["zscore"], rel=1e-12)


def test_run_replications_carries_the_same_diagnostics():
    cfg = _plain_config(replications=200, e_dist=parse_distribution("t(7)"))
    s = run_replications(cfg)
    assert set(s.ebar_moments) == {4}
    assert max(abs(cell["zscore"]) for cell in s.ebar_moments[4].values()) < 4.5
