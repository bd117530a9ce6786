"""Data containers, validation, centering, sufficient statistics, tau."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nerm.errors import (
    DegenerateWithinDesign,
    EmptyDataset,
    NonFiniteValue,
    NonPositiveVariance,
    NoWithinCovariates,
    RaggedCovariates,
)
from nerm.estimation import fit_ml, fit_reml
from nerm.model import (
    ClusteredDataset,
    ParameterVector,
    center_within_covariates,
    sufficient_stats,
    sufficient_stats_batch,
    tau,
)

from .helpers import (
    Cluster,
    clusters,
    from_flat,
    make_dataset,
    naive_sufficient_stats,
    pack,
    random_dataset,
)


# ---------------------------------------------------------------------------
# ParameterVector
# ---------------------------------------------------------------------------

def test_parameter_round_trip():
    om = ParameterVector(1.5, [0.1, -0.2], 2.0, [0.3], 0.7)
    flat = om.flatten()
    assert flat.tolist() == [1.5, 0.1, -0.2, 2.0, 0.3, 0.7]
    assert om.flatten() is flat and not flat.flags.writeable   # built once
    back = from_flat(flat, p_b=2, p_w=1)
    assert back == om


def test_parameter_beta_order():
    om = ParameterVector(1.0, [2.0], 9.0, [3.0], 9.0)
    assert om.beta.tolist() == [1.0, 2.0, 3.0]
    assert om.theta == (9.0, 9.0)


@pytest.mark.parametrize("sa,se", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0),
                                   (np.nan, 1.0), (1.0, np.inf)])
def test_parameter_rejects_bad_variance(sa, se):
    with pytest.raises(NonPositiveVariance):
        ParameterVector(0.0, [], sa, [], se)


def test_parameter_rejects_nonfinite_coefficients():
    with pytest.raises(NonFiniteValue):
        ParameterVector(np.nan, [], 1.0, [], 1.0)
    with pytest.raises(NonFiniteValue):
        ParameterVector(0.0, [np.inf], 1.0, [], 1.0)


def test_parameter_is_immutable():
    om = ParameterVector(0.0, [1.0], 1.0, [1.0], 1.0)
    with pytest.raises((AttributeError, TypeError)):
        om.beta0 = 2.0
    with pytest.raises(ValueError):
        om.beta1[0] = 5.0


# ---------------------------------------------------------------------------
# validation: a dataset is checked once, when it is built; the fit checks
# what it needs on top (two clusters, n > g)
# ---------------------------------------------------------------------------

def test_validate_accepts_and_returns_dataset():
    ds = make_dataset([[1.0, 2.0], [3.0]])
    assert (ds.g, ds.n) == (2, 3)
    for fit in (fit_ml(ds), fit_reml(ds)):
        assert (fit.g, fit.n) == (2, 3)


def test_validate_needs_two_clusters():
    ds = make_dataset([[1.0, 2.0]])
    for fit in (fit_ml, fit_reml):
        with pytest.raises(EmptyDataset, match="^need at least 2 clusters, got 1$"):
            fit(ds)


def test_validate_rejects_empty_cluster():
    with pytest.raises(EmptyDataset, match="^cluster 'b' has no observations$"):
        pack(
            (Cluster("a", [1.0], np.empty(0), np.empty((1, 0))),
             Cluster("b", np.empty(0), np.empty(0), np.empty((0, 0)))),
            p_b=0, p_w=0)
    # no clusters at all: raised when built, not later by the statistics
    with pytest.raises(EmptyDataset, match="^the dataset has no clusters$"):
        ClusteredDataset(y=np.empty(0), x_w=np.empty((0, 1)), x_b=np.empty((0, 1)),
                         offsets=[0], ids=[])


def test_validate_rejects_ragged_covariates():
    with pytest.raises(RaggedCovariates):
        pack(
            (Cluster("a", [1.0, 2.0], [1.0], [[0.1], [0.2]]),
             Cluster("b", [3.0], [1.0, 9.0], [[0.3]])),
            p_b=1, p_w=1)
    # the flat arrays themselves: three rows of y but two of x_w
    with pytest.raises(RaggedCovariates):
        ClusteredDataset(y=[1.0, 2.0, 3.0], x_w=[[0.1], [0.2]], x_b=[[1.0], [1.0]],
                         offsets=[0, 2, 3], ids=["a", "b"])


def test_validate_rejects_nonfinite():
    with pytest.raises(NonFiniteValue, match="^cluster 'c000': non-finite response$"):
        make_dataset([[1.0, np.nan], [3.0, 4.0]])
    with pytest.raises(NonFiniteValue, match="^cluster 'c000': non-finite covariate$"):
        make_dataset([[1.0, 2.0], [3.0, 4.0]],
                     x_w=[[[0.1], [np.inf]], [[0.2], [0.3]]], p_w=1)


def test_validate_rejects_all_singletons():
    ds = make_dataset([[1.0], [2.0], [3.0]])
    for fit in (fit_ml, fit_reml):
        with pytest.raises(DegenerateWithinDesign,
                           match=r"^every cluster is a singleton \(n == g\); the "
                                 r"residual variance is not identified$"):
            fit(ds)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------

def test_centering_makes_cluster_means_zero():
    rng = np.random.default_rng(11)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=1, p_w=2, m_min=2)
    out = center_within_covariates(ds)
    for c in clusters(out):
        assert np.allclose(c.x_w.mean(axis=0), 0.0, atol=1e-12)
    # original untouched
    assert any(abs(c.x_w.mean()) > 1e-6 for c in clusters(ds))


def test_centering_contextual_moves_means_between():
    rng = np.random.default_rng(12)
    ds, _ = random_dataset(rng, g=4, m_max=6, p_b=2, p_w=2, m_min=2)
    out = center_within_covariates(ds, add_contextual=True)
    assert out.p_b == 4 and out.p_w == 2
    for before, after in zip(clusters(ds), clusters(out)):
        assert np.allclose(after.x_b[:2], before.x_b)
        assert np.allclose(after.x_b[2:], before.x_w.mean(axis=0))


def test_centering_requires_within_covariates():
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(NoWithinCovariates):
        center_within_covariates(ds)


# ---------------------------------------------------------------------------
# sufficient statistics against the loop oracle
# ---------------------------------------------------------------------------

def test_sufficient_stats_match_naive_loops():
    rng = np.random.default_rng(5)
    for _ in range(10):
        ds, _ = random_dataset(rng, g=int(rng.integers(2, 9)),
                               m_max=7, p_b=1, p_w=2)
        st_ = sufficient_stats(ds)
        m, ybar, xbar, swy, swxy, swx = naive_sufficient_stats(ds)
        assert np.array_equal(st_.m, m)
        assert np.allclose(st_.ybar, ybar, atol=1e-12)
        assert np.allclose(st_.xbar_w, xbar, atol=1e-12)
        assert np.isclose(st_.S_w_y, swy, atol=1e-10)
        assert np.allclose(st_.S_w_xy, swxy, atol=1e-10)
        assert np.allclose(st_.S_w_x, swx, atol=1e-10)
        assert st_.n == m.sum() and st_.g == ds.g


def test_sufficient_stats_tiny_by_hand():
    # one cluster (1, 3), one cluster (2,): S_w_y = (1-2)^2 + (3-2)^2 = 2
    ds = make_dataset([[1.0, 3.0], [2.0]])
    st_ = sufficient_stats(ds)
    assert st_.ybar.tolist() == [2.0, 2.0]
    assert st_.S_w_y == pytest.approx(2.0)
    assert st_.n == 3 and st_.g == 2


def test_sufficient_stats_permutation_invariant():
    rng = np.random.default_rng(6)
    ds, _ = random_dataset(rng, g=5, m_max=6, p_b=1, p_w=1)
    perm = rng.permutation(ds.g)
    ds2 = pack(tuple(clusters(ds)[k] for k in perm),
                                         p_b=ds.p_b, p_w=ds.p_w)
    a, b = sufficient_stats(ds), sufficient_stats(ds2)
    assert np.isclose(a.S_w_y, b.S_w_y)
    assert np.allclose(a.S_w_xy, b.S_w_xy)
    assert np.allclose(a.S_w_x, b.S_w_x)
    assert np.allclose(np.sort(a.ybar), np.sort(b.ybar))


def test_sufficient_stats_are_computed_once_and_carry_the_design():
    rng = np.random.default_rng(8)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=2, p_w=1)
    st_ = sufficient_stats(ds)
    assert sufficient_stats(ds) is st_
    assert st_.p_b == 2
    assert np.array_equal(st_.Z[:, 0], np.ones(ds.g))
    assert np.array_equal(st_.Z[:, 1:3], ds.x_b)
    assert np.array_equal(st_.Z[:, 3:], st_.xbar_w)
    assert not st_.Z.flags.writeable


def test_a_collinear_dataset_is_flagged_alone_in_its_stack():
    # datasets that share their cluster layout are reduced in one stacked
    # pass, whose collinearity check then falls back to one row at a time:
    # wherever the exactly collinear dataset (x_b the intercept) sits, it
    # alone is flagged, and every dataset's statistics are its own alone.
    # With n = 16 rows, M(0)'s second Cholesky pivot is n - (n / sqrt(n))^2
    # = 0 exactly, so that dataset fails to factor
    rng = np.random.default_rng(42)
    offsets = np.concatenate(([0], np.cumsum([2, 3, 3, 4, 2, 2])))
    n, ids = offsets[-1], [f"c{k}" for k in range(6)]
    draws = [(rng.normal(size=n), rng.normal(size=(n, 1)),
              np.ones((6, 1)) if k == 0 else rng.normal(size=(6, 1)))
             for k in range(5)]

    def dataset(k):   # a new object, with no statistics cached yet
        y, x_w, x_b = draws[k]
        return ClusteredDataset(y=y, x_w=x_w, x_b=x_b, offsets=offsets, ids=ids)

    for order in ([0, 1, 2, 3, 4], [1, 2, 0, 3, 4], [1, 2, 3, 4, 0]):
        stacked = sufficient_stats_batch([dataset(k) for k in order])
        assert [s.collinear for s in stacked] == [k == 0 for k in order]
        for k, st_ in zip(order, stacked):
            alone = sufficient_stats(dataset(k))
            for f in dataclasses.fields(alone):
                assert np.array_equal(getattr(st_, f.name), getattr(alone, f.name)), f.name


def test_s_w_x_positive_semidefinite():
    rng = np.random.default_rng(7)
    ds, _ = random_dataset(rng, g=8, m_max=6, p_b=0, p_w=3)
    st_ = sufficient_stats(ds)
    assert np.all(np.linalg.eigvalsh(st_.S_w_x) > -1e-10)


# ---------------------------------------------------------------------------
# tau
# ---------------------------------------------------------------------------

def test_tau_known_values():
    assert tau((1.0, 1.0), 1) == pytest.approx(0.5)
    assert tau((0.5, 2.0), 4) == pytest.approx(1.0)
    out = tau((1.0, 1.0), np.array([1, 1]))
    assert np.allclose(out, [0.5, 0.5])


def test_tau_monotone_and_bounded():
    theta = (0.7, 1.3)
    sizes = np.arange(1, 200)
    t = tau(theta, sizes)
    assert np.all(np.diff(t) > 0)
    assert np.all(t < 1.0 / theta[0])
    assert t[-1] == pytest.approx(1.0 / theta[0], rel=1e-2)


def test_tau_rejects_bad_theta():
    with pytest.raises(NonPositiveVariance):
        tau((0.0, 1.0), 3)
    with pytest.raises(NonPositiveVariance):
        tau((1.0, -2.0), 3)


@settings(max_examples=60, deadline=None)
@given(
    sa=st.floats(1e-3, 1e3),
    se=st.floats(1e-3, 1e3),
    m=st.integers(1, 10_000),
)
def test_tau_is_inverse_variance_of_cluster_mean(sa, se, m):
    # tau = 1 / Var(alpha + ebar) = 1 / (sigma_alpha_sq + sigma_e_sq / m)
    assert tau((sa, se), m) == pytest.approx(1.0 / (sa + se / m), rel=1e-12)
