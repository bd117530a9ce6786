"""Data containers, validation, centering, sufficient statistics, tau."""

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
from nerm.model import (
    Cluster,
    ClusteredDataset,
    ParameterVector,
    center_within_covariates,
    sufficient_stats,
    tau,
    validate_dataset,
)

from .helpers import make_dataset, naive_sufficient_stats, random_dataset


# ---------------------------------------------------------------------------
# ParameterVector
# ---------------------------------------------------------------------------

def test_parameter_round_trip():
    om = ParameterVector(1.5, [0.1, -0.2], 2.0, [0.3], 0.7)
    flat = om.flatten()
    assert flat.tolist() == [1.5, 0.1, -0.2, 2.0, 0.3, 0.7]
    back = ParameterVector.from_flat(flat, p_b=2, p_w=1)
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


def test_from_flat_length_check():
    with pytest.raises(RaggedCovariates):
        ParameterVector.from_flat(np.zeros(4), p_b=1, p_w=1)


def test_parameter_is_immutable():
    om = ParameterVector(0.0, [1.0], 1.0, [1.0], 1.0)
    with pytest.raises((AttributeError, TypeError)):
        om.beta0 = 2.0
    with pytest.raises(ValueError):
        om.beta1[0] = 5.0


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_accepts_and_returns_dataset():
    ds = make_dataset([[1.0, 2.0], [3.0]])
    assert validate_dataset(ds) is ds


def test_validate_needs_two_clusters():
    ds = make_dataset([[1.0, 2.0]])
    with pytest.raises(EmptyDataset):
        validate_dataset(ds)


def test_validate_rejects_empty_cluster():
    ds = ClusteredDataset.from_clusters(
        (Cluster("a", [1.0], np.empty(0), np.empty((1, 0))),
         Cluster("b", np.empty(0), np.empty(0), np.empty((0, 0)))),
        p_b=0, p_w=0)
    with pytest.raises(EmptyDataset):
        validate_dataset(ds)


def test_validate_rejects_ragged_covariates():
    with pytest.raises(RaggedCovariates):
        ClusteredDataset.from_clusters(
            (Cluster("a", [1.0, 2.0], [1.0], [[0.1], [0.2]]),
             Cluster("b", [3.0], [1.0, 9.0], [[0.3]])),
            p_b=1, p_w=1)


def test_validate_rejects_nonfinite():
    ds = make_dataset([[1.0, np.nan], [3.0, 4.0]])
    with pytest.raises(NonFiniteValue):
        validate_dataset(ds)
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]],
                      x_w=[[[0.1], [np.inf]], [[0.2], [0.3]]], p_w=1)
    with pytest.raises(NonFiniteValue):
        validate_dataset(ds)


def test_validate_rejects_all_singletons():
    ds = make_dataset([[1.0], [2.0], [3.0]])
    with pytest.raises(DegenerateWithinDesign):
        validate_dataset(ds)


# ---------------------------------------------------------------------------
# centering
# ---------------------------------------------------------------------------

def test_centering_makes_cluster_means_zero():
    rng = np.random.default_rng(11)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=1, p_w=2, m_min=2)
    out = center_within_covariates(ds)
    for c in out.clusters:
        assert np.allclose(c.x_w.mean(axis=0), 0.0, atol=1e-12)
    # original untouched
    assert any(abs(c.x_w.mean()) > 1e-6 for c in ds.clusters)


def test_centering_contextual_moves_means_between():
    rng = np.random.default_rng(12)
    ds, _ = random_dataset(rng, g=4, m_max=6, p_b=2, p_w=2, m_min=2)
    out = center_within_covariates(ds, add_contextual=True)
    assert out.p_b == 4 and out.p_w == 2
    for before, after in zip(ds.clusters, out.clusters):
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
    ds2 = ClusteredDataset.from_clusters(tuple(ds.clusters[k] for k in perm),
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
