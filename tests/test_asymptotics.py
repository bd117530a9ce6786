"""The limit covariance, quantiles, plug-in moments and intervals.

Reference quantile values were frozen from a 50-digit computation with an
independent arbitrary-precision library.  The sandwich identity C = B^-1 A
B^-1 is asserted numerically, with A and B built in the tests rather than
trusted from the closed form, and the finite-sample matrix is tied back to
the expected score derivative.
"""

import math

import numpy as np
import pytest

from nerm.asymptotics import (
    ConfidenceInterval,
    CovariateLimits,
    MomentEstimates,
    matrix_C,
    normal_quantile,
    normalization,
)
from nerm.errors import (
    DegenerateBetweenDesign,
    InvalidConfig,
    NotPositiveDefinite,
    RaggedCovariates,
)
from nerm.estimation import FitResult, fit_ml
from nerm.model import (
    ParameterVector,
    parameter_layout,
    parameter_names,
    sufficient_stats,
)

from .helpers import (
    confidence_intervals,
    estimate_moments,
    expected_score_jacobian,
    limits_from_dataset,
    make_dataset,
    matrix_A,
    matrix_B,
    matrix_Bn,
    normal_theory,
    random_dataset,
)

# Phi^-1 references, 20 significant digits each.
QUANTILE_REFERENCES = [
    (0.975, 1.9599639845400542355),
    (0.995, 2.575829303548900761),
    (0.9, 1.281551565544600467),
    (1e-10, -6.3613409024040562047),
    (0.8, 0.84162123357291420518),
    (0.999, 3.0902323061678135415),
    (1e-6, -4.7534243088228989482),
    (0.75, 0.6744897501960817432),
    (0.3, -0.52440051270804078404),
    (0.6, 0.2533471031357997988),
    (0.15, -1.0364333894937895797),
    (1e-4, -3.7190164854556805644),
    (1e-8, -5.6120012441747887315),
    (0.95, 1.6448536269514727149),
]


def _random_limits(rng, p_b, p_w):
    c1 = rng.normal(size=p_b)
    base = rng.normal(size=(p_b, p_b))
    C2 = np.outer(c1, c1) + base @ base.T + np.eye(p_b)
    base_w = rng.normal(size=(p_w, p_w))
    C3 = base_w @ base_w.T + np.eye(p_w)
    return CovariateLimits(c1=c1, C2=C2, C3=C3)


# ---------------------------------------------------------------------------
# normal quantile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,ref", QUANTILE_REFERENCES)
def test_quantile_reference_values(p, ref):
    assert normal_quantile(p) == pytest.approx(ref, abs=1e-9)


def test_quantile_median_and_symmetry():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    # binary-exact complementary pairs, so 1 - p introduces no rounding
    for p in (0.25, 0.375, 0.0625):
        assert normal_quantile(1.0 - p) == pytest.approx(-normal_quantile(p),
                                                         abs=1e-13)
    # near 1 the evaluation only resolves the CDF to about an ulp of 1.0
    for p in (0.31, 0.999, 1e-7, 2.0**-20):
        assert normal_quantile(1.0 - p) == pytest.approx(-normal_quantile(p),
                                                         abs=1e-9)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.7, float("nan")])
def test_quantile_domain(p):
    with pytest.raises(InvalidConfig):
        normal_quantile(p)


def test_quantile_round_trips_through_erfc():
    for p in np.linspace(0.001, 0.999, 41):
        x = normal_quantile(float(p))
        back = 0.5 * math.erfc(-x / math.sqrt(2.0))
        assert back == pytest.approx(p, abs=1e-14)


# ---------------------------------------------------------------------------
# limit matrices
# ---------------------------------------------------------------------------

def test_no_covariate_matrices_by_hand():
    limits = CovariateLimits(c1=np.empty(0), C2=np.empty((0, 0)),
                             C3=np.empty((0, 0)))
    theta = (1.0, 1.0)
    B = matrix_B(limits, theta)
    assert np.allclose(B, np.diag([1.0, 0.5, 0.5]))
    moments = normal_theory(1.0, 1.0)
    assert np.allclose(matrix_A(limits, theta, moments), B)
    C = matrix_C(limits, theta, moments)
    assert np.allclose(C, np.diag([1.0, 2.0, 2.0]))
    assert C[0, 0] / theta[0] == pytest.approx(1.0)   # d


def test_A_equals_B_exactly_under_normal_moments():
    rng = np.random.default_rng(41)
    for _ in range(5):
        limits = _random_limits(rng, 2, 2)
        theta = (rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        A = matrix_A(limits, theta, normal_theory(*theta))
        assert np.allclose(A, matrix_B(limits, theta), atol=1e-12)


def test_sandwich_identity_holds_numerically():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p_b, p_w = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        limits = _random_limits(rng, p_b, p_w)
        theta = (rng.uniform(0.3, 2.5), rng.uniform(0.3, 2.5))
        moments = MomentEstimates(
            mu3_alpha=rng.normal(),
            mu4_alpha=theta[0]**2 * rng.uniform(1.1, 6.0),
            mu4_e=theta[1]**2 * rng.uniform(1.1, 6.0))
        A = matrix_A(limits, theta, moments)
        B = matrix_B(limits, theta)
        C = matrix_C(limits, theta, moments)
        sandwich = np.linalg.solve(B, np.linalg.solve(B, A).T)
        assert np.max(np.abs(C - sandwich)) < 1e-10


def test_centered_between_design_gives_plain_inverse():
    C2 = np.array([[2.0, 0.3], [0.3, 1.0]])
    limits = CovariateLimits(c1=np.zeros(2), C2=C2, C3=np.eye(1))
    sa = 1.0
    C = matrix_C(limits, (sa, 1.0), normal_theory(sa, 1.0))
    _, i0, i1, _, _, _ = parameter_layout(2, 1)
    assert C[i0, i0] / sa == pytest.approx(1.0)                    # d
    assert np.allclose(C[i0, i1] / sa, 0.0)                        # d1
    assert np.allclose(C[i1, i1] / sa, np.linalg.inv(C2))          # D2


def test_constant_between_covariate_is_degenerate():
    # x_b identically 2: c1 = 2, C2 = 4, so 1 - c1' C2^-1 c1 = 0
    limits = CovariateLimits(c1=[2.0], C2=[[4.0]], C3=np.empty((0, 0)))
    with pytest.raises(DegenerateBetweenDesign):
        matrix_C(limits, (1.0, 1.0), normal_theory(1.0, 1.0))


def test_limits_reject_indefinite_inputs():
    with pytest.raises(NotPositiveDefinite):
        CovariateLimits(c1=[0.0], C2=[[-1.0]], C3=np.empty((0, 0)))
    with pytest.raises(NotPositiveDefinite):
        CovariateLimits(c1=np.empty(0), C2=np.empty((0, 0)), C3=[[0.0]])


def test_limits_from_dataset_matches_definitions():
    rng = np.random.default_rng(43)
    ds, _ = random_dataset(rng, g=6, m_max=5, p_b=2, p_w=1, m_min=2)
    st = sufficient_stats(ds)
    lim = limits_from_dataset(ds)
    Xb = ds.x_b
    assert np.allclose(lim.c1, Xb.mean(axis=0))
    assert np.allclose(lim.C2, Xb.T @ Xb / ds.g)
    assert np.allclose(lim.C3, st.S_w_x / st.n)


# ---------------------------------------------------------------------------
# the finite-sample matrix
# ---------------------------------------------------------------------------

def test_Bn_is_normalized_expected_score_derivative():
    rng = np.random.default_rng(44)
    for _ in range(5):
        ds, om_dot = random_dataset(rng, g=int(rng.integers(3, 8)), m_max=6,
                                    p_b=int(rng.integers(0, 3)),
                                    p_w=int(rng.integers(0, 3)), m_min=2)
        st = sufficient_stats(ds)
        Bn = matrix_Bn(st, om_dot.theta)
        EJ = expected_score_jacobian(st, om_dot, om_dot)
        k_inv = 1.0 / np.sqrt(normalization(st.g, st.n, ds.p_b, ds.p_w))
        assert np.allclose(Bn, -(k_inv[:, None] * EJ * k_inv[None, :]),
                           atol=1e-12)


def test_Bn_two_singleton_clusters_by_hand():
    # m = (1, 1), theta = (1, 1): tau = 1/2, so Bn over
    # (beta0, sa, se) = [[1/2, 0, 0], [0, 1/16, 1/8·1/√2·...]] worked below
    ds = make_dataset([[0.0], [1.0]])
    st = sufficient_stats(ds)
    Bn = matrix_Bn(st, (1.0, 1.0))
    g = n = 2.0
    root_gn = 2.0
    assert Bn[0, 0] == pytest.approx(0.5)                   # mean tau
    assert Bn[1, 1] == pytest.approx(2 * 0.25 / (2 * g))    # sum tau^2 / 2g
    assert Bn[1, 2] == pytest.approx(2 * 0.25 / (2 * root_gn))
    assert Bn[2, 2] == pytest.approx(2 * 0.25 / (2 * n))    # n - g = 0 here


def test_Bn_approaches_B_for_balanced_deterministic_design():
    # Equally spaced covariates with exact first/second moments; the gap
    # to the law-level matrix must shrink as g and m grow together.
    def unit_grid(k):
        # linspace(-1, 1, k) has variance (k+1)/(3(k-1)); rescale to exactly 1
        return np.linspace(-1.0, 1.0, k) * math.sqrt(3.0 * (k - 1) / (k + 1))

    def build(g, m):
        qb = unit_grid(g)
        ys, xbs, xws = [], [], []
        for i in range(g):
            ys.append(np.zeros(m))
            xbs.append([qb[i]])
            xws.append(unit_grid(m)[:, None])
        return make_dataset(ys, xbs, xws, p_b=1, p_w=1)

    limits = CovariateLimits(c1=[0.0], C2=[[1.0]], C3=[[1.0]])
    theta = (0.8, 1.2)
    B = matrix_B(limits, theta)
    gaps = []
    for g, m in [(10, 10), (40, 40), (160, 160)]:
        ds = build(g, m)
        st = sufficient_stats(ds)
        # the variance of the equally spaced grid is exactly 1 by scaling
        Bn = matrix_Bn(st, theta)
        gaps.append(np.linalg.norm(Bn - B))
    # the leading error is O(1/m) from tau_i -> 1/sigma_alpha_sq
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05
    assert gaps[0] > 10.0 * gaps[2]


# ---------------------------------------------------------------------------
# plug-in moments
# ---------------------------------------------------------------------------

def _fake_fit(omega, g, n):
    return FitResult(omega_hat=omega, method="ml", converged=True,
                     iterations=1, score_norm=0.0, boundary_flag=False,
                     loglik_at_opt=0.0, g=g, n=n)


def test_estimate_moments_reduces_to_residual_power_means():
    ds = make_dataset([[1.0, -1.0], [2.0, 0.0]])
    # beta = 0, so cluster residuals are the means (0, 1) and the within
    # residuals are (1, -1, 1, -1)
    om = ParameterVector(0.0, [], 1.0, [], 1.0)
    mom = estimate_moments(ds, _fake_fit(om, 2, 4))
    assert mom.mu3_alpha == pytest.approx(0.5)   # (0 + 1) / 2
    assert mom.mu4_alpha == pytest.approx(0.5)
    assert mom.mu4_e == pytest.approx(1.0)


def test_estimate_moments_tracks_the_law_on_a_big_sample():
    rng = np.random.default_rng(46)
    ds, om_dot = random_dataset(rng, g=400, m_max=30, p_b=1, p_w=1, m_min=20)
    fit = fit_ml(ds)
    mom = estimate_moments(ds, fit)
    sa, se = om_dot.sigma_alpha_sq, om_dot.sigma_e_sq
    assert mom.mu4_alpha == pytest.approx(3.0 * sa * sa, rel=0.5)
    assert mom.mu4_e == pytest.approx(3.0 * se * se, rel=0.25)
    assert abs(mom.mu3_alpha) < 1.5 * sa ** 1.5


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------

def _interval_fixture_fit():
    om = ParameterVector(0.0, [], 1.0, [1.0], 4.0)
    return _fake_fit(om, g=100, n=100)


def _interval_fixture_pieces():
    limits = CovariateLimits(c1=np.empty(0), C2=np.empty((0, 0)), C3=[[4.0]])
    moments = MomentEstimates(mu3_alpha=0.0, mu4_alpha=3.0, mu4_e=48.0)
    return limits, moments


def test_beta2_interval_worked_example():
    # sd_e = 2, (C3^-1)_rr = 1/4, n = 100: half = 1.9599640 * 2 * 0.5 / 10
    cis = confidence_intervals(_interval_fixture_fit(),
                               *_interval_fixture_pieces(), gamma=0.05)
    ci = next(c for c in cis if c.name == "beta2[0]")
    assert ci.lower == pytest.approx(1.0 - 0.19599639845400542, abs=1e-9)
    assert ci.upper == pytest.approx(1.0 + 0.19599639845400542, abs=1e-9)
    assert ci.source == "standard" and not ci.degenerate


def test_variance_interval_worked_example():
    # sd scale: exp(+-z sqrt(mu4 - 1) / (2 sqrt(g))) with mu4 = 3, g = 100
    cis = confidence_intervals(_interval_fixture_fit(),
                               *_interval_fixture_pieces(), gamma=0.05)
    ci = next(c for c in cis if c.name == "sigma_alpha_sq")
    half = 1.9599639845400542 * math.sqrt(2.0) / 20.0
    assert ci.lower == pytest.approx(math.exp(-half) ** 2, abs=1e-9)
    assert ci.upper == pytest.approx(math.exp(half) ** 2, abs=1e-9)
    assert ci.contains(1.0)


def test_degenerate_fourth_moment_collapses_interval():
    limits, _ = _interval_fixture_pieces()
    moments = MomentEstimates(mu3_alpha=0.0, mu4_alpha=0.5,  # below sa^2 = 1
                              mu4_e=48.0)
    cis = confidence_intervals(_interval_fixture_fit(), limits, moments, 0.05)
    ci = next(c for c in cis if c.name == "sigma_alpha_sq")
    assert ci.degenerate
    assert ci.lower == ci.upper == ci.estimate == pytest.approx(1.0)


def test_interval_order_sources_and_level():
    cis = confidence_intervals(_interval_fixture_fit(),
                               *_interval_fixture_pieces(), gamma=0.1)
    assert [c.name for c in cis] == ["beta0", "sigma_alpha_sq",
                                     "beta2[0]", "sigma_e_sq"]
    assert {c.name: c.source for c in cis} == {
        "beta0": "extension", "sigma_alpha_sq": "standard",
        "beta2[0]": "standard", "sigma_e_sq": "extension"}
    assert all(c.level == pytest.approx(0.9) for c in cis)


def test_smaller_gamma_means_wider_intervals():
    fit = _interval_fixture_fit()
    limits, moments = _interval_fixture_pieces()
    narrow = confidence_intervals(fit, limits, moments, 0.5)
    wide = confidence_intervals(fit, limits, moments, 0.05)
    for a, b in zip(narrow, wide):
        assert (a.upper - a.lower) < (b.upper - b.lower)


def test_every_interval_reads_diag_C_over_K():
    # coefficients: half-width z sqrt(C_kk / K_k); variances: the same rule
    # on the log-sd scale, whose delta-method sd is sqrt(C_kk / K_k) / (2 est)
    rng = np.random.default_rng(48)
    z = normal_quantile(0.975)
    kinds = set()
    for case in range(45):
        p_b, p_w = case % 3, (case // 3) % 3
        limits = _random_limits(rng, p_b, p_w)
        sa, se = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        mu4_alpha = sa**2 * rng.uniform(1.1, 6.0)
        if case == 9:
            mu4_alpha = 0.5 * sa**2       # negative variance of variance
        if case == 18:
            sa, mu4_alpha = 1e-8 * se, 3.0   # pinned at the variance floor
        moments = MomentEstimates(rng.normal(), mu4_alpha,
                                  se**2 * rng.uniform(1.1, 6.0))
        om = ParameterVector(rng.normal(), rng.normal(size=p_b), sa,
                             rng.normal(size=p_w), se)
        g = int(rng.integers(2, 400))
        n = g + int(rng.integers(1, 4000))
        cis = confidence_intervals(_fake_fit(om, g, n), limits, moments, 0.05)
        v = np.diag(matrix_C(limits, om.theta, moments)) \
            / normalization(g, n, p_b, p_w)
        _, i0, _, ia, _, ie = parameter_layout(p_b, p_w)
        assert [c.name for c in cis] == parameter_names(p_b, p_w)
        for k, (ci, est) in enumerate(zip(cis, om.flatten())):
            assert ci.estimate == est
            assert ci.source == ("extension" if k in (i0, ie) else "standard")
            assert ci.degenerate == (k in (ia, ie) and v[k] <= 0.0)
            if k not in (ia, ie):
                kinds.add("coefficient")
                assert (ci.upper - ci.lower) / 2.0 == pytest.approx(
                    z * math.sqrt(v[k]), rel=1e-12)
                assert (ci.upper + ci.lower) / 2.0 == pytest.approx(
                    est, rel=1e-12, abs=1e-12 * z * math.sqrt(v[k]))
            elif ci.degenerate:
                kinds.add("degenerate")
                assert ci.lower == ci.upper == est
            elif math.isinf(ci.upper):
                kinds.add("infinite")
                assert z * math.sqrt(v[k]) / est >= 700.0
                assert 0.0 <= ci.lower < est
            else:
                kinds.add("variance")
                log_lo, log_hi = math.log(ci.lower), math.log(ci.upper)
                assert (log_hi - log_lo) / 4.0 == pytest.approx(
                    z * math.sqrt(v[k]) / (2.0 * est), rel=1e-12)
                assert (log_hi + log_lo) / 2.0 == pytest.approx(
                    math.log(est), abs=1e-12 * (1.0 + abs(math.log(est))))
    assert kinds == {"coefficient", "degenerate", "infinite", "variance"}


def test_interval_rejects_limits_of_another_design():
    limits = CovariateLimits(c1=[0.0], C2=[[1.0]], C3=np.empty((0, 0)))
    moments = normal_theory(1.0, 4.0)
    with pytest.raises(RaggedCovariates):   # fit has p_b = 0, p_w = 1
        confidence_intervals(_interval_fixture_fit(), limits, moments, 0.05)


def test_interval_rejects_bad_gamma():
    fit = _interval_fixture_fit()
    limits, moments = _interval_fixture_pieces()
    for gamma in (0.0, 1.0, -0.1, 2.0, 1e-300):   # 1e-300: 1 - gamma/2 == 1
        with pytest.raises(InvalidConfig, match="gamma"):
            confidence_intervals(fit, limits, moments, gamma)


def test_normalization_layout():
    K = normalization(g=9, n=100, p_b=2, p_w=1)
    assert K.tolist() == [9.0, 9.0, 9.0, 9.0, 100.0, 100.0]
    _, _, _, ia, _, ie = parameter_layout(2, 1)
    assert np.allclose(np.sqrt(K)[[ia, ie]], [3.0, 10.0])
