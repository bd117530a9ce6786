"""Acceptance suite: ten numbered end-to-end checks of the whole stack.

Each test prints exactly one ``[PASS] criterion N: ...`` / ``[FAIL]``
line (written past pytest's capture so the lines always reach the
terminal) and then asserts.  The checks exercise the public API the way
a study would: oracle comparisons for the likelihood and its
derivatives, closed-form and brute-force cross-checks of the fitters,
the sandwich algebra, design-level convergence of the curvature matrix,
and seeded Monte Carlo runs for coverage, block orthogonality,
convergence rates, ML/REML agreement and the cluster-mean error
moments.  Everything is seeded; reruns are bit-identical.

Runtime is dominated by the Monte Carlo criteria (6-9); the whole
module takes a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest

from nerm.asymptotics import CovariateLimits, MomentEstimates, matrix_C
from nerm.estimation import fit_ml, fit_reml
from nerm.model import ParameterVector, sufficient_stats
from nerm.simulation import (
    RandomCovariates,
    SimConfig,
    parse_distribution,
    run_replications,
)

from .helpers import (
    clusters,
    dense_mvn_loglik,
    expected_score_jacobian,
    fd_gradient,
    fd_jacobian,
    from_flat,
    grid_objective,
    log_likelihood,
    make_dataset,
    matrix_A,
    matrix_B,
    matrix_Bn,
    moment_diagnostics,
    normal_theory,
    random_dataset,
    random_omega,
    score,
    score_jacobian,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    """Emit the one status line for a criterion, then enforce it.

    ``capsys.disabled()`` lifts pytest's capture so the line reaches the
    terminal even in quiet runs; the same text is the assertion message.
    """
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: profiled likelihood vs dense multivariate-normal oracle
# ---------------------------------------------------------------------------

def test_criterion_01_likelihood_oracle(capsys):
    """Log-likelihood differences match a dense-covariance evaluation.

    The model code never materializes the n x n covariance; the oracle
    does.  The two agree up to a parameter-free additive constant, so
    differences l(omega1) - l(omega2) must match to near machine
    precision on random small problems.
    """
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        g = int(rng.integers(2, 7))
        p_b = int(rng.integers(0, 3))
        p_w = int(rng.integers(1, 3))
        ds, _ = random_dataset(rng, g=g, m_max=8, p_b=p_b, p_w=p_w, m_min=2)
        stats = sufficient_stats(ds)
        o1 = random_omega(rng, p_b, p_w)
        o2 = random_omega(rng, p_b, p_w)
        got = log_likelihood(stats, o1) - log_likelihood(stats, o2)
        want = dense_mvn_loglik(ds, o1) - dense_mvn_loglik(ds, o2)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(capsys, 1, worst < 1e-8,
            f"likelihood vs dense oracle, max rel err {worst:.2e} "
            f"over 200 random instances (tol 1e-8)")


# ---------------------------------------------------------------------------
# criterion 2: score, score derivative and its expectation
# ---------------------------------------------------------------------------

def test_criterion_02_derivative_identities(capsys):
    """Score = FD gradient, Jacobian = FD of score, expectation = MC mean."""
    t0 = time.monotonic()
    rng = np.random.default_rng(202)

    worst_grad = 0.0
    for _ in range(6):
        p_b, p_w = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        ds, _ = random_dataset(rng, g=5, m_max=6, p_b=p_b, p_w=p_w, m_min=2)
        stats = sufficient_stats(ds)
        omega = random_omega(rng, p_b, p_w)

        def loglik_flat(v, stats=stats, p_b=p_b, p_w=p_w):
            return log_likelihood(stats, from_flat(v, p_b, p_w))

        analytic = score(stats, omega)
        numeric = fd_gradient(loglik_flat, omega.flatten())
        rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
        worst_grad = max(worst_grad, rel)

    worst_jac = 0.0
    for _ in range(4):
        p_b, p_w = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        ds, _ = random_dataset(rng, g=5, m_max=6, p_b=p_b, p_w=p_w, m_min=2)
        stats = sufficient_stats(ds)
        omega = random_omega(rng, p_b, p_w)

        def score_flat(v, stats=stats, p_b=p_b, p_w=p_w):
            return score(stats, from_flat(v, p_b, p_w))

        analytic = score_jacobian(stats, omega)
        numeric = fd_jacobian(score_flat, omega.flatten())
        rel = np.linalg.norm(analytic - numeric) / max(1.0, np.linalg.norm(numeric))
        worst_jac = max(worst_jac, rel)

    # Monte Carlo check of the expected derivative on one fixed design,
    # evaluated away from the generating parameter.
    base, _ = random_dataset(rng, g=6, m_max=5, p_b=1, p_w=1, m_min=3)
    omega_dot = ParameterVector(0.4, [0.7], 0.6, [-0.3], 0.9)
    omega_eval = ParameterVector(0.1, [0.4], 1.1, [0.2], 1.4)
    stats_base = sufficient_stats(base)
    expected = expected_score_jacobian(stats_base, omega_eval, omega_dot)

    base_clusters = clusters(base)
    surfaces = [
        omega_dot.beta0 + c.x_b @ omega_dot.beta1 + c.x_w @ omega_dot.beta2
        for c in base_clusters
    ]
    n_rep = 10_000
    dim = expected.shape[0]
    acc = np.zeros((dim, dim))
    acc_sq = np.zeros((dim, dim))
    sa_dot = math.sqrt(omega_dot.sigma_alpha_sq)
    se_dot = math.sqrt(omega_dot.sigma_e_sq)
    for _ in range(n_rep):
        ys = [
            surf + sa_dot * rng.standard_normal() + se_dot * rng.standard_normal(surf.size)
            for surf in surfaces
        ]
        ds_k = make_dataset(ys, [c.x_b for c in base_clusters],
                            [c.x_w for c in base_clusters], p_b=1, p_w=1)
        J = score_jacobian(sufficient_stats(ds_k), omega_eval)
        acc += J
        acc_sq += J * J
    mean = acc / n_rep
    var = np.maximum(acc_sq / n_rep - mean * mean, 0.0)
    mc_se = np.sqrt(var / n_rep)
    z_gap = np.abs(mean - expected) - 4.0 * mc_se
    worst_mc = float(np.max(z_gap))  # <= 0 means inside 4 MC SEs (constant entries hit 0 exactly)

    elapsed = time.monotonic() - t0
    ok = worst_grad < 1e-5 and worst_jac < 1e-4 and worst_mc <= 1e-10 and elapsed < 60.0
    _report(capsys, 2, ok,
            f"score vs FD {worst_grad:.2e} (tol 1e-5), derivative vs FD "
            f"{worst_jac:.2e} (tol 1e-4), expected derivative within 4 MC SEs "
            f"over {n_rep} datasets (max excess {worst_mc:.2e}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: closed-form two-cluster fixture plus brute-force grids
# ---------------------------------------------------------------------------

def test_criterion_03_closed_form_fixture(capsys):
    """y = {(1,2),(3,4)}: ML (2.5, 0.75, 0.5), REML (2.5, 1.75, 0.5)."""
    ds = make_dataset([[1.0, 2.0], [3.0, 4.0]])
    stats = sufficient_stats(ds)

    ml = fit_ml(ds)
    reml = fit_reml(ds)
    ml_err = float(np.max(np.abs(ml.omega_hat.flatten() - [2.5, 0.75, 0.5])))
    reml_err = float(np.max(np.abs(reml.omega_hat.flatten() - [2.5, 1.75, 0.5])))

    grids_ok = True
    details = []
    for fit, center in ((ml, (0.75, 0.5)), (reml, (1.75, 0.5))):
        ua = np.log(center[0]) + np.linspace(-3.0, 3.0, 201)
        ue = np.log(center[1]) + np.linspace(-3.0, 3.0, 201)
        a, e = (u.ravel() for u in np.meshgrid(ua, ue, indexing="ij"))
        vals = grid_objective(stats, [math.exp(x) for x in a], [math.exp(x) for x in e],
                              fit.method == "reml")
        best = int(np.argmax(vals))   # the first largest, a-major as a loop finds it
        best_val, best_point = vals[best], (a[best], e[best])
        spacing = 6.0 / 200
        theta_hat = fit.omega_hat.theta
        log_gap = max(abs(best_point[0] - math.log(theta_hat[0])),
                      abs(best_point[1] - math.log(theta_hat[1])))
        grids_ok &= fit.loglik_at_opt >= best_val - 1e-9 and log_gap <= spacing
        details.append(f"{fit.method}: grid argmax within {log_gap:.3f} "
                       f"(spacing {spacing:.3f}), objective gap "
                       f"{fit.loglik_at_opt - best_val:+.2e}")

    ok = ml_err < 1e-6 and reml_err < 1e-6 and grids_ok
    _report(capsys, 3, ok,
            f"ML off by {ml_err:.2e}, REML off by {reml_err:.2e} (tol 1e-6); "
            + "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 4: sandwich algebra
# ---------------------------------------------------------------------------

def test_criterion_04_sandwich_identity(capsys):
    """Closed-form C equals inv(B) A inv(B); A collapses to B when normal."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        p_b, p_w = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        c1 = rng.normal(size=p_b)
        Mb = rng.normal(size=(p_b, p_b))
        C2 = Mb @ Mb.T + 0.5 * np.eye(p_b) + np.outer(c1, c1)
        Mw = rng.normal(size=(p_w, p_w))
        C3 = Mw @ Mw.T + 0.5 * np.eye(p_w)
        limits = CovariateLimits(c1=c1, C2=C2, C3=C3)
        theta = (float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        moments = MomentEstimates(
            mu3_alpha=float(rng.normal()) * theta[0] ** 1.5,
            mu4_alpha=theta[0] ** 2 * float(rng.uniform(1.5, 6.0)),
            mu4_e=theta[1] ** 2 * float(rng.uniform(1.5, 6.0)),
        )
        closed = matrix_C(limits, theta, moments)
        B = matrix_B(limits, theta)
        Binv = np.linalg.inv(B)
        brute = Binv @ matrix_A(limits, theta, moments) @ Binv
        gap = np.max(np.abs(closed - brute)) / max(1.0, np.max(np.abs(brute)))
        worst = max(worst, float(gap))

    # normal moments: A and B coincide (up to roundoff in 3x - x), and a
    # skewed/kurtotic law must break the equality
    limits = CovariateLimits(c1=[0.3], C2=[[1.2]], C3=[[0.8]])
    theta = (0.7, 1.3)
    normal = normal_theory(*theta)
    gap_normal = float(np.max(np.abs(
        matrix_A(limits, theta, normal) - matrix_B(limits, theta))))
    skewed = MomentEstimates(0.5, 3.0 * theta[0] ** 2, 3.0 * theta[1] ** 2)
    gap_skewed = float(np.max(np.abs(
        matrix_A(limits, theta, skewed) - matrix_B(limits, theta))))

    ok = worst < 1e-10 and gap_normal < 1e-13 and gap_skewed > 1e-3
    _report(capsys, 4, ok,
            f"C vs inv(B) A inv(B), max rel err {worst:.2e} over 100 random "
            f"configurations (tol 1e-10); A-B gap {gap_normal:.1e} under "
            f"normal moments, {gap_skewed:.1e} with skewness")


# ---------------------------------------------------------------------------
# criterion 5: finite-design curvature converges to its limit
# ---------------------------------------------------------------------------

def test_criterion_05_curvature_matrix_convergence(capsys):
    """|Bn - B| falls monotonically as clusters grow in number and size.

    Deterministic quantile-grid covariates keep the empirical first and
    second moments exactly at the law values (mean 0, variance 1), so
    the remaining gap is purely the finite-m difference between tau and
    1/sigma_alpha_sq.
    """
    theta = (0.5, 1.0)
    limits = CovariateLimits(c1=[0.0], C2=[[1.0]], C3=[[1.0]])
    B = matrix_B(limits, theta)

    def unit_grid(k):
        # linspace(-1, 1, k) has variance (k+1)/(3(k-1)); rescale to exactly 1
        return np.linspace(-1.0, 1.0, k) * math.sqrt(3.0 * (k - 1) / (k + 1))

    gaps = []
    for g, m in ((20, 20), (50, 50), (100, 100)):
        qb = unit_grid(g)
        ys = [np.zeros(m) for _ in range(g)]
        xbs = [[qb[i]] for i in range(g)]
        xws = [unit_grid(m)[:, None] for _ in range(g)]
        ds = make_dataset(ys, xbs, xws, p_b=1, p_w=1)
        Bn = matrix_Bn(sufficient_stats(ds), theta)
        gaps.append(float(np.linalg.norm(Bn - B)))

    ok = gaps[0] > gaps[1] > gaps[2]
    _report(capsys, 5, ok,
            "|Bn - B| at (g,m)=(20,20),(50,50),(100,100): "
            + ", ".join(f"{v:.4f}" for v in gaps)
            + (" (strictly decreasing)" if ok else " (NOT decreasing)"))


# ---------------------------------------------------------------------------
# shared Monte Carlo machinery for criteria 6-9
# ---------------------------------------------------------------------------

def _covariate_law():
    return RandomCovariates(mu_b=[0.5], Sigma_b=[[1.0]], mu_w=[0.0],
                            Upsilon_w=[[0.25]], Sigma_w=[[1.0]])


def _study(g, m, reps, seed, sigma_alpha_sq):
    omega = ParameterVector(0.2, [0.5], sigma_alpha_sq, [0.8], 1.0)
    return SimConfig(g=g, cluster_sizes=m, true_omega=omega,
                     covariate_model=_covariate_law(), seed=seed,
                     replications=reps, gamma=0.05)


SWEEP_SIZES = ((25, 25), (50, 50), (100, 100))


@pytest.fixture(scope="module")
def size_sweep():
    """One doubling sequence of studies shared by criteria 8 and 9.

    A small cluster-effect variance keeps the REML restricted-likelihood
    correction (the quantity criterion 9 measures) on the scale where
    its decay is visible without an enormous g.
    """
    return [(g, m, run_replications(_study(g, m, reps=500, seed=811,
                                           sigma_alpha_sq=0.25)))
            for g, m in SWEEP_SIZES]


# ---------------------------------------------------------------------------
# criterion 6: interval coverage
# ---------------------------------------------------------------------------

def test_criterion_06_interval_coverage(capsys):
    """95% intervals for beta1, beta2 and sigma_alpha_sq cover 93-97%.

    Unit variances put the design well inside the regime the interval
    widths target: with sigma_e_sq/(m sigma_alpha_sq) = 2%, the
    finite-m part of Var(beta1_hat) that the limit width ignores is
    negligible.  The sigma_alpha_sq interval is the binding one here:
    its plug-in fourth-moment width is noisy at g = 100 and the
    construction's true coverage sits near 0.93 regardless of the
    generating truth, so this check runs against the low edge of the
    band by design.
    """
    summary = run_replications(_study(g=100, m=50, reps=1000, seed=20260815,
                                      sigma_alpha_sq=1.0))
    rates = {name: summary.coverage[name]
             for name in ("beta1[0]", "beta2[0]", "sigma_alpha_sq")}
    ok = (summary.n_ok == 1000 and summary.n_boundary == 0
          and all(0.93 <= r <= 0.97 for r in rates.values()))
    _report(capsys, 6, ok,
            "coverage at g=100, m=50, 1000 replicates: "
            + ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
            + " (band [0.93, 0.97])")


# ---------------------------------------------------------------------------
# criterion 7: between/within block orthogonality
# ---------------------------------------------------------------------------

def test_criterion_07_block_orthogonality(capsys):
    """Normalized between- and within-block errors are nearly uncorrelated."""
    summary = run_replications(_study(g=200, m=100, reps=1000, seed=707,
                                      sigma_alpha_sq=0.25))
    corr = summary.cross_block_max_correlation
    ok = summary.n_ok == 1000 and corr < 0.1
    _report(capsys, 7, ok,
            f"max |cross-block correlation| {corr:.4f} over 1000 replicates "
            f"at g=200, m=100 (tol 0.1)")


# ---------------------------------------------------------------------------
# criterion 8: convergence rates of the two coefficient blocks
# ---------------------------------------------------------------------------

def test_criterion_08_convergence_rates(capsys, size_sweep):
    """SD of beta1 shrinks like 1/sqrt(g); SD of beta2 like 1/sqrt(n)."""
    log_g, log_n, log_sd_b1, log_sd_b2 = [], [], [], []
    for g, m, summary in size_sweep:
        est = summary.omega_ml[summary.interior]
        log_g.append(math.log(g))
        log_n.append(math.log(g * m))
        log_sd_b1.append(math.log(est[:, 1].std()))
        log_sd_b2.append(math.log(est[:, 3].std()))
    slope_b1 = float(np.polyfit(log_g, log_sd_b1, 1)[0])
    slope_b2 = float(np.polyfit(log_n, log_sd_b2, 1)[0])
    ok = abs(slope_b1 + 0.5) <= 0.15 and abs(slope_b2 + 0.5) <= 0.15
    _report(capsys, 8, ok,
            f"log-SD slopes over (25,25)->(100,100): beta1 vs g {slope_b1:.3f}, "
            f"beta2 vs n {slope_b2:.3f} (target -0.5 +/- 0.15)")


# ---------------------------------------------------------------------------
# criterion 9: ML and REML agree at scale
# ---------------------------------------------------------------------------

def test_criterion_09_ml_reml_agreement(capsys, size_sweep):
    """Normalized ML/REML gap shrinks along the doubling sequence."""
    medians = []
    for _, _, summary in size_sweep:
        gaps = summary.ml_reml_gap[summary.interior]
        medians.append(float(np.median(gaps)))
    ok = medians[0] >= medians[1] >= medians[2] and medians[2] < 0.1
    _report(capsys, 9, ok,
            "median |K^(1/2)(reml - ml)| along the sweep: "
            + ", ".join(f"{v:.4f}" for v in medians)
            + " (non-increasing, final < 0.1)")


# ---------------------------------------------------------------------------
# criterion 10: cluster-mean error moment identities
# ---------------------------------------------------------------------------

def test_criterion_10_mean_error_moments(capsys):
    """First four moments of the cluster-mean error match theory.

    E ebar = 0, E ebar^2 = sigma_e_sq/m, E ebar^3 = mu3/m^2 and
    E ebar^4 = 3 sigma_e_sq^2/m^2 + (mu4 - 3 sigma_e_sq^2)/m^3, checked
    by simulation for a normal and a heavy-tailed error law at small and
    large cluster sizes.
    """
    worst = {}
    for seed, tag in ((1010, "normal"), (1011, "t(7)")):
        cfg = SimConfig(
            g=20, cluster_sizes=[5] * 10 + [50] * 10,
            true_omega=ParameterVector(0.0, [], 1.0, [], 1.0),
            e_dist=parse_distribution(tag), seed=seed, replications=3000,
        )
        diag = moment_diagnostics(cfg)
        worst[tag] = max(abs(cell["zscore"])
                         for by_moment in diag.values()
                         for cell in by_moment.values())
    ok = all(z <= 4.0 for z in worst.values())
    _report(capsys, 10, ok,
            "cluster-mean moment z-scores (30000 draws per size, m in {5, 50}): "
            + ", ".join(f"{k} max |z| {v:.2f}" for k, v in worst.items())
            + " (tol 4)")
