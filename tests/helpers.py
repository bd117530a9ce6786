"""Shared oracles, builders and the paper's reference algebra for the
test suite.

The oracles deliberately avoid the library's own computational path:
sufficient statistics via naive double loops, the log-likelihood via a dense
per-cluster multivariate normal density, derivatives via central finite
differences.  Agreement between these and the package is what the tests
assert, so none of these oracles may ever call into the code under test
except to construct plain data containers.  Per-cluster records
(:class:`Cluster`) are packed into, and unpacked from, the library's flat
dataset arrays here.

The reference algebra is the paper's construction of the pieces the library
only uses in closed form: the limit matrices A and B (whose sandwich
B^-1 A B^-1 the library's ``matrix_C`` must equal), the score derivative
and its expectation, the finite-design B_n, the REML criterion and the
cluster-mean moment diagnostics.  These build on the library's public
layout, ``tau``, ``profile_beta`` and ``likelihood_batch``, never on its
private helpers, except that the brute-force grids evaluate the objective
of ``profile_beta`` and ``log_likelihood`` at all their points through
the stacked solve ``_solve`` that ``profile_beta`` wraps; the tests check
them against finite differences, Monte Carlo averages and each other.

The library's likelihood, moments, limits and intervals take a stack of
rows, one per dataset or fit.  Their one-dataset views, which only the
tests call, are at the end of this module; the interval view calls the
private step that ``intervals`` runs once its stack-wide checks pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nerm.asymptotics import (
    CovariateLimits,
    MomentEstimates,
    _interval_rows,
    _two_sided_z,
    normalization,
)
from nerm.asymptotics import estimate_moments as moments_batch
from nerm.errors import RaggedCovariates
from nerm.estimation import _rows, _solve, objective_batch, profile_beta
from nerm.likelihood import likelihood_batch
from nerm.model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    parameter_layout,
    tau,
)

# ---------------------------------------------------------------------------
# dataset builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    """One cluster: responses plus its covariates.

    ``x_b`` is the cluster-level covariate vector (length p_b) and ``x_w``
    the (m_i, p_w) matrix of within-cluster covariates aligned with ``y``.
    """

    id: str
    y: np.ndarray
    x_b: np.ndarray
    x_w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=float)))
        object.__setattr__(self, "x_b", np.atleast_1d(np.asarray(self.x_b, dtype=float)))
        xw = np.asarray(self.x_w, dtype=float)
        if xw.ndim == 1:  # allow (m,) shorthand for p_w == 1
            xw = xw[:, None]
        object.__setattr__(self, "x_w", xw)

    @property
    def m(self) -> int:
        return self.y.size


def pack(records, p_b: int, p_w: int) -> ClusteredDataset:
    """Pack per-cluster records into the flat arrays; raises
    RaggedCovariates when a cluster's covariates disagree with p_b/p_w."""
    for c in records:
        if c.x_b.shape != (p_b,) or c.x_w.shape != (c.m, p_w):
            raise RaggedCovariates(
                f"cluster {c.id!r}: x_b has shape {c.x_b.shape} and x_w "
                f"{c.x_w.shape}, expected ({p_b},) and ({c.m}, {p_w})"
            )
    return ClusteredDataset(
        y=np.concatenate([c.y for c in records] + [np.empty(0)]),
        x_w=np.concatenate([c.x_w for c in records] + [np.empty((0, p_w))]),
        x_b=np.array([c.x_b for c in records]).reshape(len(records), p_b),
        offsets=np.concatenate(([0], np.cumsum([c.m for c in records]))),
        ids=[c.id for c in records],
    )


def clusters(ds: ClusteredDataset) -> list[Cluster]:
    """Per-cluster records of a dataset's rows, the inverse of :func:`pack`."""
    o = ds.offsets
    return [Cluster(ds.ids[k], ds.y[o[k]:o[k + 1]], ds.x_b[k], ds.x_w[o[k]:o[k + 1]])
            for k in range(ds.g)]


def make_dataset(y_by_cluster, x_b=None, x_w=None, p_b=0, p_w=0) -> ClusteredDataset:
    """Assemble a dataset from plain lists, clusters labelled c000, c001, ...;
    raises what the ClusteredDataset constructor raises."""
    records = []
    for k, y in enumerate(y_by_cluster):
        y = np.asarray(y, dtype=float)
        xb = np.asarray(x_b[k], dtype=float) if x_b is not None else np.empty(0)
        if x_w is not None:
            xw = np.asarray(x_w[k], dtype=float)
            if xw.ndim == 1:
                xw = xw[:, None]
        else:
            xw = np.empty((y.size, 0))
        records.append(Cluster(f"c{k:03d}", y, xb, xw))
    return pack(records, p_b=p_b, p_w=p_w)


def random_dataset(rng, g, m_max=8, p_b=1, p_w=1, m_min=1):
    """Small random dataset with normal effects; for oracle comparisons."""
    sizes = rng.integers(m_min, m_max + 1, size=g)
    if not np.any(sizes >= 2):  # keep n > g so every code path is exercised
        sizes[rng.integers(0, g)] = 2
    beta0 = rng.normal()
    beta1 = rng.normal(size=p_b)
    beta2 = rng.normal(size=p_w)
    sa, se = rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0)
    ys, xbs, xws = [], [], []
    for m in sizes:
        xb = rng.normal(size=p_b)
        xw = rng.normal(size=(m, p_w))
        alpha = rng.normal(scale=np.sqrt(sa))
        e = rng.normal(scale=np.sqrt(se), size=m)
        y = beta0 + xb @ beta1 + xw @ beta2 + alpha + e
        ys.append(y)
        xbs.append(xb)
        xws.append(xw)
    ds = make_dataset(ys, xbs, xws, p_b=p_b, p_w=p_w)
    omega = ParameterVector(beta0, beta1, sa, beta2, se)
    return ds, omega


def random_omega(rng, p_b, p_w) -> ParameterVector:
    return ParameterVector(
        beta0=rng.normal(),
        beta1=rng.normal(size=p_b),
        sigma_alpha_sq=rng.uniform(0.3, 2.5),
        beta2=rng.normal(size=p_w),
        sigma_e_sq=rng.uniform(0.3, 2.5),
    )


def from_flat(flat, p_b: int, p_w: int) -> ParameterVector:
    """The parameter vector with canonical flat layout ``flat``, the inverse
    of ``ParameterVector.flatten``; finite-difference oracles perturb the
    flat vector and evaluate through this."""
    dim, i0, i1, ia, i2, ie = parameter_layout(p_b, p_w)
    assert len(flat) == dim, (len(flat), dim)
    return ParameterVector(flat[i0], flat[i1], flat[ia], flat[i2], flat[ie])


# ---------------------------------------------------------------------------
# naive sufficient statistics (pure double loops)
# ---------------------------------------------------------------------------


def naive_sufficient_stats(ds: ClusteredDataset):
    """Sufficient statistics by explicit elementwise loops."""
    m, ybar, xbar = [], [], []
    S_w_y = 0.0
    S_w_xy = np.zeros(ds.p_w)
    S_w_x = np.zeros((ds.p_w, ds.p_w))
    for c in clusters(ds):
        mi = len(c.y)
        m.append(mi)
        yb = sum(float(v) for v in c.y) / mi
        ybar.append(yb)
        xb = np.array([sum(float(c.x_w[j, r]) for j in range(mi)) / mi
                       for r in range(ds.p_w)])
        xbar.append(xb)
        for j in range(mi):
            dy = float(c.y[j]) - yb
            S_w_y += dy * dy
            for r in range(ds.p_w):
                dxr = float(c.x_w[j, r]) - xb[r]
                S_w_xy[r] += dxr * dy
                for s in range(ds.p_w):
                    S_w_x[r, s] += dxr * (float(c.x_w[j, s]) - xb[s])
    return (np.array(m), np.array(ybar),
            np.array(xbar).reshape(ds.g, ds.p_w), S_w_y, S_w_xy, S_w_x)


def naive_center(ds: ClusteredDataset, add_contextual: bool):
    """Per-cluster (x_b, x_w) after centering, by explicit loops."""
    out = []
    for c in clusters(ds):
        mi = len(c.y)
        mean = [sum(float(c.x_w[j, r]) for j in range(mi)) / mi
                for r in range(ds.p_w)]
        x_w = [[float(c.x_w[j, r]) - mean[r] for r in range(ds.p_w)]
               for j in range(mi)]
        x_b = [float(v) for v in c.x_b] + (mean if add_contextual else [])
        out.append((np.array(x_b), np.array(x_w).reshape(mi, ds.p_w)))
    return out


def naive_first_nonfinite(ys, xbs, xws):
    """(cluster index, "response" or "covariate") of the first non-finite
    value in per-cluster lists of responses, between and within covariates,
    checking each cluster's responses before its covariates."""
    for k, (y, x_b, x_w) in enumerate(zip(ys, xbs, xws)):
        if not all(np.isfinite(float(v)) for v in y):
            return k, "response"
        values = [float(v) for v in x_b] + [float(v) for v in np.ravel(x_w)]
        if not all(np.isfinite(v) for v in values):
            return k, "covariate"
    return None


def naive_moments(ds: ClusteredDataset, omega: ParameterVector):
    """(mu3_alpha, mu4_alpha, mu4_e) from fit residuals by loops: power
    means of the cluster-mean residuals and of the within-centered
    observation residuals."""
    m, ybar, xbar, *_ = naive_sufficient_stats(ds)
    s3a = s4a = s4e = 0.0
    for k, c in enumerate(clusters(ds)):
        rb = ybar[k] - omega.beta0 \
            - sum(float(c.x_b[r]) * omega.beta1[r] for r in range(ds.p_b)) \
            - sum(xbar[k, r] * omega.beta2[r] for r in range(ds.p_w))
        s3a += rb ** 3
        s4a += rb ** 4
        for j in range(m[k]):
            d = float(c.y[j]) - ybar[k] - sum(
                (float(c.x_w[j, r]) - xbar[k, r]) * omega.beta2[r]
                for r in range(ds.p_w))
            s4e += d ** 4
    return s3a / ds.g, s4a / ds.g, s4e / m.sum()


# ---------------------------------------------------------------------------
# dense multivariate normal log-density oracle
# ---------------------------------------------------------------------------


def dense_mvn_loglik(ds: ClusteredDataset, omega: ParameterVector) -> float:
    """Exact Gaussian log-density of the full response vector.

    Builds each cluster's dense covariance sigma_e_sq*I + sigma_alpha_sq*J
    and evaluates the density with generic linear algebra (slogdet + solve);
    differs from the model log-likelihood only by a constant not depending
    on the parameters.
    """
    total = 0.0
    for c in clusters(ds):
        m = c.y.size
        mean = omega.beta0 + float(c.x_b @ omega.beta1) + c.x_w @ omega.beta2
        cov = omega.sigma_e_sq * np.eye(m) + omega.sigma_alpha_sq * np.ones((m, m))
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        resid = c.y - mean
        total += -0.5 * m * np.log(2.0 * np.pi) - 0.5 * logdet \
            - 0.5 * float(resid @ np.linalg.solve(cov, resid))
    return total


# ---------------------------------------------------------------------------
# profiled objective oracle and a local-maximum check
# ---------------------------------------------------------------------------


def profiled_objective(ds: ClusteredDataset, theta, reml: bool) -> float:
    """ML or REML objective at theta = (sigma_alpha_sq, sigma_e_sq), with
    sigma_alpha_sq >= 0 allowed, and the coefficients at their GLS solution.

    Uses the closed forms V_i^-1 = (I - c_i 11') / se with c_i = sa / (se +
    m_i sa) and det V_i = se^(m_i - 1) (se + m_i sa) over the raw rows; the
    Gaussian log-density up to a constant, minus (1/2) log det X'V^-1X for
    REML.
    """
    sa, se = float(theta[0]), float(theta[1])
    sizes = np.diff(ds.offsets)
    cl = np.repeat(np.arange(ds.g), sizes)
    X = np.column_stack([np.ones(ds.n), ds.x_b[cl], ds.x_w])
    c = sa / (se + sizes * sa)

    def v_inv(a):
        sums = np.add.reduceat(a, ds.offsets[:-1], axis=0)
        return (a - (c * sums.T).T[cl]) / se

    A = X.T @ v_inv(X)
    beta = np.linalg.solve(A, X.T @ v_inv(ds.y))
    r = ds.y - X @ beta
    logdet = float(np.sum((sizes - 1) * np.log(se) + np.log(se + sizes * sa)))
    value = -0.5 * (logdet + float(r @ v_inv(r)))
    if reml:
        value -= 0.5 * np.linalg.slogdet(A)[1]
    return value


def profiled_per_cluster(stats: SufficientStats, gamma: float, reml: bool):
    """The profiled problem at one gamma >= 0, assembled cluster by cluster:
    (value, slope, beta, sigma_e_sq) with w_i = m_i / (1 + m_i gamma),
    M(gamma) = Z' diag(w) Z + W and the residual sum of squares
    Q(beta2) + sum_i w_i r_i^2, as in the estimation module's docstring.
    The reference for its stacked per-size evaluation."""
    m = stats.m.astype(float)
    w = m / (1.0 + m * gamma)
    Z, k = stats.Z, 1 + stats.p_b
    M = (Z.T * w) @ Z
    M[k:, k:] += stats.S_w_x
    rhs = Z.T @ (w * stats.ybar)
    rhs[k:] += stats.S_w_xy
    beta = np.linalg.solve(M, rhs)
    r = stats.ybar - Z @ beta
    rss = _Q(stats, beta[k:]) + float(np.sum(w * r * r))
    df = stats.n - (Z.shape[1] if reml else 0)
    value = 0.5 * float(np.sum(np.log(w))) - 0.5 * df * np.log(rss / df)
    slope = -0.5 * float(np.sum(w)) + 0.5 * df * float(np.sum((w * r) ** 2)) / rss
    if reml:
        value -= 0.5 * np.linalg.slogdet(M)[1]
        slope += 0.5 * float(np.trace(np.linalg.solve(M, (Z.T * (w * w)) @ Z)))
    return value, slope, beta, rss / df


def best_feasible_gain(ds: ClusteredDataset, theta, reml: bool) -> float:
    """Largest gain of :func:`profiled_objective` over nearby feasible
    points: sigma_alpha_sq = 0, and steps of 1e-3, 1e-2 and 1e-1 up and
    down in each log variance and up in sigma_alpha_sq / sigma_e_sq."""
    sa, se = float(theta[0]), float(theta[1])
    cands = [(0.0, se)]
    for d in (1e-3, 1e-2, 1e-1):
        up, down = np.exp(d), np.exp(-d)
        cands += [(sa * up, se), (sa * down, se), (sa, se * up),
                  (sa, se * down), (sa + d * se, se)]
    f0 = profiled_objective(ds, theta, reml)
    return max(profiled_objective(ds, c, reml) for c in cands) - f0


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------


def fd_gradient(f, x, scale=1e-6):
    """Central finite-difference gradient with step scale*(1+|x_k|)."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for k in range(x.size):
        h = scale * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        grad[k] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def fd_jacobian(f, x, scale=1e-6):
    """Central finite-difference Jacobian of a vector-valued f."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for k in range(x.size):
        h = scale * (1.0 + abs(x[k]))
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


# ---------------------------------------------------------------------------
# the paper's reference algebra
# ---------------------------------------------------------------------------


def matrix_B(limits: CovariateLimits, theta_dot) -> np.ndarray:
    """Limit of the normalized negative expected score derivative.

    Block diagonal: [[1, c1'],[c1, C2]]/sigma_alpha_sq over (beta0, beta1),
    then 1/(2 sigma_alpha_sq^2), then C3/sigma_e_sq, then 1/(2 sigma_e_sq^2).
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    dim, i0, i1, ia, i2, ie = parameter_layout(limits.p_b, limits.p_w)
    B = np.zeros((dim, dim))
    B[i0, i0] = 1.0 / sa
    B[i0, i1] = limits.c1 / sa
    B[i1, i0] = limits.c1 / sa
    B[i1, i1] = limits.C2 / sa
    B[ia, ia] = 1.0 / (2.0 * sa * sa)
    B[i2, i2] = limits.C3 / se
    B[ie, ie] = 1.0 / (2.0 * se * se)
    return B


def matrix_A(limits: CovariateLimits, theta_dot,
             moments: MomentEstimates) -> np.ndarray:
    """Limit covariance of the normalized score at the truth.

    Equals :func:`matrix_B` except in the variance rows, which carry
    E alpha^3, E alpha^4 - sigma_alpha_sq^2 and E e^4 - sigma_e_sq^2; under
    normal moments the two matrices coincide.
    """
    sa, se = float(theta_dot[0]), float(theta_dot[1])
    dim, i0, i1, ia, i2, ie = parameter_layout(limits.p_b, limits.p_w)
    A = matrix_B(limits, theta_dot)
    coupling = moments.mu3_alpha / (2.0 * sa**3)
    A[i0, ia] = A[ia, i0] = coupling
    A[i1, ia] = limits.c1 * coupling
    A[ia, i1] = limits.c1 * coupling
    A[ia, ia] = (moments.mu4_alpha - sa * sa) / (4.0 * sa**4)
    A[ie, ie] = (moments.mu4_e - se * se) / (4.0 * se**4)
    return A


def normal_theory(sigma_alpha_sq: float, sigma_e_sq: float) -> MomentEstimates:
    """Moments a normal law would have; handy for law-level matrices."""
    return MomentEstimates(0.0, 3.0 * sigma_alpha_sq**2, 3.0 * sigma_e_sq**2)


def _jacobian(stats, omega, r, r_sq, Q, u) -> np.ndarray:
    """Derivative matrix of the score in the canonical order.

    Written in the order (Z columns, sigma_alpha_sq, sigma_e_sq), as the
    library writes the score.  The observed and the expected matrix differ
    only in what stands in for the random pieces: the mean residual ``r``,
    its square ``r_sq``, Q(beta2) (``Q``) and S_w_xy - S_w_x beta2 (``u``).
    With d_i = (1, 1/m_i), the derivative of tau_i in the variances is
    -tau_i^2 d_i.
    """
    m = stats.m.astype(float)
    t, d = tau(omega.theta, m), np.stack((np.ones_like(m), 1.0 / m))
    Z, se = stats.Z, omega.sigma_e_sq
    k, q = 1 + stats.p_b, Z.shape[1]
    J = np.empty((q + 2, q + 2))
    J[:q, :q] = -(Z.T * t) @ Z
    J[k:q, k:q] -= stats.S_w_x / se
    J[:q, q:] = -Z.T @ (d * (t * t * r)).T
    J[k:q, q + 1] -= u / (se * se)
    J[q:, :q] = J[:q, q:].T
    J[q:, q:] = (d * (0.5 * t * t - t**3 * r_sq)) @ d.T
    J[q + 1, q + 1] += 0.5 * (stats.n - stats.g) / (se * se) - Q / se**3
    dim, i0, i1, ia, i2, ie = parameter_layout(stats.p_b, stats.p_w)
    pos = np.arange(dim)
    c = np.r_[i0, pos[i1], pos[i2], ia, ie]
    out = np.empty_like(J)
    out[np.ix_(c, c)] = J
    return out


def _Q(stats: SufficientStats, beta2: np.ndarray) -> float:
    return float(stats.S_w_y - 2.0 * (stats.S_w_xy @ beta2)
                 + beta2 @ stats.S_w_x @ beta2)


def score_jacobian(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """Derivative matrix of the score with respect to omega, in closed form.

    Symmetric (it is the Hessian of the log-likelihood) and, at a converged
    interior fit, negative definite.
    """
    r = stats.ybar - stats.Z @ omega.beta
    return _jacobian(stats, omega, r, r * r, _Q(stats, omega.beta2),
                     stats.S_w_xy - stats.S_w_x @ omega.beta2)


def expected_score_jacobian(stats: SufficientStats, omega: ParameterVector,
                            omega_dot: ParameterVector) -> np.ndarray:
    """Expectation of ``score_jacobian(omega)`` when omega_dot generated the data.

    Uses E r_i = z_i'(beta_dot - beta) and E r_i^2 = {z_i'(beta_dot -
    beta)}^2 + 1/tau_dot_i; the within cross products satisfy E S_w_xy =
    S_w_x beta2_dot and E Q(beta2) = (beta2_dot - beta2)' S_w_x (beta2_dot -
    beta2) + (n - g) sigma_e_sq_dot.  The covariates are treated as fixed.
    """
    mean_r = stats.Z @ (omega_dot.beta - omega.beta)
    d2 = omega_dot.beta2 - omega.beta2
    exp_Q = float(d2 @ stats.S_w_x @ d2) \
        + (stats.n - stats.g) * omega_dot.sigma_e_sq
    return _jacobian(stats, omega, mean_r,
                     mean_r * mean_r + 1.0 / tau(omega_dot.theta, stats.m),
                     exp_Q, stats.S_w_x @ d2)


def matrix_Bn(stats: SufficientStats, theta_dot) -> np.ndarray:
    """Finite-sample analogue of B for the design at hand.

    Equals -K^(-1/2) E psi'(omega_dot) K^(-1/2) and converges to
    :func:`matrix_B` as g and the smallest cluster grow.  The coefficients
    of omega_dot cancel in E psi' at omega = omega_dot, so zeros stand in.
    """
    omega_dot = ParameterVector(0.0, np.zeros(stats.p_b), theta_dot[0],
                                np.zeros(stats.p_w), theta_dot[1])
    J = expected_score_jacobian(stats, omega_dot, omega_dot)
    k = np.sqrt(normalization(stats.g, stats.n, stats.p_b, stats.p_w))
    return -J / np.outer(k, k)


def reml_criterion(stats: SufficientStats, theta) -> float:
    """Restricted likelihood objective l(beta_hat(theta), theta) - (1/2) log|Delta|."""
    beta, delta = profile_beta(stats, theta)
    k = 1 + stats.p_b
    omega = ParameterVector(beta[0], beta[1:k], theta[0], beta[k:], theta[1])
    return log_likelihood(stats, omega) - 0.5 * np.linalg.slogdet(delta)[1]


def grid_objective(stats: SufficientStats, sa, se, reml: bool) -> np.ndarray:
    """The profiled objective at every theta = (sa[k], se[k]) at once: per
    point what ``profile_beta`` and ``log_likelihood`` give (less (1/2) log
    det Delta for REML, as in :func:`reml_criterion`), from one stacked
    ``_solve`` over gamma = sa / se and one ``likelihood_batch`` call."""
    sa, se = np.asarray(sa, dtype=float), np.asarray(se, dtype=float)
    p = _solve(_rows([stats], [False]), (sa / se)[None])
    beta, L = p.beta[0], p.L[0]
    omegas = np.insert(beta, [1 + stats.p_b, beta.shape[1]],
                       np.stack((sa, se), axis=1), axis=1)
    value = likelihood_batch([stats] * sa.size, omegas)[0]
    if reml:   # Delta = L L' / sigma_e_sq
        value -= 0.5 * np.linalg.slogdet(L @ np.swapaxes(L, 1, 2) / se[:, None, None])[1]
    return value


def score_jacobian_rows(stats, omegas) -> np.ndarray:
    """Derivative matrix with each row evaluated at its own parameter vector.

    This is the mean-value form used in consistency arguments: row k of the
    result equals row k of ``score_jacobian`` evaluated at ``omegas[k]``.
    All vectors must share the covariate dimensions.
    """
    dim = stats.p_b + stats.p_w + 3
    if len(omegas) != dim:
        raise ValueError(f"need exactly {dim} parameter vectors, got {len(omegas)}")
    out = np.empty((dim, dim))
    for k, om in enumerate(omegas):
        out[k] = score_jacobian(stats, om)[k]
    return out


def moment_diagnostics(cfg) -> dict:
    """Simulate errors only and test the four cluster-mean moment identities

        E ebar = 0,                 E ebar^2 = sigma_e_sq / m,
        E ebar^3 = E e^3 / m^2,     E ebar^4 = 3 sigma_e_sq^2 / m^2
                                               + (E e^4 - 3 sigma_e_sq^2) / m^3.

    Uses cfg.replications fresh draws of each cluster's mean error (one
    batch per distinct cluster size) from the stream seeded by (seed, 1),
    which no replicate of a run uses.  Returns the structure of
    ``MonteCarloSummary.ebar_moments``: size -> {mean, second, third,
    fourth} -> {empirical, expected, mc_se, zscore}.
    """
    rng = np.random.default_rng([int(cfg.seed) & 0xFFFFFFFF, 1])
    law, var = cfg.e_dist, cfg.true_omega.sigma_e_sq
    se, m3, m4 = law.variance(var), law.moment3(var), law.moment4(var)
    sizes = cfg.sizes
    out = {}
    for m in np.unique(sizes):
        count = int(np.sum(sizes == m)) * cfg.replications
        ebar = law.sample(rng, (count, int(m)), var).mean(axis=1)
        sums = [np.sum(ebar**k) for k in range(1, 9)]
        mf = float(m)
        expected = (0.0, se / mf, m3 / mf**2,
                    3.0 * se * se / mf**2 + (m4 - 3.0 * se * se) / mf**3)
        entry = {}
        for k, key in enumerate(("mean", "second", "third", "fourth"), start=1):
            emp = sums[k - 1] / count
            mc_se = math.sqrt(max(sums[2 * k - 1] / count - emp * emp, 0.0) / count)
            z = (emp - expected[k - 1]) / mc_se if mc_se > 0 else 0.0
            entry[key] = {"empirical": float(emp), "expected": float(expected[k - 1]),
                          "mc_se": float(mc_se), "zscore": float(z)}
        out[int(m)] = entry
    return out


def close(a, b, rtol, floor=1.0):
    """True when |a-b| <= rtol * max(floor, |b|) elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= rtol * np.maximum(floor, np.abs(b)))


# ---------------------------------------------------------------------------
# one-dataset views of the library's stacked functions
# ---------------------------------------------------------------------------

def log_likelihood(stats: SufficientStats, omega: ParameterVector) -> float:
    """The library's log-likelihood of one dataset: the one-row case of
    ``likelihood_batch``."""
    return float(likelihood_batch([stats], omega.flatten()[None])[0][0])


def score(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """The library's score of one dataset, in the canonical order."""
    return likelihood_batch([stats], omega.flatten()[None])[1][0]


def adjusted_score(stats: SufficientStats, omega: ParameterVector) -> np.ndarray:
    """The library's REML estimating function psi_A of one dataset."""
    return objective_batch([stats], omega.flatten()[None], [True])[1][0]


def limits_from_dataset(ds: ClusteredDataset) -> CovariateLimits:
    """The finite-sample covariate limits of one dataset."""
    lim = CovariateLimits.from_datasets([ds])
    return CovariateLimits(c1=lim.c1[0], C2=lim.C2[0], C3=lim.C3[0])


def estimate_moments(ds: ClusteredDataset, fit) -> MomentEstimates:
    """The plug-in moments of one (dataset, fit) pair."""
    mom = moments_batch([ds], [fit])
    return MomentEstimates(mom.mu3_alpha[0], mom.mu4_alpha[0], mom.mu4_e[0],
                           mom.unit[0])


def confidence_intervals(fit, limits: CovariateLimits, moments: MomentEstimates,
                         gamma: float):
    """The intervals of one fit from its limits and moments: the one-row
    case of the interval step that ``intervals`` runs, with K of the fit's
    g and n and z of the gamma rule."""
    stack = CovariateLimits(c1=limits.c1[None], C2=limits.C2[None],
                            C3=limits.C3[None])
    moments = MomentEstimates(*(np.array([getattr(moments, f)]) for f in
                                ("mu3_alpha", "mu4_alpha", "mu4_e", "unit")))
    K = normalization(fit.g, fit.n, limits.p_b, limits.p_w)
    return _interval_rows([fit], stack, moments, K, _two_sided_z(gamma), 1.0 - gamma)[0]
