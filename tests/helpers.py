"""Shared oracles and builders for the test suite.

Everything here deliberately avoids the library's own computational path:
sufficient statistics via naive double loops, the log-likelihood via a dense
per-cluster multivariate normal density, derivatives via central finite
differences.  Agreement between these and the package is what the tests
assert, so none of these oracles may ever call into the code under test
except to construct plain data containers.  The one exception is
:func:`score_jacobian_rows`, a test utility that composes the library's
``score_jacobian`` row by row.
"""

from __future__ import annotations

import numpy as np

from nerm.likelihood import score_jacobian
from nerm.model import Cluster, ClusteredDataset, ParameterVector

# ---------------------------------------------------------------------------
# dataset builders
# ---------------------------------------------------------------------------


def make_dataset(y_by_cluster, x_b=None, x_w=None, p_b=0, p_w=0) -> ClusteredDataset:
    """Assemble a dataset from plain lists; no validation side effects."""
    clusters = []
    for k, y in enumerate(y_by_cluster):
        y = np.asarray(y, dtype=float)
        xb = np.asarray(x_b[k], dtype=float) if x_b is not None else np.empty(0)
        if x_w is not None:
            xw = np.asarray(x_w[k], dtype=float)
            if xw.ndim == 1:
                xw = xw[:, None]
        else:
            xw = np.empty((y.size, 0))
        clusters.append(Cluster(f"c{k:03d}", y, xb, xw))
    return ClusteredDataset.from_clusters(clusters, p_b=p_b, p_w=p_w)


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


# ---------------------------------------------------------------------------
# naive sufficient statistics (pure double loops)
# ---------------------------------------------------------------------------


def naive_sufficient_stats(ds: ClusteredDataset):
    """Sufficient statistics by explicit elementwise loops."""
    m, ybar, xbar = [], [], []
    S_w_y = 0.0
    S_w_xy = np.zeros(ds.p_w)
    S_w_x = np.zeros((ds.p_w, ds.p_w))
    for c in ds.clusters:
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
    for c in ds.clusters:
        mi = len(c.y)
        mean = [sum(float(c.x_w[j, r]) for j in range(mi)) / mi
                for r in range(ds.p_w)]
        x_w = [[float(c.x_w[j, r]) - mean[r] for r in range(ds.p_w)]
               for j in range(mi)]
        x_b = [float(v) for v in c.x_b] + (mean if add_contextual else [])
        out.append((np.array(x_b), np.array(x_w).reshape(mi, ds.p_w)))
    return out


def naive_first_nonfinite(ds: ClusteredDataset):
    """(cluster id, "response" or "covariate") of the first non-finite
    value, checking each cluster's responses before its covariates."""
    for c in ds.clusters:
        if not all(np.isfinite(float(v)) for v in c.y):
            return c.id, "response"
        values = [float(v) for v in c.x_b] + [float(v) for v in c.x_w.ravel()]
        if not all(np.isfinite(v) for v in values):
            return c.id, "covariate"
    return None


def naive_moments(ds: ClusteredDataset, omega: ParameterVector):
    """(mu3_alpha, mu4_alpha, mu3_e, mu4_e) from fit residuals by loops:
    power means of the cluster-mean residuals and of the within-centered
    observation residuals."""
    m, ybar, xbar, *_ = naive_sufficient_stats(ds)
    s3a = s4a = s3e = s4e = 0.0
    for k, c in enumerate(ds.clusters):
        rb = ybar[k] - omega.beta0 \
            - sum(float(c.x_b[r]) * omega.beta1[r] for r in range(ds.p_b)) \
            - sum(xbar[k, r] * omega.beta2[r] for r in range(ds.p_w))
        s3a += rb ** 3
        s4a += rb ** 4
        for j in range(m[k]):
            d = float(c.y[j]) - ybar[k] - sum(
                (float(c.x_w[j, r]) - xbar[k, r]) * omega.beta2[r]
                for r in range(ds.p_w))
            s3e += d ** 3
            s4e += d ** 4
    return s3a / ds.g, s4a / ds.g, s3e / m.sum(), s4e / m.sum()


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
    for c in ds.clusters:
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
# mean-value Jacobian (built on the library's score_jacobian, not an oracle)
# ---------------------------------------------------------------------------


def score_jacobian_rows(ds, stats, omegas) -> np.ndarray:
    """Derivative matrix with each row evaluated at its own parameter vector.

    This is the mean-value form used in consistency arguments: row k of the
    result equals row k of ``score_jacobian`` evaluated at ``omegas[k]``.
    All vectors must share the covariate dimensions.
    """
    dim = ds.p_b + ds.p_w + 3
    if len(omegas) != dim:
        raise ValueError(f"need exactly {dim} parameter vectors, got {len(omegas)}")
    out = np.empty((dim, dim))
    for k, om in enumerate(omegas):
        out[k] = score_jacobian(ds, stats, om).matrix[k]
    return out


def close(a, b, rtol, floor=1.0):
    """True when |a-b| <= rtol * max(floor, |b|) elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= rtol * np.maximum(floor, np.abs(b)))
