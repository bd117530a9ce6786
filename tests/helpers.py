"""Shared oracles and builders for the test suite.

Everything here deliberately avoids the library's own computational path:
sufficient statistics via naive double loops, the log-likelihood via a dense
per-cluster multivariate normal density, derivatives via central finite
differences.  Agreement between these and the package is what the tests
assert, so none of these oracles may ever call into the code under test
except to construct plain data containers.  The one exception is
:func:`score_jacobian_rows`, a test utility that composes the library's
``score_jacobian`` row by row.  Per-cluster records (:class:`Cluster`) are
packed into, and unpacked from, the library's flat dataset arrays here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nerm.errors import RaggedCovariates
from nerm.likelihood import score_jacobian
from nerm.model import ClusteredDataset, ParameterVector

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
    """(mu3_alpha, mu4_alpha, mu3_e, mu4_e) from fit residuals by loops:
    power means of the cluster-mean residuals and of the within-centered
    observation residuals."""
    m, ybar, xbar, *_ = naive_sufficient_stats(ds)
    s3a = s4a = s3e = s4e = 0.0
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


def close(a, b, rtol, floor=1.0):
    """True when |a-b| <= rtol * max(floor, |b|) elementwise."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.all(np.abs(a - b) <= rtol * np.maximum(floor, np.abs(b)))
