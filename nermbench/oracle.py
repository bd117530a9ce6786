"""Independent reference computations used to check nerm's outputs.

Nothing here calls nerm.  Every quantity is rebuilt from the raw rows of a
dataset and the model definition

    y_ij = x_ij' beta + alpha_i + e_ij,   V_i = sigma_e_sq I + sigma_alpha_sq 11',

using the closed forms det V_i = se^(m_i-1) (se + m_i sa) and
V_i^-1 = (I - sa/(se + m_i sa) 11') / se, written with numpy arrays over
all rows at once.  A dense per-cluster multivariate-normal density checks
those closed forms on a subset of clusters (:func:`dense_selftest`).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


class Data:
    """Raw rows stored cluster by cluster, with the benchmark's own statistics.

    Args:
        y: (n,) responses, rows of one cluster contiguous.
        xb: (g, p_b) between covariates.
        xw: (n, p_w) within covariates.
        sizes: (g,) rows per cluster, in row order.
    """

    def __init__(self, y, xb, xw, sizes):
        self.m = np.asarray(sizes, dtype=np.int64)
        self.g = self.m.size
        self.y = np.asarray(y, dtype=float)
        self.n = self.y.size
        self.xb = np.asarray(xb, dtype=float).reshape(self.g, -1)
        self.xw = np.asarray(xw, dtype=float).reshape(self.n, -1)
        if int(self.m.sum()) != self.n:
            raise ValueError("cluster sizes do not add up to the row count")
        self.p_b, self.p_w = self.xb.shape[1], self.xw.shape[1]
        starts = np.concatenate(([0], np.cumsum(self.m)[:-1]))
        cl = np.repeat(np.arange(self.g), self.m)
        mf = self.m.astype(float)
        self.ybar = np.add.reduceat(self.y, starts) / mf
        self.xwbar = np.add.reduceat(self.xw, starts, axis=0) / mf[:, None]
        self.dy = self.y - self.ybar[cl]
        self.dxw = self.xw - self.xwbar[cl]
        self.zbar = np.column_stack([np.ones(self.g), self.xb, self.xwbar])
        q = self.zbar.shape[1]
        self.W = np.zeros((q, q))
        self.w = np.zeros(q)
        self.W[1 + self.p_b:, 1 + self.p_b:] = self.dxw.T @ self.dxw
        self.w[1 + self.p_b:] = self.dxw.T @ self.dy
        self.sum_log_m = float(np.sum(np.log(mf)))

    def subset(self, k):
        """The first k clusters as a new dataset."""
        rows = int(self.m[:k].sum())
        return Data(self.y[:rows], self.xb[:k], self.xw[:rows], self.m[:k])

    # -- closed forms ------------------------------------------------------

    def _tau(self, theta):
        sa, se = theta
        return self.m / (se + self.m * sa)

    def gls_system(self, theta):
        """X' V^-1 X and X' V^-1 y at theta = (sa, se), sa >= 0 < se."""
        t = self._tau(theta)
        A = self.W / theta[1] + (self.zbar.T * t) @ self.zbar
        b = self.w / theta[1] + self.zbar.T @ (t * self.ybar)
        return A, b

    def gls(self, theta):
        A, b = self.gls_system(theta)
        return np.linalg.solve(A, b)

    def log_density(self, beta, theta):
        """Full Gaussian log-density of y at (beta, theta)."""
        sa, se = theta
        p = 1 + self.p_b
        r_within = self.dy - self.dxw @ beta[p:]
        r_mean = self.ybar - self.zbar @ beta
        quad = float(r_within @ r_within) / se \
            + float(np.sum(self._tau(theta) * r_mean * r_mean))
        logdet = float(np.sum((self.m - 1) * math.log(se)
                              + np.log(se + self.m * sa)))
        return -0.5 * (self.n * LOG_2PI + logdet + quad)

    def nerm_loglik(self, beta, theta, reml):
        """nerm's reported criterion: the log-density plus the constant
        (n/2) log 2pi + (1/2) sum log m_i, minus (1/2) log det(X'V^-1X)
        for REML."""
        val = self.log_density(beta, theta) + 0.5 * self.n * LOG_2PI \
            + 0.5 * self.sum_log_m
        if reml:
            val -= 0.5 * np.linalg.slogdet(self.gls_system(theta)[0])[1]
        return float(val)

    def objective(self, theta, reml):
        """Profiled ML or REML objective (up to a constant) at theta."""
        return self.nerm_loglik(self.gls(theta), theta, reml)

    def residual_moments(self, beta):
        """Plug-in fourth moments: of the cluster-mean residuals, and of the
        within-centred residuals over all rows."""
        r_mean = self.ybar - self.zbar @ beta
        r_within = self.dy - self.dxw @ beta[1 + self.p_b:]
        return float(np.mean(r_mean ** 4)), float(np.mean(r_within ** 4))


def dense_selftest(data, theta, beta, clusters=40):
    """Relative gap between the closed-form log-density and a dense
    multivariate-normal one on the first clusters."""
    sub = data.subset(min(clusters, data.g))
    sa, se = theta
    total, pos = 0.0, 0
    for i, m in enumerate(sub.m):
        rows = slice(pos, pos + m)
        pos += m
        x = np.column_stack([np.ones(m), np.tile(sub.xb[i], (m, 1)), sub.xw[rows]])
        r = sub.y[rows] - x @ beta
        V = se * np.eye(m) + sa * np.ones((m, m))
        total += -0.5 * (m * LOG_2PI + np.linalg.slogdet(V)[1]
                         + r @ np.linalg.solve(V, r))
    mine = sub.log_density(beta, theta)
    return abs(mine - total) / max(1.0, abs(total))


# ---------------------------------------------------------------------------
# checks on one fit
# ---------------------------------------------------------------------------

Z_TOL = 1e-6          # score-test statistic of a log variance at a stationary fit
SE_TOL = 1e-6         # coefficient gap to GLS, in standard errors
REL_TOL = 1e-8        # reported criterion and interval endpoints
STEP_TOL = 1e-6       # objective gain, relative, allowed to a feasible step


def check_gls(data, beta, theta):
    """Reported coefficients against the GLS solution at the reported variances."""
    A, _ = data.gls_system(theta)
    gap = np.abs(beta - data.gls(theta)) / np.sqrt(np.diag(np.linalg.inv(A)))
    worst = float(np.max(gap))
    return worst <= SE_TOL, f"coefficients {worst:.1e} standard errors from GLS"


def check_stationary(data, theta, reml):
    """Finite-difference score statistics in u = log theta are near zero."""
    u0 = np.log(theta)

    def f(u):
        return data.objective(np.exp(u), reml)

    f0 = f(u0)
    worst = 0.0
    for k in range(2):
        e = np.zeros(2)
        e[k] = 1.0

        def d1(h):
            return (f(u0 + h * e) - f(u0 - h * e)) / (2.0 * h)

        h1 = 1e-3
        grad = (4.0 * d1(h1 / 2.0) - d1(h1)) / 3.0
        h2 = 1e-2
        curv = (f(u0 + h2 * e) - 2.0 * f0 + f(u0 - h2 * e)) / (h2 * h2)
        if not curv < 0.0:
            return False, f"objective not concave in log variance {k} (curvature {curv:.3g})"
        worst = max(worst, abs(grad) / math.sqrt(-curv))
    return worst <= Z_TOL, f"largest score statistic {worst:.1e}"


def check_no_feasible_ascent(data, theta, reml):
    """No nearby point with sigma_alpha_sq >= 0 improves the objective."""
    sa, se = theta
    f0 = data.objective(theta, reml)
    cands = [(0.0, se)]
    for d in (1e-3, 1e-2, 1e-1):
        cands += [(sa * math.exp(d), se), (sa * math.exp(-d), se),
                  (sa, se * math.exp(d)), (sa, se * math.exp(-d)),
                  (sa + d * se, se)]
    gain = max(data.objective(c, reml) for c in cands) - f0
    tol = STEP_TOL * (1.0 + abs(f0))
    return gain <= tol, f"best feasible gain {gain:.2e} (tol {tol:.1e})"


def check_fit(data, beta, theta, reml, boundary):
    """Local-maximum checks for one reported fit; returns a list of failures."""
    checks = [check_gls(data, beta, theta),
              check_no_feasible_ascent(data, theta, reml)]
    if not boundary:
        checks.append(check_stationary(data, theta, reml))
    return [detail for ok, detail in checks if not ok]


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

def expected_intervals(data, beta, theta, gamma):
    """Interval endpoints from the Wald and log-sd formulas, keyed by name.

    Coefficients: estimate +- z sqrt(v / count), with v the sigma_alpha_sq
    scaled diagonal of the inverse of [[1, c1'], [c1, C2]] (count g) or the
    sigma_e_sq scaled diagonal of C3^-1 (count n).  Variances:
    var * exp(+-z sqrt(mu4 - var^2) / sqrt(count) / var), from the
    plug-in fourth moment of the residuals.
    """
    sa, se = float(theta[0]), float(theta[1])
    z = NormalDist().inv_cdf(1.0 - gamma / 2.0)
    g, n, p_b, p_w = data.g, data.n, data.p_b, data.p_w
    M = np.empty((1 + p_b, 1 + p_b))
    M[0, 0] = 1.0
    M[0, 1:] = M[1:, 0] = data.xb.mean(axis=0)
    M[1:, 1:] = data.xb.T @ data.xb / g
    Minv = np.linalg.inv(M)
    C3inv = np.linalg.inv(data.W[1 + p_b:, 1 + p_b:] / n)
    mu4_a, mu4_e = data.residual_moments(beta)

    def wald(est, var, count):
        half = z * math.sqrt(var / count)
        return float(est - half), float(est + half)

    def log_sd(var, mu4, count):
        spread = mu4 - var * var
        if spread <= 0.0:
            return var, var
        half = z * math.sqrt(spread / count) / var
        return var * math.exp(-half), var * math.exp(half) if half < 700.0 else math.inf

    out = {"beta0": wald(beta[0], sa * Minv[0, 0], g)}
    for k in range(p_b):
        out[f"beta1[{k}]"] = wald(beta[1 + k], sa * Minv[1 + k, 1 + k], g)
    out["sigma_alpha_sq"] = log_sd(sa, mu4_a, g)
    for r in range(p_w):
        out[f"beta2[{r}]"] = wald(beta[1 + p_b + r], se * C3inv[r, r], n)
    out["sigma_e_sq"] = log_sd(se, mu4_e, n)
    return out


def close(a, b, scale):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(scale), 1e-300)
