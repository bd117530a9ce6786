"""ML and REML fitting as a bounded scalar search in the variance ratio.

Write gamma = sigma_alpha_sq / sigma_e_sq and w_i = m_i / (1 + m_i gamma),
so tau_i = w_i / sigma_e_sq.  For fixed gamma the log-likelihood is

    l = (1/2) sum_i log w_i - (n/2) log sigma_e_sq - RSS / (2 sigma_e_sq),
    RSS(beta, gamma) = Q(beta2) + sum_i w_i r_i^2,

so the stacked coefficients beta = (beta0, beta1, beta2) come from the
normal equations

    M(gamma) beta = Z' diag(w) ybar + w,   M(gamma) = Z' diag(w) Z + W,

which do not involve sigma_e_sq (z_i = (1, x_b_i, xbar_w_i), w = (0, 0,
S_w_xy), W the block diagonal matrix holding S_w_x in the within corner),
and sigma_e_sq = RSS / df in closed form, with df = n for ML.  REML
maximizes the restricted objective

    l_R(theta) = l(beta_hat(theta), theta) - (1/2) log det Delta(theta),

Delta = M / sigma_e_sq, which profiles the same way with df = n - q and an
extra -(1/2) log det M.  What is left is a function of gamma >= 0 alone,
with the closed-form derivative

    -(1/2) sum_i w_i + (df/2) sum_i w_i^2 r_i^2 / RSS
        [+ (1/2) tr{M^-1 Z' diag(w^2) Z} for REML].

This is the profiled deviance of lme4 (Bates, Maechler, Bolker & Walker,
J. Stat. Softw. 67(1), 2015).  w_i depends on m_i alone, so each sum over
clusters is a sum over the K distinct sizes: with A_k = [Z_k | ybar_k]
the between rows of the clusters of size m_k and R_k its QR factor,

    M(gamma) = sum_k w_k Z_k' Z_k + W,
    sum_i w_i r_i^2 = sum_k w_k ||R_k (-beta; 1)||^2,

and likewise with w_k^2 for the slope.  An evaluation costs O(K), not
O(g).  A batch holds datasets of one cluster layout, so its fits share w
and are searched together: each (dataset, method) pair is one row of a
stack, and every evaluation is one stacked call over the rows that need a
point.  A fixed log-spaced scan of gamma guards against a second mode; its 18
points of every row are one evaluation.  A bracketed false-position solve
(Illinois variant) finds each root of the derivative the scan brackets,
all brackets in step.  gamma = 0 is the only boundary: when the derivative
there is <= 0 the fit is reported with ``boundary_flag`` and
sigma_alpha_sq = FLOOR * sigma_e_sq.  The other way to leave the interior,
sigma_e_sq -> 0, happens only when the pooled within residual Q_min is
zero to rounding; that is decided per dataset before the search and
answered in closed form, again with ``boundary_flag``.  Collinearity of
the design does not depend on gamma, so ``SingularDelta`` is decided once
per dataset, by whether M(0) factors (``SufficientStats.collinear``), and
raised at every gamma alike.  ``_solve`` alone forms and factors M(gamma),
for every row and gamma of a stack at once; each row's numbers depend on
that row alone, never on the rest of the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateWithinDesign,
    EmptyDataset,
    InvalidConfig,
    NermError,
    SingularDelta,
)
from .likelihood import likelihood_batch
from .model import (
    ClusteredDataset,
    ParameterVector,
    SufficientStats,
    _one_layout,
    _rowwise,
    parameter_layout,
    sufficient_stats,
    sufficient_stats_batch,
    tau,
)

__all__ = [
    "FitResult",
    "profile_beta",
    "objective_batch",
    "fit_batch",
    "fit_ml",
    "fit_reml",
]

FLOOR = 1e-8   # ratio of a vanished variance to the other one, as reported
_SCAN = np.concatenate(([0.0], FLOOR * 10.0 ** np.arange(17)))  # up to 1e8
_GAMMA_TOL = 1e-12   # relative width of a solved bracket


# ---------------------------------------------------------------------------
# the profiled normal equations
# ---------------------------------------------------------------------------

_COLLINEAR = ("profiled normal equations are singular; the intercept-plus-"
              "covariate design is collinear")


def _factor_solve(M: np.ndarray, b: np.ndarray, reml: np.ndarray):
    """(L, M^-1 b) with M = L L', the rows that are not ``reml`` solved for
    b's first column alone (the rest left 0), so that a row's arithmetic
    follows its method alone; SingularDelta when either step finds M
    singular."""
    try:
        L, x = np.linalg.cholesky(M), np.zeros_like(b)
        for rows, width in ((~reml, 1), (reml, b.shape[-1])):
            if rows.any():
                x[rows, ..., :width] = np.linalg.solve(M[rows], b[rows, ..., :width])
        return L, x
    except np.linalg.LinAlgError as exc:
        raise SingularDelta(_COLLINEAR) from exc


class _Rows(NamedTuple):
    """The statistics of fits that share their cluster sizes, stacked: one
    row per (dataset, method)."""
    sizes: np.ndarray     # (K,) distinct cluster sizes, shared
    counts: np.ndarray    # (K,) clusters of each size, shared
    G: np.ndarray         # (B, K, q + 1, q + 1) per-size cross products
    R: np.ndarray         # (B, K, q + 1, q + 1) their QR factors
    S_w_x: np.ndarray     # (B, p_w, p_w)
    S_w_xy: np.ndarray    # (B, p_w)
    S_w_y: np.ndarray     # (B,)
    reml: np.ndarray      # (B,) bool

    def take(self, i) -> _Rows:
        """The rows ``i``, in that order."""
        return _Rows(self.sizes, self.counts, *(f[i] for f in self[2:]))


def _rows(stats: Sequence[SufficientStats], reml) -> _Rows:
    """One row per entry of ``stats``, all with the cluster sizes of the
    first; SingularDelta when a design is collinear."""
    if any(s.collinear for s in stats):
        raise SingularDelta(_COLLINEAR)
    return _Rows(stats[0].sizes, stats[0].counts,
                 *(np.stack([getattr(s, f) for s in stats]) for f in _Rows._fields[2:7]),
                 np.asarray(reml, dtype=bool))


class _Point(NamedTuple):
    """The profiled problem at a (rows, points) array of gamma: every field
    leads with those two axes."""
    gamma: np.ndarray
    value: np.ndarray      # profiled objective, up to a constant
    slope: np.ndarray      # its derivative in gamma
    beta: np.ndarray
    sigma_e_sq: np.ndarray
    L: np.ndarray          # M(gamma) = L L'
    trace: np.ndarray      # tr{M^-1 Z' diag(w^2) Z} for REML, 0 for ML


def _solve(rows: _Rows, gamma) -> _Point:
    """The one place that forms and factors M(gamma) and solves the normal
    equations, at every gamma of a (rows, points) array in one stacked
    call; returns the coefficients, sigma_e_sq, objective and slope there.

    Every sum over clusters is a sum over the K distinct sizes: M and the
    right-hand side from the per-size cross products, the residual sums
    from the per-size QR factors.  So an evaluation costs O(K), and no
    array over the clusters is formed.  Each row goes through the same
    per-row operations whatever the other rows are, so its numbers do not
    depend on them.
    """
    gamma = np.asarray(gamma, dtype=float)
    nrow, npt = gamma.shape
    q = rows.R.shape[-1] - 1
    k = q - rows.S_w_x.shape[-1]
    size, G = rows.sizes, rows.G.reshape(nrow, rows.sizes.size, -1)
    w = size / (1.0 + gamma[..., None] * size)             # (B, S, K)
    A = (w @ G).reshape(nrow, npt, q + 1, q + 1)           # sum_k w_k A_k' A_k
    M, rhs = A[..., :q, :q], A[..., :q, q:]
    M[..., k:, k:] += rows.S_w_x[:, None]
    rhs[..., k:, 0] += rows.S_w_xy[:, None]
    H = ((w * w) @ G).reshape(A.shape)[..., :q, :q]        # for the trace
    L, x = _factor_solve(M, np.concatenate((rhs, H), axis=-1), rows.reml)
    beta = x[..., 0]                                       # (B, S, q)
    trace = np.trace(x[..., 1:], axis1=-2, axis2=-1)       # 0 for ML
    # ||R_k (-beta; 1)||^2: the residual sum of squares of size k's means
    Rt = np.swapaxes(rows.R, -1, -2)
    e = Rt[:, :, None, q] - beta[:, None] @ Rt[:, :, :q]   # (B, K, S, q + 1)
    e2 = np.swapaxes((e * e).sum(axis=-1), 1, 2)           # (B, S, K)
    b2 = beta[..., k:]
    rss = rows.S_w_y[:, None] - 2.0 * (b2 @ rows.S_w_xy[..., None])[..., 0] \
        + ((b2 @ rows.S_w_x) * b2).sum(axis=-1) + (w * e2).sum(axis=-1)
    df = (rows.counts @ size - q * rows.reml)[:, None]     # n, or n - q for REML
    value = 0.5 * (np.log(w) @ rows.counts) - 0.5 * df * np.log(rss / df)
    slope = -0.5 * (w @ rows.counts) + 0.5 * df * (w * w * e2).sum(axis=-1) / rss
    logdet = np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    reml = rows.reml[:, None]
    return _Point(gamma, np.where(reml, value - logdet, value),
                  np.where(reml, slope + 0.5 * trace, slope),
                  beta, rss / df, L, trace)


def profile_beta(stats: SufficientStats, theta):
    """Closed-form coefficient profile at fixed variance components.

    Args:
        stats: sufficient statistics of the dataset.
        theta: (sigma_alpha_sq, sigma_e_sq), both > 0.

    Returns:
        (beta_hat, Delta): the maximizing stacked coefficients
        (beta0, beta1, beta2) and the normal-equation matrix.

    Raises:
        NonPositiveVariance: a variance is not finite and > 0.
        SingularDelta: collinear design.
    """
    tau(theta, 1.0)   # NonPositiveVariance unless both are finite and > 0
    p = _solve(_rows([stats], [False]), [[float(theta[0]) / float(theta[1])]])
    L = p.L[0, 0]
    return p.beta[0, 0], (L @ L.T) / float(theta[1])


def _omega_at(stats: SufficientStats, beta: np.ndarray, theta) -> ParameterVector:
    k = 1 + stats.p_b
    return ParameterVector(beta[0], beta[1:k], theta[0], beta[k:], theta[1])


# ---------------------------------------------------------------------------
# the scalar problem in gamma, for a stack of rows
# ---------------------------------------------------------------------------

def _maximize(rows: _Rows):
    """Best local maximum of every row's profiled objective over gamma >= 0.

    The scan starts at gamma = 0 and FLOOR and runs in decades, on past 1e8
    a decade per evaluation while a row's slope stays positive.  Each
    bracket of a sign change is then solved by Illinois false position, a
    point per live bracket per evaluation.  Returns per row: gamma, beta,
    sigma_e_sq, whether gamma = 0 won, and how many gamma were evaluated.
    """
    nrow = rows.S_w_y.size
    pts = list(_solve(rows, np.tile(_SCAN, (nrow, 1)))[:5])
    grow = ~(pts[2][:, -1] <= 0.0)   # pts: gamma, value, slope, beta, s_e^2
    for _ in range(40):
        if not grow.any():
            break
        i = np.flatnonzero(grow)
        p = _solve(rows.take(i), 10.0 * pts[0][i, -1:])
        pts = [np.concatenate((a, np.full_like(a[:, :1], np.nan)), axis=1)
               for a in pts]
        for a, b in zip(pts, p):
            a[i, -1] = b[:, 0]
        grow[i] = ~(p.slope[:, 0] <= 0.0)
    evals = np.count_nonzero(~np.isnan(pts[0]), axis=1)
    last, slope = evals - 1, pts[2]

    br, bc = np.nonzero((slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0))
    ends = [np.stack((a[br, bc], a[br, bc + 1])) for a in pts]   # low, high
    g_, s_, f = ends[0], ends[2], ends[2].copy()
    kept = np.full(br.size, -1)   # the end the last point replaced
    live = np.ones(br.size, dtype=bool)
    for _ in range(100):
        live &= ~((s_[1] == 0.0) | (g_[1] - g_[0] <= _GAMMA_TOL * g_[1]))
        if not live.any():
            break
        j = np.flatnonzero(live)
        lo, hi = g_[0, j], g_[1, j]
        c = (lo * f[1, j] - hi * f[0, j]) / (f[1, j] - f[0, j])
        c = np.where((lo < c) & (c < hi), c, 0.5 * (lo + hi))
        p = _solve(rows.take(br[j]), c[:, None])
        evals += np.bincount(br[j], minlength=nrow)
        side = np.where(p.slope[:, 0] > 0.0, 0, 1)
        for a, b in zip(ends, p):
            a[side, j] = b[:, 0]
        f[1 - side, j] *= np.where(kept[j] == side, 0.5, 1.0)
        f[side, j], kept[j] = p.slope[:, 0], side
    # a root is the positive end with the smaller |slope|
    end = np.where((g_[0] > 0.0) & (s_[0] < -s_[1]), 0, 1)

    # candidates: gamma = 0 when it wins the KKT check (reported at FLOOR,
    # the second scan point), then the roots; a row with neither keeps its
    # last point, its slope still positive far past any sane gamma
    at_zero = np.flatnonzero(slope[:, 0] <= 0.0)
    alone = np.setdiff1d(np.arange(nrow), np.concatenate((at_zero, br)))
    row = np.concatenate((at_zero, br, alone))
    cand = [np.concatenate((a[at_zero, 1], e[end, np.arange(br.size)],
                            a[alone, last[alone]])) for a, e in zip(pts, ends)]
    order = np.lexsort((-cand[1], row))   # per row the largest, the first
    pick = order[np.unique(row[order], return_index=True)[1]]
    return cand[0][pick], cand[3][pick], cand[4][pick], pick < at_zero.size, evals


def _collapsed(ds: ClusteredDataset, beta2: np.ndarray,
               reml: bool) -> ParameterVector:
    """Closed-form fit when the within residual vanishes: beta2 from the
    within equations, (beta0, beta1) by OLS on the adjusted cluster means,
    sigma_alpha_sq from their residuals and sigma_e_sq = FLOOR * that."""
    stats = sufficient_stats(ds)
    Xb = stats.Z[:, :1 + stats.p_b]
    target = stats.ybar - stats.xbar_w @ beta2
    coef, *_ = np.linalg.lstsq(Xb, target, rcond=None)
    resid = target - Xb @ coef
    df_b = stats.g - (Xb.shape[1] if reml else 0)
    sa = float(resid @ resid) / df_b if df_b > 0 else 0.0
    # the means are interpolated too: both variances vanish
    sa = max(sa, FLOOR * max(float(np.var(ds.y)), 1e-12))
    return _omega_at(stats, np.concatenate((coef, beta2)), (sa, FLOOR * sa))


# ---------------------------------------------------------------------------
# public fitting entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """Outcome of an ML or REML fit.

    ``loglik_at_opt`` is the maximized criterion: the log-likelihood for ML
    and the restricted objective for REML.  ``score_norm`` is the Euclidean
    norm of the full estimating function (psi for ML, psi_A for REML) at
    the reported parameters; ``converged`` asserts it is below
    1e-8 * (1 + |loglik_at_opt|).  ``iterations`` counts the values of
    gamma at which the profiled objective was evaluated: 18 for the
    stacked scan, one for each later point (0 when sigma_e_sq collapses).
    A fit with a vanished variance is reported with ``boundary_flag`` set,
    that variance at FLOOR = 1e-8 times the other one, and usually
    ``converged`` False.
    """

    omega_hat: ParameterVector
    method: str                 # "ml" or "reml"
    converged: bool
    iterations: int
    score_norm: float
    boundary_flag: bool
    loglik_at_opt: float
    g: int
    n: int


def _prepare(stats: Sequence[SufficientStats]) -> list:
    """What the fits of datasets of one cluster layout decide before any
    search, for all of them at once: per dataset its failure, or (within
    estimator beta2, whether sigma_e_sq collapses).

    beta2 = S_w_x^-1 S_w_xy needs S_w_x of full rank.  The test does not
    depend on units: a column counts as constant within clusters when its
    within sum of squares is below 1e-24 of its raw sum of squares
    (rounding noise), and the columns as collinear when S_w_x, scaled to
    unit diagonal, has an eigenvalue below 1e-12.
    """
    S = np.stack([s.S_w_x for s in stats])                  # (B, p_w, p_w)
    S_w_xy = np.stack([s.S_w_xy for s in stats])
    S_w_y = np.array([s.S_w_y for s in stats])
    ybar = np.stack([s.ybar for s in stats])
    within = np.diagonal(S, axis1=1, axis2=2)
    raw = within + np.vecmat(stats[0].m.astype(float),
                             np.stack([s.xbar_w for s in stats]) ** 2)
    degenerate = np.any(within <= 1e-24 * raw, axis=1)
    eye = np.eye(S.shape[1])
    if S.shape[1]:
        d = np.sqrt(np.where(degenerate[:, None], 1.0, within))
        scaled = np.where(degenerate[:, None, None], eye,
                          S / (d[:, :, None] * d[:, None, :]))
        degenerate |= np.linalg.eigvalsh(scaled)[:, 0] <= 1e-12
    beta2 = np.linalg.solve(np.where(degenerate[:, None, None], eye, S),
                            S_w_xy[..., None])[..., 0]
    # Q_min is zero to rounding when it cancels against S_w_y, or when the
    # within deviations themselves are at the rounding level of y: a
    # cluster mean of up to m_max values is off by up to about m_max
    # roundings of its largest one, and n deviations carry that error
    q_min = S_w_y - np.vecdot(S_w_xy, beta2)
    n, m_max = stats[0].n, stats[0].sizes[-1]
    rounding = n * (m_max * np.finfo(float).eps * np.abs(ybar).max(axis=1)) ** 2
    collapsed = q_min <= 1e-12 * S_w_y + rounding
    out = []
    for s, bad, b2, flat in zip(stats, degenerate, beta2, collapsed):
        if bad:
            out.append(DegenerateWithinDesign(
                "a within-cluster covariate has no within-cluster variation "
                "(S_w_x is rank deficient)"))
        elif s.collinear:
            out.append(SingularDelta(_COLLINEAR))
        else:
            out.append((b2, bool(flat)))
    return out


def objective_batch(stats: Sequence[SufficientStats], omegas: np.ndarray,
                    reml) -> tuple[np.ndarray, np.ndarray]:
    """The criterion a fit maximizes and its estimating function, for
    every row at once: the log-likelihood and score for ML, the restricted
    objective and psi_A for REML.

    The restricted objective subtracts (1/2) log det Delta, Delta = L L' /
    sigma_e_sq.  psi_A is the score with the variance entries less (1/2)
    tr{Delta^-1 dDelta/dtheta_k}, with dDelta/dsigma_alpha_sq = -Z'
    diag(tau^2) Z and dDelta/dsigma_e_sq = -Z' diag(tau^2/m) Z -
    W/sigma_e_sq^2 (W holds S_w_x in the within corner); its root is the
    REML estimator, and its variance entries at the profiled coefficients
    are the gradient of the restricted objective.  With tau_i = w_i /
    sigma_e_sq and w_i^2 / m_i = w_i - gamma w_i^2, the two traces are -T /
    sigma_e_sq and -(q - gamma T) / sigma_e_sq, where T = tr{M^-1 Z'
    diag(w^2) Z} is the REML term of the profiled slope.

    Args:
        stats: sufficient statistics, one per row, with shared cluster sizes.
        omegas: (rows, dim) interior parameter vectors in the canonical order.
        reml: per row, whether it is a REML row.

    Returns:
        (criterion, psi) of shapes (rows,) and (rows, dim).
    """
    omegas = np.asarray(omegas, dtype=float)
    value, psi = likelihood_batch(stats, omegas)
    _, _, _, ia, _, ie = parameter_layout(stats[0].p_b, stats[0].p_w)
    sa, se = omegas[:, ia], omegas[:, ie]
    at = np.flatnonzero(reml)
    if at.size:   # solved at their theta: log det Delta, the trace
        p = _solve(_rows([stats[i] for i in at], [True] * at.size),
                   (sa[at] / se[at])[:, None])
        L, trace, q = p.L[:, 0], p.trace[:, 0], p.L.shape[-1]
        value[at] -= np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1) \
            - 0.5 * q * np.log(se[at])
        psi[at, ia] += 0.5 * trace / se[at]
        psi[at, ie] += 0.5 * (q - sa[at] / se[at] * trace) / se[at]
    return value, psi


def _finish(stats: list, found: list, reml: list) -> list[FitResult]:
    """The FitResult of every row, from its statistics, its (omega,
    boundary flag, evaluations) and its method."""
    omegas = np.stack([omega.flatten() for omega, _, _ in found])
    value, psi = objective_batch(stats, omegas, reml)
    norms = [math.hypot(*row) for row in psi.tolist()]   # no overflow in the squares
    return [FitResult(omega_hat=omega, method="reml" if is_reml else "ml",
                      converged=bool(sn < 1e-8 * (1.0 + abs(val))),
                      iterations=evals, score_norm=sn, boundary_flag=boundary,
                      loglik_at_opt=val, g=st.g, n=st.n)
            for (omega, boundary, evals), st, val, sn, is_reml
            in zip(found, stats, value.tolist(), norms, reml)]


def fit_batch(datasets: Sequence[ClusteredDataset],
              methods: Sequence[str] = ("ml", "reml")) -> list[list]:
    """Fit every dataset of one cluster layout by every method, all rows
    searched together.

    A fit comes out bit for bit as :func:`fit_ml` or :func:`fit_reml` gives
    it alone, whatever else is in the batch, and a failure fails only the
    fits of its own dataset.

    Args:
        datasets: clustered datasets of one cluster layout.
        methods: "ml" and "reml", in the order wanted.

    Returns:
        One list per dataset holding, per method, its FitResult or the
        NermError that fit raises.

    Raises:
        InvalidConfig: a method other than "ml" and "reml".
        RaggedCovariates: the datasets differ in their cluster layout.
    """
    if not set(methods) <= {"ml", "reml"}:
        raise InvalidConfig(f"methods must be 'ml' or 'reml', got {list(methods)}")
    _one_layout(datasets)   # RaggedCovariates before g and n are read
    g, n = (datasets[0].g, datasets[0].n) if len(datasets) else (0, 0)
    if g < 2 or n <= g:   # no datasets give []
        error = EmptyDataset(f"need at least 2 clusters, got {g}") if g < 2 else \
            DegenerateWithinDesign("every cluster is a singleton (n == g); the "
                                   "residual variance is not identified")
        return [[error] * len(methods) for _ in datasets]

    def stack(pairs):
        datasets, stats = zip(*pairs)
        prepared = _prepare(stats)
        cells = [(j, m == "reml") for j, p in enumerate(prepared)
                 if not isinstance(p, NermError) for m in methods]
        search = [(stats[j], reml) for j, reml in cells if not prepared[j][1]]
        found = zip(*_maximize(_rows(*zip(*search)))) if search else iter(())
        fits = []
        for j, reml in cells:
            try:
                beta2, collapsed = prepared[j]
                if collapsed:
                    fits.append((_collapsed(datasets[j], beta2, reml), True, 0))
                else:
                    gamma, beta, se, boundary, evals = next(found)
                    fits.append((_omega_at(stats[j], beta, (gamma * se, se)),
                                 bool(boundary), int(evals)))
            except NermError as exc:
                fits.append(exc)
        done = [c for c, f in enumerate(fits) if not isinstance(f, NermError)]
        for c, fit in zip(done, _finish([stats[cells[c][0]] for c in done],
                                        [fits[c] for c in done],
                                        [cells[c][1] for c in done]) if done else []):
            fits[c] = fit
        fits = iter(fits)   # each dataset's fits, in the order of ``methods``
        return [[p] * len(methods) if isinstance(p, NermError)
                else [next(fits) for _ in methods] for p in prepared]
    # an M(gamma) that fails to factor by rounding fails its dataset only
    fits = _rowwise(stack, list(zip(datasets, sufficient_stats_batch(datasets))),
                    SingularDelta)
    return [[f] * len(methods) if isinstance(f, NermError) else f for f in fits]


def _fit_one(ds: ClusteredDataset, method: str) -> FitResult:
    (fit,), = fit_batch([ds], (method,))
    if isinstance(fit, NermError):
        raise fit
    return fit


def fit_ml(ds: ClusteredDataset) -> FitResult:
    """Maximum likelihood fit.

    Args:
        ds: clustered dataset.

    Returns:
        FitResult with the ML parameter estimates; a vanished variance
        comes back flagged, never as an error.

    Raises:
        EmptyDataset: fewer than two clusters.
        SingularDelta: collinear intercept/covariate design.
        DegenerateWithinDesign: within design carries no information
            (every cluster a singleton, or S_w_x rank deficient).
    """
    return _fit_one(ds, "ml")


def fit_reml(ds: ClusteredDataset) -> FitResult:
    """REML fit; same contract as :func:`fit_ml` with the adjusted objective."""
    return _fit_one(ds, "reml")
