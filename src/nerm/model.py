"""Core data model for clustered (nested error) regression.

The model for response j in cluster i is

    y_ij = beta0 + x_b_i' beta1 + x_w_ij' beta2 + alpha_i + e_ij,

with cluster effects alpha_i iid (0, sigma_alpha_sq) and residuals e_ij iid
(0, sigma_e_sq); no normality is assumed anywhere.  Cluster i contributes
m_i observations, n = sum m_i over the g clusters.  Between-cluster
covariates x_b_i are constant inside a cluster; within-cluster covariates
x_w_ij vary inside it.

Everything downstream (likelihood, estimation, asymptotics) consumes the
per-cluster sufficient statistics computed here, once per dataset: cluster
means of y and of the within covariates, the between design z_i = (1,
x_b_i, xbar_w_i), its reduction per distinct cluster size, and the pooled
within-cluster cross products S_w_y, S_w_xy, S_w_x.  A dataset is stored
once, as flat arrays with cluster offsets, and every per-cluster reduction
here is a whole-array numpy operation over them.  The precision weight of
a cluster mean is

    tau_i = m_i / (sigma_e_sq + m_i * sigma_alpha_sq),

the reciprocal of Var(alpha_i + mean of e_ij).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyDataset,
    NonFiniteValue,
    NonPositiveVariance,
    NoWithinCovariates,
    RaggedCovariates,
)

__all__ = [
    "ParameterVector",
    "parameter_layout",
    "assemble",
    "ClusteredDataset",
    "SufficientStats",
    "center_within_covariates",
    "sufficient_stats",
    "tau",
    "parameter_names",
]


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Full parameter vector in the canonical order
    (beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq).

    Both variances must be strictly positive (interior point); boundary
    values are represented by small positive numbers plus a flag on the
    fit result, never by zeros here.
    """

    beta0: float
    beta1: np.ndarray        # (p_b,)
    sigma_alpha_sq: float
    beta2: np.ndarray        # (p_w,)
    sigma_e_sq: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta0", float(self.beta0))
        object.__setattr__(self, "beta1", _readonly(np.atleast_1d(self.beta1)))
        object.__setattr__(self, "beta2", _readonly(np.atleast_1d(self.beta2)))
        object.__setattr__(self, "sigma_alpha_sq", float(self.sigma_alpha_sq))
        object.__setattr__(self, "sigma_e_sq", float(self.sigma_e_sq))
        if self.beta1.ndim != 1 or self.beta2.ndim != 1:
            raise RaggedCovariates("beta1 and beta2 must be one-dimensional")
        for s, name in ((self.sigma_alpha_sq, "sigma_alpha_sq"),
                        (self.sigma_e_sq, "sigma_e_sq")):
            if not np.isfinite(s) or s <= 0.0:
                raise NonPositiveVariance(f"{name} must be finite and > 0, got {s!r}")
        if not (np.isfinite(self.beta0)
                and np.all(np.isfinite(self.beta1))
                and np.all(np.isfinite(self.beta2))):
            raise NonFiniteValue("regression coefficients must be finite")
        object.__setattr__(self, "_flat", _readonly(assemble(  # built once
            self.p_b, self.p_w, self.beta0, self.beta1, self.sigma_alpha_sq,
            self.beta2, self.sigma_e_sq)))

    @property
    def p_b(self) -> int:
        return self.beta1.size

    @property
    def p_w(self) -> int:
        return self.beta2.size

    @property
    def theta(self) -> tuple[float, float]:
        """Variance components (sigma_alpha_sq, sigma_e_sq)."""
        return (self.sigma_alpha_sq, self.sigma_e_sq)

    @property
    def beta(self) -> np.ndarray:
        """Regression coefficients ordered (beta0, beta1, beta2)."""
        return np.concatenate(([self.beta0], self.beta1, self.beta2))

    def flatten(self) -> np.ndarray:
        """Canonical flat layout, see :func:`parameter_layout`; read-only."""
        return self._flat

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return (self.p_b, self.p_w) == (other.p_b, other.p_w) \
            and bool(np.all(self.flatten() == other.flatten()))


def parameter_layout(p_b: int, p_w: int):
    """Positions in the canonical flat layout (beta0, beta1, sigma_alpha_sq,
    beta2, sigma_e_sq): returns (dim, i0, i1, ia, i2, ie), where i1 and i2
    are slices and the others integers."""
    dim = p_b + p_w + 3
    return dim, 0, slice(1, 1 + p_b), 1 + p_b, slice(2 + p_b, 2 + p_b + p_w), dim - 1


def assemble(p_b: int, p_w: int, beta0, beta1, sigma_alpha_sq, beta2,
             sigma_e_sq, dtype=float) -> np.ndarray:
    """Flat array with the five parameter blocks at their positions in
    :func:`parameter_layout`; a scalar given for beta1 or beta2 fills the
    whole block."""
    dim, i0, i1, ia, i2, ie = parameter_layout(p_b, p_w)
    out = np.empty(dim, dtype=dtype)
    out[i0], out[i1], out[ia], out[i2], out[ie] = \
        beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq
    return out


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClusteredDataset:
    """Immutable clustered dataset stored as flat read-only arrays.

    Rows are grouped by cluster: cluster k holds rows
    ``offsets[k]:offsets[k+1]`` of ``y`` and ``x_w``, row k of ``x_b`` and
    label ``ids[k]``.  The covariate dimensions are the column counts of
    ``x_b`` and ``x_w``.  Every dataset is checked once, here, on
    construction.  What a fit further needs (two clusters, n > g) is
    checked by the fit.

    Raises:
        RaggedCovariates: the arrays disagree in shape.
        EmptyDataset: no clusters, or a cluster has no observations.
        NonFiniteValue: NaN or infinity in y or any covariate, naming the
            first cluster that holds one.
    """

    y: np.ndarray          # (n,)
    x_w: np.ndarray        # (n, p_w)
    x_b: np.ndarray        # (g, p_b)
    offsets: np.ndarray    # (g+1,) nondecreasing, from 0 to n
    ids: np.ndarray        # (g,) cluster labels

    def __post_init__(self) -> None:
        y, x_w, x_b = _readonly(self.y), _readonly(self.x_w), _readonly(self.x_b)
        offsets, ids = _readonly(self.offsets, np.intp), _readonly(self.ids, str)
        for name, a in zip(("y", "x_w", "x_b", "offsets", "ids"),
                           (y, x_w, x_b, offsets, ids)):
            object.__setattr__(self, name, a)
        if not (y.ndim == ids.ndim == 1 and x_w.ndim == x_b.ndim == 2
                and x_w.shape[0] == y.size and x_b.shape[0] == ids.size
                and offsets.shape == (ids.size + 1,)
                and offsets[0] == 0 and offsets[-1] == y.size):
            raise RaggedCovariates(
                f"dataset arrays disagree: y {y.shape}, x_w {x_w.shape}, "
                f"x_b {x_b.shape}, offsets {offsets.shape}, ids {ids.shape}"
            )
        if not ids.size:
            raise EmptyDataset("the dataset has no clusters")
        empty = np.flatnonzero(self.cluster_sizes < 1)
        if empty.size:
            raise EmptyDataset(f"cluster {str(ids[empty[0]])!r} has no observations")
        starts = offsets[:-1]
        bad_y = np.logical_or.reduceat(~np.isfinite(y), starts)
        bad_x = np.logical_or.reduceat(~np.all(np.isfinite(x_w), axis=1), starts) \
            | ~np.all(np.isfinite(x_b), axis=1)
        if np.any(bad_y | bad_x):
            k = int(np.argmax(bad_y | bad_x))
            what = "response" if bad_y[k] else "covariate"
            raise NonFiniteValue(f"cluster {str(ids[k])!r}: non-finite {what}")

    @property
    def p_b(self) -> int:
        return self.x_b.shape[1]

    @property
    def p_w(self) -> int:
        return self.x_w.shape[1]

    @property
    def g(self) -> int:
        return self.ids.size

    @property
    def n(self) -> int:
        return self.y.size

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        out = np.diff(self.offsets)
        out.setflags(write=False)
        return out


def center_within_covariates(
    ds: ClusteredDataset, add_contextual: bool = False
) -> ClusteredDataset:
    """Center within covariates around their cluster means.

    Optionally appends the removed cluster means to the between covariates
    (the "contextual" parameterization), so no information is lost.

    Args:
        ds: dataset with p_w >= 1.
        add_contextual: append each cluster's pre-centering mean of the
            within covariates to its between covariates.

    Returns:
        A new dataset; the input is untouched.
    """
    if ds.p_w == 0:
        raise NoWithinCovariates("dataset has no within-cluster covariates")
    mean_w = np.add.reduceat(ds.x_w, ds.offsets[:-1], axis=0) / ds.cluster_sizes[:, None]
    x_b = np.hstack([ds.x_b, mean_w]) if add_contextual else ds.x_b
    return ClusteredDataset(
        y=ds.y, x_w=ds.x_w - np.repeat(mean_w, ds.cluster_sizes, axis=0),
        x_b=x_b, offsets=ds.offsets, ids=ds.ids,
    )


# ---------------------------------------------------------------------------
# sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficientStats:
    """Per-cluster means, the between design and the pooled within-cluster
    cross products.

    These are all the likelihood ever touches:

        Z      = rows z_i = (1, x_b_i, xbar_w_i)
        S_w_y  = sum_ij (y_ij - ybar_i)^2
        S_w_xy = sum_ij (x_w_ij - xbar_w_i) (y_ij - ybar_i)
        S_w_x  = sum_ij (x_w_ij - xbar_w_i) (x_w_ij - xbar_w_i)'

    A cluster's weight in the profiled likelihood depends on its size
    alone, so the between rows are also reduced once per distinct size.
    For the rows A_k = [Z_k | ybar_k] of the ``counts[k]`` clusters of size
    ``sizes[k]``, ``G[k]`` is their cross product A_k' A_k, summed as is so
    that an exactly collinear design stays exactly singular, and ``R[k]``
    its triangular QR factor, padded with zero rows when there are fewer
    clusters than columns: ||R[k] (-beta; 1)||^2 is their residual sum of
    squares, without the cancellation of expanding A_k' A_k.

    ``collinear`` says whether the profiled normal equations of the fits
    are singular.  Their matrix M(gamma) = sum_k w_k Z_k' Z_k + W (W holds
    S_w_x in the within corner, w_k = m_k / (1 + m_k gamma)) has the same
    null space at every gamma >= 0, so whether it factors is decided once,
    at gamma = 0, and the answer holds at every gamma.
    """

    m: np.ndarray          # (g,) cluster sizes
    ybar: np.ndarray       # (g,) response cluster means
    xbar_w: np.ndarray     # (g, p_w) within-covariate cluster means
    Z: np.ndarray          # (g, 1 + p_b + p_w) between design
    S_w_y: float
    S_w_xy: np.ndarray     # (p_w,)
    S_w_x: np.ndarray      # (p_w, p_w)
    sizes: np.ndarray      # (K,) distinct cluster sizes, increasing
    counts: np.ndarray     # (K,) clusters of each size
    G: np.ndarray          # (K, q + 1, q + 1), q = 1 + p_b + p_w
    R: np.ndarray          # (K, q + 1, q + 1)
    n: int
    g: int
    collinear: bool        # the profiled normal equations are singular

    def __post_init__(self) -> None:
        for name in ("m", "ybar", "xbar_w", "Z", "S_w_xy", "S_w_x",
                     "sizes", "counts", "G", "R"):
            integral = name in ("m", "sizes", "counts")
            object.__setattr__(self, name, _readonly(getattr(self, name),
                                                     int if integral else float))
        object.__setattr__(self, "S_w_y", float(self.S_w_y))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "g", int(self.g))
        object.__setattr__(self, "collinear", bool(self.collinear))

    @property
    def p_b(self) -> int:
        return self.Z.shape[1] - 1 - self.p_w

    @property
    def p_w(self) -> int:
        return self.xbar_w.shape[1]


def sufficient_stats(ds: ClusteredDataset) -> SufficientStats:
    """Reduce a dataset to the statistics the likelihood depends on.

    Computed once per dataset, on first use, and cached on it: every call
    on the same dataset returns the same object.  Uses a two-pass scheme
    (means first, then deviations) for numerical stability; each cluster
    contributes independently, so the pooled cross products do not depend
    on cluster ordering.
    """
    return sufficient_stats_batch([ds])[0]


def sufficient_stats_batch(datasets) -> list[SufficientStats]:
    """:func:`sufficient_stats` of datasets of one cluster layout, reduced
    in one stacked pass; each dataset caches its own statistics, in its
    ``_stats`` slot, as if computed alone.  RaggedCovariates when the
    layouts differ."""
    _one_layout(datasets)
    todo = [ds for ds in datasets if "_stats" not in ds.__dict__]
    for ds, st in zip(todo, _stack_stats(todo) if todo else []):
        ds.__dict__["_stats"] = st
    return [ds.__dict__["_stats"] for ds in datasets]


def _one_layout(datasets) -> None:
    """The rule of every stacked call on datasets: they share one cluster
    layout (offsets, p_b and p_w), or RaggedCovariates."""
    if any((ds.p_b, ds.p_w) != (datasets[0].p_b, datasets[0].p_w)
           or not np.array_equal(ds.offsets, datasets[0].offsets) for ds in datasets):
        raise RaggedCovariates("a stack takes datasets of one cluster layout "
                               "(offsets, p_b and p_w)")


def _stack_stats(datasets) -> list[SufficientStats]:
    """The statistics of datasets that share their cluster layout, from
    arrays with one leading row per dataset.  Every operation acts on each
    row alone (elementwise, reductions along a row, stacked BLAS and LAPACK
    calls), so a dataset's statistics do not depend on the others."""
    first = datasets[0]
    m, starts, g = first.cluster_sizes, first.offsets[:-1], first.g
    nrow = len(datasets)
    dy = np.stack([ds.y for ds in datasets])                      # (B, n)
    dx = np.stack([ds.x_w for ds in datasets])                    # (B, n, p_w)
    ybar = np.add.reduceat(dy, starts, axis=1) / m
    xbar_w = np.add.reduceat(dx, starts, axis=1) / m[:, None]
    dy -= np.repeat(ybar, m, axis=1)       # the within deviations, in place
    dx -= np.repeat(xbar_w, m, axis=1)
    Z = np.concatenate([np.ones((nrow, g, 1)),
                        np.stack([ds.x_b for ds in datasets]), xbar_w], axis=2)
    sizes, counts = np.unique(m, return_counts=True)
    rows = np.concatenate((Z, ybar[..., None]), axis=2)[:, np.argsort(m, kind="stable")]
    q = Z.shape[2]
    G = np.empty((nrow, sizes.size, q + 1, q + 1))
    R = np.zeros_like(G)
    for k, block in enumerate(np.split(rows, np.cumsum(counts)[:-1], axis=1)):
        G[:, k] = np.swapaxes(block, 1, 2) @ block
        r = np.linalg.qr(block, mode="r")
        R[:, k, :r.shape[1]] = r   # fewer clusters than columns: zero rows
    S_w_x = np.swapaxes(dx, 1, 2) @ dx
    S_w_xy = np.vecmat(dy, dx)
    S_w_y = np.vecdot(dy, dy)
    # M(0) = sum_k m_k Z_k' Z_k + W: see ``SufficientStats.collinear``
    k = q - S_w_x.shape[2]
    M = (sizes @ G.reshape(nrow, sizes.size, -1)).reshape(nrow, q + 1, q + 1)[:, :q, :q]
    M[:, k:, k:] += S_w_x
    collinear = [isinstance(L, np.linalg.LinAlgError)
                 for L in _rowwise(np.linalg.cholesky, M, np.linalg.LinAlgError)]
    return [SufficientStats(
        m=m, ybar=ybar[i], xbar_w=xbar_w[i], Z=Z[i], S_w_y=S_w_y[i],
        S_w_xy=S_w_xy[i], S_w_x=S_w_x[i], sizes=sizes, counts=counts, G=G[i],
        R=R[i], n=first.n, g=g, collinear=collinear[i]) for i in range(nrow)]


def _rowwise(fn, rows, error) -> list:
    """``fn`` of the stack ``rows``, which gives one result per row.  When
    that raises ``error``, ``fn`` of each row alone, and a row that raises
    it gets the exception in place of its result: a failure fails only its
    own row.  No rows give []."""
    try:
        return list(fn(rows)) if len(rows) else []
    except error as exc:
        if len(rows) == 1:
            return [exc]
        return [out for i in range(len(rows))
                for out in _rowwise(fn, rows[i:i + 1], error)]


def tau(theta: tuple[float, float], m_i) -> np.ndarray | float:
    """Precision of a cluster mean: m / (sigma_e_sq + m * sigma_alpha_sq).

    Args:
        theta: (sigma_alpha_sq, sigma_e_sq), both > 0.
        m_i: cluster size, scalar or array.

    Returns:
        Scalar for scalar input, array for array input.  Strictly increasing
        in m with supremum 1/sigma_alpha_sq.
    """
    sigma_alpha_sq, sigma_e_sq = float(theta[0]), float(theta[1])
    if not (np.isfinite(sigma_alpha_sq) and sigma_alpha_sq > 0.0):
        raise NonPositiveVariance(f"sigma_alpha_sq must be > 0, got {sigma_alpha_sq!r}")
    if not (np.isfinite(sigma_e_sq) and sigma_e_sq > 0.0):
        raise NonPositiveVariance(f"sigma_e_sq must be > 0, got {sigma_e_sq!r}")
    m_arr = np.asarray(m_i, dtype=float)
    out = m_arr / (sigma_e_sq + m_arr * sigma_alpha_sq)
    return float(out) if np.isscalar(m_i) or out.ndim == 0 else out


def parameter_names(p_b: int, p_w: int) -> list[str]:
    """Names in the canonical order, see :func:`parameter_layout`."""
    return assemble(p_b, p_w, "beta0", [f"beta1[{k}]" for k in range(p_b)],
                    "sigma_alpha_sq", [f"beta2[{r}]" for r in range(p_w)],
                    "sigma_e_sq", dtype=object).tolist()
