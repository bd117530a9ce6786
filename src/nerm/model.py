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
x_b_i, xbar_w_i) and the pooled within-cluster cross products S_w_y,
S_w_xy, S_w_x.  A dataset is stored once, as flat arrays with cluster
offsets, and every per-cluster reduction here is a whole-array numpy
operation over them.  The precision weight of a cluster mean is

    tau_i = m_i / (sigma_e_sq + m_i * sigma_alpha_sq),

the reciprocal of Var(alpha_i + mean of e_ij).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateWithinDesign,
    EmptyDataset,
    NonFiniteValue,
    NonPositiveVariance,
    NoWithinCovariates,
    RaggedCovariates,
)

__all__ = [
    "ParameterVector",
    "Cluster",
    "ClusteredDataset",
    "SufficientStats",
    "validate_dataset",
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
        """Canonical flat layout (beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq)."""
        return np.concatenate(
            ([self.beta0], self.beta1, [self.sigma_alpha_sq],
             self.beta2, [self.sigma_e_sq])
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, p_b: int, p_w: int) -> "ParameterVector":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (p_b + p_w + 3,):
            raise RaggedCovariates(
                f"flat parameter vector has length {flat.size}, expected {p_b + p_w + 3}"
            )
        return cls(
            beta0=flat[0],
            beta1=flat[1:1 + p_b],
            sigma_alpha_sq=flat[1 + p_b],
            beta2=flat[2 + p_b:2 + p_b + p_w],
            sigma_e_sq=flat[-1],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return (self.p_b, self.p_w) == (other.p_b, other.p_w) \
            and bool(np.all(self.flatten() == other.flatten()))


# ---------------------------------------------------------------------------
# data containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cluster:
    """One cluster: responses plus its covariates.

    ``x_b`` is the cluster-level covariate vector (length p_b) and ``x_w``
    the (m_i, p_w) matrix of within-cluster covariates aligned with ``y``.
    Packed by :meth:`ClusteredDataset.from_clusters`.
    """

    id: str
    y: np.ndarray
    x_b: np.ndarray
    x_w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "y", _readonly(np.atleast_1d(self.y)))
        object.__setattr__(self, "x_b", _readonly(np.atleast_1d(self.x_b)))
        xw = _readonly(self.x_w)
        if xw.ndim == 1:  # allow (m,) shorthand for p_w == 1
            xw = xw[:, None]
        object.__setattr__(self, "x_w", xw)

    @property
    def m(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class ClusteredDataset:
    """Immutable clustered dataset stored as flat read-only arrays.

    Rows are grouped by cluster: cluster k holds rows
    ``offsets[k]:offsets[k+1]`` of ``y`` and ``x_w``, row k of ``x_b`` and
    label ``ids[k]``.  The covariate dimensions are the column counts of
    ``x_b`` and ``x_w``; arrays that disagree in shape raise RaggedCovariates.
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

    @classmethod
    def from_clusters(cls, clusters: Sequence[Cluster], p_b: int,
                      p_w: int) -> "ClusteredDataset":
        """Pack per-cluster records into the flat arrays; raises
        RaggedCovariates when a cluster's covariates disagree with p_b/p_w."""
        for c in clusters:
            if c.x_b.shape != (p_b,) or c.x_w.shape != (c.m, p_w):
                raise RaggedCovariates(
                    f"cluster {c.id!r}: x_b has shape {c.x_b.shape} and x_w "
                    f"{c.x_w.shape}, expected ({p_b},) and ({c.m}, {p_w})"
                )
        return cls(
            y=np.concatenate([c.y for c in clusters] + [np.empty(0)]),
            x_w=np.concatenate([c.x_w for c in clusters] + [np.empty((0, p_w))]),
            x_b=np.array([c.x_b for c in clusters]).reshape(len(clusters), p_b),
            offsets=np.concatenate(([0], np.cumsum([c.m for c in clusters]))),
            ids=[c.id for c in clusters],
        )

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

    @cached_property
    def _stats(self) -> SufficientStats:
        """See :func:`sufficient_stats`."""
        m = self.cluster_sizes
        ybar = _cluster_means(self, self.y)
        xbar_w = _cluster_means(self, self.x_w)
        dy = self.y - np.repeat(ybar, m)
        dx = self.x_w - np.repeat(xbar_w, m, axis=0)
        return SufficientStats(
            m=m, ybar=ybar, xbar_w=xbar_w,
            Z=np.hstack([np.ones((self.g, 1)), self.x_b, xbar_w]),
            S_w_y=float(dy @ dy), S_w_xy=dx.T @ dy, S_w_x=dx.T @ dx,
            n=self.n, g=self.g,
        )

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        """Per-cluster copies, built on demand for inspection, tests and the
        dense cross checks of ``nerm verify``."""
        o = self.offsets
        return tuple(Cluster(self.ids[k], self.y[o[k]:o[k + 1]], self.x_b[k],
                             self.x_w[o[k]:o[k + 1]]) for k in range(self.g))


def _cluster_means(ds: ClusteredDataset, a: np.ndarray) -> np.ndarray:
    """Per-cluster means of the rows of ``a``; needs nonempty clusters."""
    sizes = ds.cluster_sizes
    sums = np.add.reduceat(a, ds.offsets[:-1], axis=0)
    return sums / (sizes if a.ndim == 1 else sizes[:, None])


def validate_dataset(ds: ClusteredDataset) -> ClusteredDataset:
    """Check every structural invariant and return the dataset unchanged.

    Args:
        ds: dataset to check.

    Returns:
        The same object, once all invariants hold.

    Raises:
        EmptyDataset: fewer than two clusters, or an empty cluster.
        NonFiniteValue: NaN or infinity in y or any covariate.
        DegenerateWithinDesign: no cluster has two observations, so the
            within-cluster variance carries no information (n == g).
    """
    if ds.g < 2:
        raise EmptyDataset(f"need at least 2 clusters, got {ds.g}")
    empty = np.flatnonzero(ds.cluster_sizes < 1)
    if empty.size:
        raise EmptyDataset(f"cluster {str(ds.ids[empty[0]])!r} has no observations")
    starts = ds.offsets[:-1]
    bad_y = np.logical_or.reduceat(~np.isfinite(ds.y), starts)
    bad_x = np.logical_or.reduceat(~np.all(np.isfinite(ds.x_w), axis=1), starts) \
        | ~np.all(np.isfinite(ds.x_b), axis=1)
    if np.any(bad_y | bad_x):
        k = int(np.argmax(bad_y | bad_x))
        what = "response" if bad_y[k] else "covariate"
        raise NonFiniteValue(f"cluster {str(ds.ids[k])!r}: non-finite {what}")
    if ds.n <= ds.g:
        raise DegenerateWithinDesign(
            "every cluster is a singleton (n == g); the residual variance "
            "is not identified"
        )
    return ds


def center_within_covariates(
    ds: ClusteredDataset, add_contextual: bool = False
) -> ClusteredDataset:
    """Center within covariates around their cluster means.

    Optionally appends the removed cluster means to the between covariates
    (the "contextual" parameterization), so no information is lost.

    Args:
        ds: validated dataset with p_w >= 1.
        add_contextual: append each cluster's pre-centering mean of the
            within covariates to its between covariates.

    Returns:
        A new dataset; the input is untouched.
    """
    if ds.p_w == 0:
        raise NoWithinCovariates("dataset has no within-cluster covariates")
    mean_w = _cluster_means(ds, ds.x_w)
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
    """

    m: np.ndarray          # (g,) cluster sizes
    ybar: np.ndarray       # (g,) response cluster means
    xbar_w: np.ndarray     # (g, p_w) within-covariate cluster means
    Z: np.ndarray          # (g, 1 + p_b + p_w) between design
    S_w_y: float
    S_w_xy: np.ndarray     # (p_w,)
    S_w_x: np.ndarray      # (p_w, p_w)
    n: int
    g: int

    def __post_init__(self) -> None:
        for name in ("m", "ybar", "xbar_w", "Z", "S_w_xy", "S_w_x"):
            object.__setattr__(self, name, _readonly(getattr(self, name),
                                                     int if name == "m" else float))
        object.__setattr__(self, "S_w_y", float(self.S_w_y))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "g", int(self.g))

    @property
    def p_b(self) -> int:
        return self.Z.shape[1] - 1 - self.xbar_w.shape[1]


def sufficient_stats(ds: ClusteredDataset) -> SufficientStats:
    """Reduce a dataset to the statistics the likelihood depends on.

    Computed once per dataset, on first use, and cached on it: every call
    on the same dataset returns the same object.  Uses a two-pass scheme
    (means first, then deviations) for numerical stability; each cluster
    contributes independently, so the pooled cross products do not depend
    on cluster ordering.  Needs nonempty clusters (see
    :func:`validate_dataset`).
    """
    return ds._stats


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
    """Names in the canonical order (beta0, beta1, sigma_alpha_sq, beta2, sigma_e_sq)."""
    return (["beta0"] + [f"beta1[{k}]" for k in range(p_b)] + ["sigma_alpha_sq"]
            + [f"beta2[{r}]" for r in range(p_w)] + ["sigma_e_sq"])
