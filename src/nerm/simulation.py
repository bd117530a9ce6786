"""Monte Carlo verification of the asymptotic claims at desk scale.

The engine simulates clustered data from the nested error model with
user-chosen (non-normal, if desired) effect distributions, fits ML and
REML to every replicate and keeps the run as arrays, one row per
replicate.  From them it reads exactly the quantities the theory speaks
about: the empirical covariance of K^(1/2)(omega_hat - omega_true), the
coverage of the moment-based intervals, the size of the normalized ML/REML
gap, and diagnostics for the cluster-mean error moments

    E ebar = 0,                 E ebar^2 = sigma_e_sq / m,
    E ebar^3 = E e^3 / m^2,     E ebar^4 = 3 sigma_e_sq^2 / m^2
                                           + (E e^4 - 3 sigma_e_sq^2) / m^3.

A covariate model is any object with ``p_b``, ``p_w`` and ``draw(rng,
sizes)``, which returns the between (g, p_b) and within (n, p_w) rows.

Reproducibility contract: replicate k draws from the stream seeded by
(seed, 0, k), so results do not depend on how replicates are scheduled.
The replicates are analysed in chunks: a chunk's statistics, ML and REML
fits (``fit_batch``) and ML intervals (``intervals``) are each computed
for the whole chunk at once, and no replicate's numbers depend on the
others; an optional process pool merely spreads the chunks, never the
streams.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .asymptotics import _two_sided_z, intervals, normalization
from .errors import (
    AllReplicatesFailed,
    InvalidConfig,
    InvalidDistribution,
    NermError,
    RaggedCovariates,
)
from .estimation import fit_batch
from .model import (
    ClusteredDataset,
    ParameterVector,
    parameter_names,
)

__all__ = [
    "NormalDist",
    "ScaledT",
    "CenteredGamma",
    "CenteredLogNormal",
    "Degenerate",
    "parse_distribution",
    "RandomCovariates",
    "SimConfig",
    "MonteCarloSummary",
    "generate_dataset",
    "run_replications",
]


# ---------------------------------------------------------------------------
# effect distributions (all centered, scaled to a requested variance)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalDist:
    """Normal effects."""

    def sample(self, rng, size, variance):
        return rng.normal(scale=math.sqrt(variance), size=size)

    def variance(self, target):
        return float(target)

    def moment3(self, variance):
        return 0.0

    def moment4(self, variance):
        return 3.0 * variance * variance


@dataclass(frozen=True)
class ScaledT:
    """Student t scaled to the requested variance; df > 4 so the fourth
    moment exists."""

    df: float

    def __post_init__(self):
        if not (4.0 < self.df < math.inf):
            raise InvalidDistribution(
                f"scaled-t needs a finite df > 4 for finite fourth moments, "
                f"got {self.df}"
            )
        object.__setattr__(self, "df", float(self.df))

    def sample(self, rng, size, variance):
        scale = math.sqrt(variance * (self.df - 2.0) / self.df)
        return scale * rng.standard_t(self.df, size=size)

    def variance(self, target):
        return float(target)

    def moment3(self, variance):
        return 0.0

    def moment4(self, variance):
        return 3.0 * variance * variance * (self.df - 2.0) / (self.df - 4.0)


@dataclass(frozen=True)
class CenteredGamma:
    """Gamma minus its mean, scaled to the requested variance (skewed)."""

    shape: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf):
            raise InvalidDistribution(
                f"gamma shape must be finite and > 0, got {self.shape}")
        object.__setattr__(self, "shape", float(self.shape))

    def sample(self, rng, size, variance):
        k = self.shape
        s = math.sqrt(variance / k)
        return rng.gamma(k, scale=s, size=size) - k * s

    def variance(self, target):
        return float(target)

    def moment3(self, variance):
        return 2.0 * variance ** 1.5 / math.sqrt(self.shape)

    def moment4(self, variance):
        return 3.0 * variance * variance * (1.0 + 2.0 / self.shape)


@dataclass(frozen=True)
class CenteredLogNormal:
    """Log-normal minus its mean, scaled to the requested variance
    (heavily skewed and heavy tailed for larger sigma_log)."""

    sigma_log: float

    def __post_init__(self):
        object.__setattr__(self, "sigma_log", float(self.sigma_log))
        try:  # the unit-variance law must exist in doubles
            ok = self.sigma_log > 0.0 \
                and math.isfinite(self._mu(1.0) + self.moment4(1.0))
        except (ArithmeticError, ValueError):
            ok = False
        if not ok:
            raise InvalidDistribution(
                f"lognormal sigma must lie in about (1.1e-8, 13.3) for its "
                f"moments to be finite doubles, got {self.sigma_log}"
            )

    def _mu(self, variance):
        w = math.exp(self.sigma_log ** 2)
        return 0.5 * (math.log(variance / (w - 1.0)) - self.sigma_log ** 2)

    def sample(self, rng, size, variance):
        mu = self._mu(variance)
        mean = math.exp(mu + 0.5 * self.sigma_log ** 2)
        return rng.lognormal(mean=mu, sigma=self.sigma_log, size=size) - mean

    def variance(self, target):
        return float(target)

    def moment3(self, variance):
        w = math.exp(self.sigma_log ** 2)
        return (w + 2.0) * math.sqrt(w - 1.0) * variance ** 1.5

    def moment4(self, variance):
        w = math.exp(self.sigma_log ** 2)
        return (w**4 + 2.0 * w**3 + 3.0 * w**2 - 3.0) * variance * variance


@dataclass(frozen=True)
class Degenerate:
    """All draws exactly zero; a hook for deterministic pipeline tests."""

    def sample(self, rng, size, variance):
        return np.zeros(size)

    def variance(self, target):
        return 0.0

    def moment3(self, variance):
        return 0.0

    def moment4(self, variance):
        return 0.0


def parse_distribution(text: str):
    """Parse a distribution tag: ``normal``, ``t(df)``, ``gamma(shape)``,
    ``lognormal(sigma)`` or ``zero``."""
    s = str(text).strip().lower()
    if s == "normal":
        return NormalDist()
    if s == "zero":
        return Degenerate()
    for tag, cls in (("t", ScaledT), ("gamma", CenteredGamma),
                     ("lognormal", CenteredLogNormal)):
        if s.startswith(tag + "(") and s.endswith(")"):
            try:
                value = float(s[len(tag) + 1:-1])
            except ValueError as exc:
                raise InvalidDistribution(f"bad distribution tag {text!r}") from exc
            return cls(value)
    raise InvalidDistribution(f"unknown distribution tag {text!r}")


# ---------------------------------------------------------------------------
# covariate models
# ---------------------------------------------------------------------------

def _psd_factor(mat: np.ndarray, what: str) -> np.ndarray:
    if mat.size == 0:
        return mat
    if not np.allclose(mat, mat.T):
        raise InvalidConfig(f"{what} must be symmetric")
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < -1e-10 * max(abs(vals[-1]), 1.0):
        raise InvalidConfig(f"{what} must be positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class RandomCovariates:
    """Between covariates iid normal (mu_b, Sigma_b); within covariates
    mu_w + u_i + v_ij with a common cluster component u_i ~ (0, Upsilon_w)
    and idiosyncratic v_ij ~ (0, Sigma_w), mirroring the response's own
    two-level structure.
    """

    mu_b: np.ndarray
    Sigma_b: np.ndarray
    mu_w: np.ndarray
    Upsilon_w: np.ndarray
    Sigma_w: np.ndarray

    def __post_init__(self):
        for name in ("mu_b", "mu_w"):
            mean = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, mean)
        for name, factor in (("Sigma_b", "_Lb"), ("Upsilon_w", "_Lu"),
                             ("Sigma_w", "_Lv")):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, mat)
            object.__setattr__(self, factor, _psd_factor(mat, name))
        if self.Sigma_b.shape != (self.p_b, self.p_b):
            raise InvalidConfig("Sigma_b shape does not match mu_b")
        if self.Upsilon_w.shape != (self.p_w, self.p_w) \
                or self.Sigma_w.shape != (self.p_w, self.p_w):
            raise InvalidConfig("within covariance shapes do not match mu_w")

    @property
    def p_b(self):
        return self.mu_b.size

    @property
    def p_w(self):
        return self.mu_w.size

    def draw(self, rng, sizes):
        g = len(sizes)
        x_b = self.mu_b + rng.standard_normal((g, self.p_b)) @ self._Lb.T
        u = rng.standard_normal((g, self.p_w)) @ self._Lu.T
        n = int(np.sum(sizes))
        v = rng.standard_normal((n, self.p_w)) @ self._Lv.T
        return x_b, self.mu_w + np.repeat(u, sizes, axis=0) + v


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo study: design, truth, distributions, seed, size."""

    g: int
    cluster_sizes: Union[int, Sequence[int]]
    true_omega: ParameterVector
    alpha_dist: object = field(default_factory=NormalDist)
    e_dist: object = field(default_factory=NormalDist)
    covariate_model: object = None
    seed: int = 0
    replications: int = 1
    gamma: float = 0.05

    def __post_init__(self):
        if self.g < 2:
            raise InvalidConfig(f"need at least 2 clusters, got g={self.g}")
        if self.replications < 1:
            raise InvalidConfig(
                f"replications must be >= 1, got {self.replications}"
            )
        _two_sided_z(self.gamma)   # InvalidConfig before any draw
        sizes = np.array(self.cluster_sizes, dtype=int, ndmin=1)
        if np.isscalar(self.cluster_sizes):
            sizes = np.repeat(sizes, self.g)
        if sizes.size != self.g:
            raise InvalidConfig(
                f"cluster_sizes has length {sizes.size}, expected g={self.g}"
            )
        sizes.setflags(write=False)
        object.__setattr__(self, "_sizes", sizes)
        if np.any(sizes < 1):
            raise InvalidConfig("cluster sizes must all be >= 1")
        if int(sizes.sum()) <= self.g:
            raise InvalidConfig("no within-cluster replication (n <= g)")
        p_b, p_w = self.true_omega.p_b, self.true_omega.p_w
        cm = self.covariate_model
        if (p_b or p_w) and cm is None:
            raise InvalidConfig("true_omega has covariates but no covariate model")
        if cm is not None and (cm.p_b != p_b or cm.p_w != p_w):
            raise InvalidConfig(
                f"covariate model dims ({cm.p_b}, {cm.p_w}) do not match "
                f"true_omega ({p_b}, {p_w})"
            )
        om = self.true_omega
        for which, law, v in (("effect", self.alpha_dist, om.sigma_alpha_sq),
                              ("error", self.e_dist, om.sigma_e_sq)):
            try:   # a law that overflows here overflows the draws or diagnostics
                ok = all(math.isfinite(f(v)) for f in
                         (law.variance, law.moment3, law.moment4))
            except (ArithmeticError, ValueError):
                ok = False
            if not ok:
                raise InvalidConfig(
                    f"{which} law {law} at variance {v}: its variance, third "
                    f"or fourth moment is not a finite double"
                )

    @property
    def sizes(self) -> np.ndarray:
        """The cluster sizes, settled once: one read-only int per cluster."""
        return self._sizes

    @property
    def n(self) -> int:
        return int(self.sizes.sum())


def _draw(cfg: SimConfig, replicate_index: int):
    """Covariates, cluster effects and errors of one replicate, in the
    order its own stream draws them."""
    rng = np.random.default_rng([int(cfg.seed) & 0xFFFFFFFF, 0, replicate_index])
    om = cfg.true_omega
    if cfg.covariate_model is not None:
        x_b, x_w = cfg.covariate_model.draw(rng, cfg.sizes)
    else:
        x_b, x_w = np.empty((cfg.g, 0)), np.empty((cfg.n, 0))
    alpha = np.asarray(cfg.alpha_dist.sample(rng, cfg.g, om.sigma_alpha_sq),
                       dtype=float)
    e = cfg.e_dist.sample(rng, cfg.n, om.sigma_e_sq)
    return x_b, x_w, alpha, e


def _dataset(cfg: SimConfig, x_b, x_w, alpha, e) -> ClusteredDataset:
    """The replicate's dataset from its draws; raises RaggedCovariates when
    the covariate model drew arrays of the wrong shape."""
    om, sizes = cfg.true_omega, cfg.sizes
    if np.shape(x_b) != (cfg.g, om.p_b) or np.shape(x_w) != (cfg.n, om.p_w):
        raise RaggedCovariates(
            f"covariate model drew x_b {np.shape(x_b)} and x_w {np.shape(x_w)}, "
            f"expected ({cfg.g}, {om.p_b}) and ({cfg.n}, {om.p_w})"
        )
    y = np.repeat(om.beta0 + x_b @ om.beta1, sizes) + x_w @ om.beta2 \
        + np.repeat(alpha, sizes) + e
    ids = np.char.add("c", np.char.zfill(np.arange(cfg.g).astype(str), 4))
    return ClusteredDataset(y=y, x_w=x_w, x_b=x_b, ids=ids,
                            offsets=np.concatenate(([0], np.cumsum(sizes))))


def generate_dataset(cfg: SimConfig, replicate_index: int = 0) -> ClusteredDataset:
    """Simulate one dataset; deterministic in (cfg.seed, replicate_index)."""
    return _dataset(cfg, *_draw(cfg, replicate_index))


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

_CHUNK = 64             # most replicates fitted as one batch: the search's arrays
_CHUNK_VALUES = 2**17   # most y and x_w values (1 MiB) a chunk's datasets hold


def _run_chunk(cfg: SimConfig, start: int, stop: int) -> list:
    """Replicates start, ..., stop - 1, fitted as one batch and their ML
    intervals formed as one batch: per replicate, its row of the summary's
    arrays (error, boundary, omega_ml, omega_reml, normalized_error,
    ci_hits, ml_reml_gap) and its cluster-mean errors, which a failed
    replicate keeps too.  A replicate fails alone, with the first error its
    dataset, fits or intervals raise."""
    sizes, om = cfg.sizes, cfg.true_omega
    true_flat, k_half = om.flatten(), np.sqrt(normalization(cfg.g, cfg.n, om.p_b, om.p_w))
    built, ebars = [], []
    for k in range(start, stop):   # the draws are dropped once used
        draws = _draw(cfg, k)
        ebars.append(np.add.reduceat(draws[3], np.cumsum(sizes) - sizes) / sizes)
        try:   # a dataset that cannot be built fails this replicate only
            built.append(_dataset(cfg, *draws))
        except NermError as exc:
            built.append(exc)
    fits = iter(fit_batch([ds for ds in built if not isinstance(ds, NermError)]))
    done = []   # per replicate: its error, or (dataset, ML fit, REML fit)
    for ds in built:
        fit = (ds, ds) if isinstance(ds, NermError) else next(fits)
        failed = [f for f in fit if isinstance(f, NermError)]
        done.append(failed[0] if failed else (ds, *fit))
    ok = [d for d in done if not isinstance(d, NermError)]
    cis = iter(intervals([ds for ds, _, _ in ok], [ml for _, ml, _ in ok], cfg.gamma))
    out = []
    for ebar, d in zip(ebars, done):
        ci = d if isinstance(d, NermError) else next(cis)
        if isinstance(ci, NermError):
            nan = np.full(true_flat.size, np.nan)
            row = (f"{type(ci).__name__}: {ci}", False, nan, nan, nan,
                   np.zeros(true_flat.size, dtype=bool), math.nan)
        else:
            _, ml, reml = d
            om_ml, om_reml = ml.omega_hat.flatten(), reml.omega_hat.flatten()
            row = ("", bool(ml.boundary_flag or reml.boundary_flag), om_ml,
                   om_reml, k_half * (om_ml - true_flat),
                   np.array([c.contains(t) for c, t in zip(ci, true_flat)]),
                   float(np.linalg.norm(k_half * (om_reml - om_ml))))
        out.append((row, ebar))
    return out


def _diagnose_ebar(ebar_by_size: dict, e_dist, sigma_e_sq: float) -> dict:
    """Compare empirical ebar moments with the analytic identities.

    ``ebar_by_size`` maps a cluster size to its cluster-mean errors, one
    row per replicate.  The power sums up to the eighth are taken over all
    rows at once in units of sqrt(sigma_e_sq), so they stay O(1) whatever
    the scale; ``empirical``, ``expected`` and ``mc_se`` are reported in
    the data's units.
    """
    se = e_dist.variance(sigma_e_sq)
    m3 = e_dist.moment3(sigma_e_sq)
    m4 = e_dist.moment4(sigma_e_sq)
    unit = math.sqrt(sigma_e_sq)
    out = {}
    for m, rows in sorted(ebar_by_size.items()):
        u = rows / unit
        power, sums = np.ones_like(u), []
        for _ in range(8):
            power *= u
            sums.append(float(np.sum(power)))
        count = rows.size
        mf = float(m)
        expected = (0.0, se / mf, m3 / mf**2,
                    3.0 * se * se / mf**2 + (m4 - 3.0 * se * se) / mf**3)
        entry = {}
        for k, key in enumerate(("mean", "second", "third", "fourth"), start=1):
            scale, target = unit ** k, float(expected[k - 1])
            emp = sums[k - 1] / count
            mc_se = math.sqrt(max(sums[2 * k - 1] / count - emp * emp, 0.0) / count)
            z = (emp - target / scale) / mc_se if mc_se > 0 else 0.0
            entry[key] = {"empirical": emp * scale, "expected": target,
                          "mc_se": mc_se * scale, "zscore": z}
        out[int(m)] = entry
    return out


@dataclass(frozen=True)
class MonteCarloSummary:
    """A replication run as arrays, one row per replicate in index order.

    A failed replicate has NaN rows, no hits and a NaN gap.  Every
    aggregate is read off the arrays; coverage, the normalized-error
    covariance and the gap statistics use the ``interior`` replicates only,
    and one with too few of them (none, or one for the covariance and the
    cross-block correlation) is NaN.  ``ebar_moments`` holds the
    cluster-mean error diagnostics keyed by cluster size.
    """

    parameter_names: list
    error: np.ndarray              # (R,) str, "" for a finished replicate
    boundary: np.ndarray           # (R,) bool, a fit on the variance floor
    omega_ml: np.ndarray           # (R, dim) flat ML estimates
    omega_reml: np.ndarray         # (R, dim) flat REML estimates
    normalized_error: np.ndarray   # (R, dim) K^(1/2)(omega_ml - omega_true)
    ci_hits: np.ndarray            # (R, dim) bool, the interval covers the truth
    ml_reml_gap: np.ndarray        # (R,) |K^(1/2)(omega_reml - omega_ml)|
    ebar_moments: dict
    gamma: float
    seed: int

    @property
    def interior(self) -> np.ndarray:
        """Replicates that finished off the variance floor."""
        return (self.error == "") & ~self.boundary

    @property
    def n_replications(self) -> int:
        return len(self.error)

    @property
    def n_ok(self) -> int:
        return int(np.sum(self.error == ""))

    @property
    def n_boundary(self) -> int:
        return int(np.sum(self.boundary))

    @property
    def n_failed(self) -> int:
        return self.n_replications - self.n_ok

    @property
    def coverage(self) -> dict:
        hits = self.ci_hits[self.interior]
        rates = hits.mean(axis=0) if len(hits) else [math.nan] * hits.shape[1]
        return {name: float(v) for name, v in zip(self.parameter_names, rates)}

    @property
    def empirical_covariance(self) -> np.ndarray:
        errs = self.normalized_error[self.interior]   # dim >= 3: np.cov is 2-D
        if len(errs) < 2:   # a covariance needs two replicates
            return np.full((errs.shape[1],) * 2, np.nan)
        return np.cov(errs, rowvar=False, ddof=1)

    @property
    def cross_block_max_correlation(self) -> float:
        if np.count_nonzero(self.interior) < 2:
            return math.nan
        cov = self.empirical_covariance
        sd = np.sqrt(np.diag(cov))
        denom = np.outer(sd, sd)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 0, cov / denom, 0.0)
        ia = self.parameter_names.index("sigma_alpha_sq")
        cross = corr[:ia + 1, ia + 1:]   # between rows, within columns
        return float(np.max(np.abs(cross))) if cross.size else 0.0

    @property
    def gap_mean(self) -> float:
        gaps = self.ml_reml_gap[self.interior]
        return float(gaps.mean()) if gaps.size else math.nan

    @property
    def gap_median(self) -> float:
        gaps = self.ml_reml_gap[self.interior]
        return float(np.median(gaps)) if gaps.size else math.nan

    def to_json_dict(self) -> dict:
        return {
            "parameter_names": list(self.parameter_names),
            "n_replications": self.n_replications,
            "n_ok": self.n_ok,
            "n_boundary": self.n_boundary,
            "n_failed": self.n_failed,
            "coverage": self.coverage,
            "empirical_covariance": self.empirical_covariance.tolist(),
            "cross_block_max_correlation": self.cross_block_max_correlation,
            "gap_mean": self.gap_mean,
            "gap_median": self.gap_median,
            "ebar_moments": self.ebar_moments,
            "gamma": self.gamma,
            "seed": self.seed,
        }


def run_replications(cfg: SimConfig, max_workers: int = 1) -> MonteCarloSummary:
    """Run the full Monte Carlo study described by ``cfg``.

    Args:
        cfg: study configuration.
        max_workers: largest process pool size, at least 1; the pool never
            exceeds the number of replicates or of CPUs, and results are
            identical for any value because every replicate owns its
            seed-derived stream and its own rows of the batch it is
            fitted in.

    Returns:
        MonteCarloSummary over all replicates.

    Raises:
        InvalidConfig: max_workers is below 1.
        AllReplicatesFailed: not a single replicate produced a fit.
    """
    if max_workers < 1:
        raise InvalidConfig(f"max_workers must be >= 1, got {max_workers}")
    reps = cfg.replications
    workers = min(max_workers, reps, os.cpu_count() or 1)
    per = cfg.n * (1 + cfg.true_omega.p_w)   # values of one replicate's rows
    size = max(1, min(_CHUNK, _CHUNK_VALUES // per, -(-reps // workers)))   # a chunk per worker
    starts = range(0, reps, size)
    stops = [min(start + size, reps) for start in starts]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, [cfg] * len(starts), starts, stops))
    else:
        chunks = [_run_chunk(cfg, start, stop) for start, stop in zip(starts, stops)]

    rows, ebars = zip(*(r for chunk in chunks for r in chunk))
    error, boundary, om_ml, om_reml, norm_err, hits, gap = zip(*rows)
    if all(error):
        raise AllReplicatesFailed(
            f"all {cfg.replications} replicates failed; first error: {error[0]}"
        )
    ebar, sizes = np.vstack(ebars), cfg.sizes
    return MonteCarloSummary(
        parameter_names=parameter_names(cfg.true_omega.p_b, cfg.true_omega.p_w),
        error=np.array(error), boundary=np.array(boundary),
        omega_ml=np.vstack(om_ml), omega_reml=np.vstack(om_reml),
        normalized_error=np.vstack(norm_err), ci_hits=np.vstack(hits),
        ml_reml_gap=np.array(gap),
        ebar_moments=_diagnose_ebar(
            {m: ebar[:, sizes == m] for m in np.unique(sizes)},
            cfg.e_dist, cfg.true_omega.sigma_e_sq),
        gamma=cfg.gamma,
        seed=cfg.seed,
    )
