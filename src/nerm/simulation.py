"""Monte Carlo verification of the asymptotic claims at desk scale.

The engine simulates clustered data from the nested error model with
user-chosen (non-normal, if desired) effect distributions, fits ML and
REML to every replicate, and summarizes exactly the quantities the theory
speaks about: the empirical covariance of K^(1/2)(omega_hat - omega_true),
the coverage of the moment-based intervals, the size of the normalized
ML/REML gap, and diagnostics for the cluster-mean error moments

    E ebar = 0,                 E ebar^2 = sigma_e_sq / m,
    E ebar^3 = E e^3 / m^2,     E ebar^4 = 3 sigma_e_sq^2 / m^2
                                           + (E e^4 - 3 sigma_e_sq^2) / m^3.

Reproducibility contract: replicate k draws from the stream seeded by
(seed, k), so results do not depend on how replicates are scheduled; an
optional process pool merely reorders the work, never the stream.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .asymptotics import (
    CovariateLimits,
    confidence_intervals,
    estimate_moments,
    normalization,
)
from .errors import (
    AllReplicatesFailed,
    InsufficientSequence,
    InvalidConfig,
    InvalidDistribution,
    NermError,
)
from .estimation import fit_ml, fit_reml
from .model import (
    ClusteredDataset,
    ParameterVector,
    parameter_layout,
    parameter_names,
)

__all__ = [
    "NormalDist",
    "ScaledT",
    "CenteredGamma",
    "CenteredLogNormal",
    "Degenerate",
    "parse_distribution",
    "FixedCovariates",
    "RandomCovariates",
    "SimConfig",
    "ReplicateResult",
    "MonteCarloSummary",
    "RateReport",
    "generate_dataset",
    "run_replications",
    "moment_diagnostics",
    "rate_probe",
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
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return mat
    if not np.allclose(mat, mat.T):
        raise InvalidConfig(f"{what} must be symmetric")
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] < -1e-10 * max(abs(vals[-1]), 1.0):
        raise InvalidConfig(f"{what} must be positive semidefinite")
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass(frozen=True)
class FixedCovariates:
    """Covariates held fixed across replicates."""

    x_b: np.ndarray                      # (g, p_b)
    x_w: tuple                           # g arrays of shape (m_i, p_w)

    def __post_init__(self):
        xb = np.atleast_2d(np.asarray(self.x_b, dtype=float))
        object.__setattr__(self, "x_b", xb)
        object.__setattr__(
            self, "x_w",
            tuple(np.atleast_2d(np.asarray(a, dtype=float)) for a in self.x_w),
        )

    @property
    def p_b(self):
        return self.x_b.shape[1]

    @property
    def p_w(self):
        return self.x_w[0].shape[1] if self.x_w else 0

    def draw(self, rng, sizes):
        return self.x_b, np.concatenate(self.x_w)


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
        mu_b = np.atleast_1d(np.asarray(self.mu_b, dtype=float))
        mu_w = np.atleast_1d(np.asarray(self.mu_w, dtype=float))
        object.__setattr__(self, "mu_b", mu_b)
        object.__setattr__(self, "mu_w", mu_w)
        object.__setattr__(self, "_Lb", _psd_factor(self.Sigma_b, "Sigma_b"))
        object.__setattr__(self, "_Lu", _psd_factor(self.Upsilon_w, "Upsilon_w"))
        object.__setattr__(self, "_Lv", _psd_factor(self.Sigma_w, "Sigma_w"))
        object.__setattr__(self, "Sigma_b", np.atleast_2d(np.asarray(self.Sigma_b, dtype=float)))
        object.__setattr__(self, "Upsilon_w", np.atleast_2d(np.asarray(self.Upsilon_w, dtype=float)))
        object.__setattr__(self, "Sigma_w", np.atleast_2d(np.asarray(self.Sigma_w, dtype=float)))
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

    def limits(self) -> CovariateLimits:
        """Law-level limit quantities: c1 = mu_b, C2 = Sigma_b + mu_b mu_b',
        C3 = Sigma_w."""
        return CovariateLimits(
            c1=self.mu_b,
            C2=self.Sigma_b + np.outer(self.mu_b, self.mu_b),
            C3=self.Sigma_w,
        )

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
        if not (0.0 < self.gamma < 1.0):
            raise InvalidConfig(f"gamma must lie in (0, 1), got {self.gamma}")
        sizes = self.sizes
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
        if isinstance(cm, FixedCovariates):
            if cm.x_b.shape[0] != self.g or len(cm.x_w) != self.g:
                raise InvalidConfig("fixed covariates do not match g")
            for a, m in zip(cm.x_w, sizes):
                if a.shape[0] != m:
                    raise InvalidConfig("fixed within covariates do not match sizes")

    @property
    def sizes(self) -> np.ndarray:
        if np.isscalar(self.cluster_sizes):
            return np.full(self.g, int(self.cluster_sizes), dtype=int)
        sizes = np.asarray(self.cluster_sizes, dtype=int)
        if sizes.size != self.g:
            raise InvalidConfig(
                f"cluster_sizes has length {sizes.size}, expected g={self.g}"
            )
        return sizes

    @property
    def n(self) -> int:
        return int(self.sizes.sum())


def _rng_for(cfg: SimConfig, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(cfg.seed) & 0xFFFFFFFF, *key])


def _generate(cfg: SimConfig, replicate_index: int):
    """The dataset's arrays, as ClusteredDataset keywords, and the
    per-cluster mean errors."""
    rng = _rng_for(cfg, 0, replicate_index)
    om = cfg.true_omega
    sizes = cfg.sizes
    if cfg.covariate_model is not None:
        x_b, x_w = cfg.covariate_model.draw(rng, sizes)
    else:
        x_b, x_w = np.empty((cfg.g, 0)), np.empty((cfg.n, 0))
    alpha = np.asarray(cfg.alpha_dist.sample(rng, cfg.g, om.sigma_alpha_sq),
                       dtype=float)
    e = cfg.e_dist.sample(rng, cfg.n, om.sigma_e_sq)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    ebar = np.add.reduceat(e, offsets[:-1]) / sizes
    y = np.repeat(om.beta0 + x_b @ om.beta1, sizes) + x_w @ om.beta2 \
        + np.repeat(alpha, sizes) + e
    ids = np.char.add("c", np.char.zfill(np.arange(cfg.g).astype(str), 4))
    return dict(y=y, x_w=x_w, x_b=x_b, offsets=offsets, ids=ids), ebar


def generate_dataset(cfg: SimConfig, replicate_index: int = 0) -> ClusteredDataset:
    """Simulate one dataset; deterministic in (cfg.seed, replicate_index)."""
    return ClusteredDataset(**_generate(cfg, replicate_index)[0])


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateResult:
    """Everything recorded about a single Monte Carlo replicate."""

    index: int
    ok: bool
    boundary: bool
    omega_ml: np.ndarray | None          # flat estimates
    omega_reml: np.ndarray | None
    normalized_error: np.ndarray | None  # K^(1/2)(omega_hat_ml - omega_true)
    ci_hits: dict | None                 # interval name -> bool
    ml_reml_gap: float | None            # |K^(1/2)(omega_reml - omega_ml)|
    error: str | None = None


def _run_one(cfg: SimConfig, index: int):
    """One replicate; returns (ReplicateResult, ebar_power_sums_by_size)."""
    arrays, ebar = _generate(cfg, index)
    sums = {}
    for m in np.unique(cfg.sizes):
        vals = ebar[cfg.sizes == m]
        sums[int(m)] = (np.array([np.sum(vals**k) for k in range(1, 9)]),
                        vals.size)
    try:   # a dataset the constructor rejects fails this replicate only
        ds = ClusteredDataset(**arrays)
        ml = fit_ml(ds)
        reml = fit_reml(ds)
        true_flat = cfg.true_omega.flatten()
        om_ml, om_reml = ml.omega_hat.flatten(), reml.omega_hat.flatten()
        k_half = np.sqrt(normalization(ds.g, ds.n, ds.p_b, ds.p_w))
        norm_err = k_half * (om_ml - true_flat)
        gap = float(np.linalg.norm(k_half * (om_reml - om_ml)))
        limits = CovariateLimits.from_dataset(ds)
        moments = estimate_moments(ds, ml)
        cis = confidence_intervals(ml, limits, moments, cfg.gamma)
        hits = {ci.name: ci.contains(t) for ci, t in zip(cis, true_flat)}
        rep = ReplicateResult(
            index=index, ok=True,
            boundary=bool(ml.boundary_flag or reml.boundary_flag),
            omega_ml=om_ml, omega_reml=om_reml,
            normalized_error=norm_err, ci_hits=hits, ml_reml_gap=gap,
        )
    except NermError as exc:
        rep = ReplicateResult(
            index=index, ok=False, boundary=False, omega_ml=None,
            omega_reml=None, normalized_error=None, ci_hits=None,
            ml_reml_gap=None, error=f"{type(exc).__name__}: {exc}",
        )
    return rep, sums


def _diagnose_ebar(power_sums: dict, e_dist, sigma_e_sq: float) -> dict:
    """Compare empirical ebar moments with the analytic identities."""
    se = e_dist.variance(sigma_e_sq)
    m3 = e_dist.moment3(sigma_e_sq)
    m4 = e_dist.moment4(sigma_e_sq)
    out = {}
    for m, (sums, count) in sorted(power_sums.items()):
        mf = float(m)
        expected = {
            "mean": 0.0,
            "second": se / mf,
            "third": m3 / mf**2,
            "fourth": 3.0 * se * se / mf**2 + (m4 - 3.0 * se * se) / mf**3,
        }
        entry = {}
        for k, key in enumerate(("mean", "second", "third", "fourth"), start=1):
            emp = sums[k - 1] / count
            second_moment = sums[2 * k - 1] / count
            se_mc = math.sqrt(max(second_moment - emp * emp, 0.0) / count)
            z = (emp - expected[key]) / se_mc if se_mc > 0 else 0.0
            entry[key] = {
                "empirical": float(emp),
                "expected": float(expected[key]),
                "mc_se": float(se_mc),
                "zscore": float(z),
            }
        out[int(m)] = entry
    return out


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregates of a replication run.

    Coverage, the empirical covariance of the normalized errors and the
    ML/REML gap statistics are computed over replicates that finished and
    stayed off the variance floor; boundary and failed replicates are
    counted separately; a statistic with too few such replicates (none, or
    one for the covariance and the cross-block correlation) is NaN.
    ``ebar_moments`` holds the cluster-mean error diagnostics keyed by
    cluster size.
    """

    parameter_names: list
    n_replications: int
    n_ok: int
    n_boundary: int
    n_failed: int
    coverage: dict
    empirical_covariance: np.ndarray
    cross_block_max_correlation: float
    gap_mean: float
    gap_median: float
    ebar_moments: dict
    gamma: float
    seed: int
    replicates: tuple

    def to_json_dict(self) -> dict:
        return {
            "parameter_names": list(self.parameter_names),
            "n_replications": self.n_replications,
            "n_ok": self.n_ok,
            "n_boundary": self.n_boundary,
            "n_failed": self.n_failed,
            "coverage": {k: float(v) for k, v in self.coverage.items()},
            "empirical_covariance": np.asarray(self.empirical_covariance).tolist(),
            "cross_block_max_correlation": float(self.cross_block_max_correlation),
            "gap_mean": float(self.gap_mean),
            "gap_median": float(self.gap_median),
            "ebar_moments": self.ebar_moments,
            "gamma": self.gamma,
            "seed": self.seed,
        }


def run_replications(cfg: SimConfig, max_workers: int = 1) -> MonteCarloSummary:
    """Run the full Monte Carlo study described by ``cfg``.

    Args:
        cfg: study configuration.
        max_workers: largest process pool size, at least 1; the pool never
            exceeds the number of replicates, and results are identical for
            any value because every replicate owns its seed-derived stream.

    Returns:
        MonteCarloSummary over all replicates.

    Raises:
        InvalidConfig: max_workers is below 1.
        AllReplicatesFailed: not a single replicate produced a fit.
    """
    if max_workers < 1:
        raise InvalidConfig(f"max_workers must be >= 1, got {max_workers}")
    indices = range(cfg.replications)
    workers = min(max_workers, cfg.replications)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, [cfg] * cfg.replications,
                                    indices, chunksize=16))
    else:
        results = [_run_one(cfg, i) for i in indices]

    reps = tuple(r for r, _ in results)
    power_sums: dict = {}
    for _, sums in results:
        for m, (vec, cnt) in sums.items():
            old_vec, old_cnt = power_sums.get(m, (0.0, 0))
            power_sums[m] = (old_vec + vec, old_cnt + cnt)

    ok = [r for r in reps if r.ok]
    if not ok:
        raise AllReplicatesFailed(
            f"all {cfg.replications} replicates failed; first error: "
            f"{reps[0].error}"
        )
    included = [r for r in ok if not r.boundary]
    p_b, p_w = cfg.true_omega.p_b, cfg.true_omega.p_w
    names = parameter_names(p_b, p_w)
    dim = len(names)

    if included:
        coverage = {
            name: float(np.mean([r.ci_hits[name] for r in included]))
            for name in names
        }
        gaps = np.array([r.ml_reml_gap for r in included])
        gap_mean, gap_median = float(gaps.mean()), float(np.median(gaps))
    else:
        coverage = {name: float("nan") for name in names}
        gap_mean = gap_median = float("nan")
    if len(included) >= 2:
        errs = np.vstack([r.normalized_error for r in included])
        emp_cov = np.cov(errs, rowvar=False, ddof=1).reshape(dim, dim)
        sd = np.sqrt(np.diag(emp_cov))
        denom = np.outer(sd, sd)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 0, emp_cov / denom, 0.0)
        _, _, _, ia, _, _ = parameter_layout(p_b, p_w)
        cross = corr[:ia + 1, ia + 1:]   # between rows, within columns
        cross_max = float(np.max(np.abs(cross))) if cross.size else 0.0
    else:   # a covariance needs two replicates
        emp_cov = np.full((dim, dim), np.nan)
        cross_max = float("nan")

    return MonteCarloSummary(
        parameter_names=names,
        n_replications=cfg.replications,
        n_ok=len(ok),
        n_boundary=sum(1 for r in ok if r.boundary),
        n_failed=len(reps) - len(ok),
        coverage=coverage,
        empirical_covariance=emp_cov,
        cross_block_max_correlation=cross_max,
        gap_mean=gap_mean,
        gap_median=gap_median,
        ebar_moments=_diagnose_ebar(power_sums, cfg.e_dist,
                                    cfg.true_omega.sigma_e_sq),
        gamma=cfg.gamma,
        seed=cfg.seed,
        replicates=reps,
    )


def moment_diagnostics(cfg: SimConfig) -> dict:
    """Simulate errors only and test the four cluster-mean moment identities.

    Uses cfg.replications fresh draws of each cluster's mean error (one
    batch per distinct cluster size) from a dedicated stream, so it never
    perturbs the replication streams.  Returns the same nested structure
    as ``MonteCarloSummary.ebar_moments``:
    size -> {mean, second, third, fourth} -> {empirical, expected, mc_se,
    zscore}.
    """
    rng = _rng_for(cfg, 1)
    sizes = cfg.sizes
    power_sums = {}
    for m in np.unique(sizes):
        count = int(np.sum(sizes == m)) * cfg.replications
        draws = cfg.e_dist.sample(rng, (count, int(m)),
                                  cfg.true_omega.sigma_e_sq)
        ebar = draws.mean(axis=1)
        power_sums[int(m)] = (
            np.array([np.sum(ebar**k) for k in range(1, 9)]), count)
    return _diagnose_ebar(power_sums, cfg.e_dist, cfg.true_omega.sigma_e_sq)


# ---------------------------------------------------------------------------
# convergence-rate probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateReport:
    """Log-log regression of estimator spread on sample counts.

    root-g consistency of the between slope shows as slope_beta1 near -1/2
    against g; root-n consistency of the within slope as slope_beta2 near
    -1/2 against n.
    """

    g_values: list
    n_values: list
    sd_beta1: list
    sd_beta2: list
    slope_beta1: float
    slope_beta2: float


def _ls_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))


def rate_probe(cfg_sequence: Sequence[SimConfig],
               max_workers: int = 1) -> RateReport:
    """Estimate convergence rates for the leading beta1 and beta2 entries.

    Args:
        cfg_sequence: at least three configurations with strictly
            increasing g and n, each with p_b >= 1 and p_w >= 1.

    Returns:
        RateReport with empirical SDs and fitted log-log slopes.

    Raises:
        InsufficientSequence: fewer than three sizes or not strictly growing.
        InvalidConfig: a configuration lacks between or within covariates.
    """
    cfgs = list(cfg_sequence)
    if len(cfgs) < 3:
        raise InsufficientSequence(
            f"need at least 3 growing sizes, got {len(cfgs)}"
        )
    gs = [c.g for c in cfgs]
    ns = [c.n for c in cfgs]
    if any(b <= a for a, b in zip(gs, gs[1:])) \
            or any(b <= a for a, b in zip(ns, ns[1:])):
        raise InsufficientSequence(
            "sizes must grow strictly in both g and n along the sequence"
        )
    for c in cfgs:
        if c.true_omega.p_b < 1 or c.true_omega.p_w < 1:
            raise InvalidConfig(
                "rate probe needs at least one between and one within covariate"
            )
    sd1, sd2 = [], []
    for c in cfgs:
        summary = run_replications(c, max_workers=max_workers)
        _, _, i1, _, i2, _ = parameter_layout(c.true_omega.p_b, c.true_omega.p_w)
        ests = np.vstack([r.omega_ml for r in summary.replicates
                          if r.ok and not r.boundary])
        sd1.append(float(np.std(ests[:, i1.start], ddof=1)))   # first beta1 entry
        sd2.append(float(np.std(ests[:, i2.start], ddof=1)))   # first beta2 entry
    slope1 = _ls_slope(np.log(np.asarray(gs, dtype=float)), np.log(np.asarray(sd1)))
    slope2 = _ls_slope(np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(sd2)))
    return RateReport(
        g_values=gs, n_values=ns, sd_beta1=sd1, sd_beta2=sd2,
        slope_beta1=slope1, slope_beta2=slope2,
    )
