"""Command line interface: fit, ci, simulate, verify.

CSV input schema: a header row with columns ``cluster`` (string label),
``y`` (response), ``b_1..b_pb`` (between covariates, constant inside a
cluster) and ``w_1..w_pw`` (within covariates); column order is free,
numbering must be contiguous from 1.  Clusters are formed by grouping rows
on the label, in order of first appearance.

Exit codes: 0 success, 2 completed with flags raised (variance on the
boundary, degenerate interval), 1 failure (bad input, singular design).

All real numbers are written with 17 significant digits, which round-trips
IEEE doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from array import array
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import __version__
from .asymptotics import (
    CovariateLimits,
    MomentEstimates,
    confidence_intervals,
    estimate_moments,
    matrix_A,
    matrix_B,
    matrix_C,
    normal_quantile,
)
from .errors import InvalidConfig, NermError, ParseError
from .estimation import FitResult, fit_ml, fit_reml
from .likelihood import log_likelihood, score
from .model import (
    Cluster,
    ClusteredDataset,
    ParameterVector,
    center_within_covariates,
    parameter_names,
    sufficient_stats,
    validate_dataset,
)
from .simulation import (
    MonteCarloSummary,
    RandomCovariates,
    SimConfig,
    parse_distribution,
    run_replications,
)

__all__ = [
    "RunConfig",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_replicates_csv",
    "cmd_fit",
    "cmd_ci",
    "cmd_simulate",
    "cmd_verify",
    "main",
]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_FLAGGED = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# CSV input/output
# ---------------------------------------------------------------------------

def _covariate_columns(header, prefix):
    cols = {}
    for name in header:
        if name.startswith(prefix):
            try:
                k = int(name[len(prefix):])
            except ValueError:
                raise ParseError(f"bad covariate column name {name!r}")
            cols[k] = name
    if cols and sorted(cols) != list(range(1, len(cols) + 1)):
        raise ParseError(
            f"{prefix}* columns must be numbered contiguously from 1, "
            f"got {sorted(cols)}"
        )
    return [cols[k] for k in sorted(cols)]


def read_dataset_csv(path: str) -> ClusteredDataset:
    """Parse a dataset CSV (see module docstring for the schema).

    Rows are streamed into flat columns, numbered by cluster label in order
    of first appearance and regrouped stably, so each cluster keeps its rows
    in file order.

    Raises:
        ParseError: unreadable file, missing columns, a row whose field
            count differs from the header's, non-numeric fields, or a
            between covariate that varies inside a cluster.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if "cluster" not in header or "y" not in header:
            raise ParseError(f"{path}: header must contain 'cluster' and 'y'")
        b_cols = _covariate_columns(header, "b_")
        w_cols = _covariate_columns(header, "w_")
        known = {"cluster", "y", *b_cols, *w_cols}
        extra = [h for h in header if h not in known]
        if extra:
            raise ParseError(f"{path}: unrecognized columns {extra}")
        fields = itemgetter(*(header.index(c)
                              for c in ("cluster", "y", *b_cols, *w_cols)))
        labels: dict[str, int] = {}
        codes, lines, values = array("q"), array("q"), array("d")
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue  # blank line
                raise ParseError(f"{path}:{reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
            label, *numbers = fields(row)
            label = label.strip()
            if not label:
                raise ParseError(f"{path}:{reader.line_num}: empty cluster label")
            try:
                values.extend(map(float, numbers))
            except ValueError as exc:
                raise ParseError(f"{path}:{reader.line_num}: non-numeric field") from exc
            codes.append(labels.setdefault(label, len(labels)))
            lines.append(reader.line_num)
    if not labels:
        raise ParseError(f"{path}: no data rows")
    code = np.frombuffer(codes, dtype=np.int64)
    order = np.argsort(code, kind="stable")
    sizes = np.bincount(code)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    data = np.frombuffer(values).reshape(code.size, -1)[order]
    b_rows = data[:, 1:1 + len(b_cols)]
    x_b = b_rows[offsets[:-1]]
    changed = np.any(b_rows != np.repeat(x_b, sizes, axis=0), axis=1)
    changed[offsets[:-1]] = False  # a first row is its own reference, even if NaN
    if changed.any():
        first = int(order[changed].min())
        label = list(labels)[code[first]]
        raise ParseError(f"{path}:{lines[first]}: between covariate changes "
                         f"inside cluster {label!r}")
    return ClusteredDataset(y=data[:, 0], x_w=data[:, 1 + len(b_cols):],
                            x_b=x_b, offsets=offsets, ids=list(labels))


def write_dataset_csv(ds: ClusteredDataset, path: str) -> None:
    """Write a dataset in the same schema ``read_dataset_csv`` accepts."""
    header = (["cluster", "y"]
              + [f"b_{k}" for k in range(1, ds.p_b + 1)]
              + [f"w_{k}" for k in range(1, ds.p_w + 1)])
    sizes = ds.cluster_sizes
    rows = np.hstack([ds.y[:, None], np.repeat(ds.x_b, sizes, axis=0), ds.x_w])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([label, *map(_fmt, row)] for label, row in
                         zip(np.repeat(ds.ids, sizes).tolist(), rows.tolist()))


def _san(name: str) -> str:
    return name.replace("[", "_").replace("]", "")


def write_replicates_csv(summary: MonteCarloSummary, path: str) -> None:
    """One row per replicate: estimates, normalized errors, interval hits."""
    names = summary.parameter_names
    header = (["index", "ok", "boundary", "error"]
              + [f"ml_{_san(n)}" for n in names]
              + [f"reml_{_san(n)}" for n in names]
              + [f"err_{_san(n)}" for n in names]
              + [f"hit_{_san(n)}" for n in names]
              + ["ml_reml_gap"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        blank = [""] * len(names)
        for r in summary.replicates:
            if r.ok:
                row = ([r.index, 1, int(r.boundary), ""]
                       + [_fmt(v) for v in r.omega_ml]
                       + [_fmt(v) for v in r.omega_reml]
                       + [_fmt(v) for v in r.normalized_error]
                       + [int(r.ci_hits[n]) for n in names]
                       + [_fmt(r.ml_reml_gap)])
            else:
                row = [r.index, 0, 0, r.error] + blank * 4 + [""]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated CLI invocation."""

    command: str
    input: str | None = None
    output: str | None = None
    method: str = "both"
    gamma: float = 0.05
    center: bool = False
    contextual: bool = False
    seed: int = 0
    g: int = 50
    m: int = 10
    reps: int = 200
    alpha_dist: str = "normal"
    e_dist: str = "normal"
    p_b: int = 1
    p_w: int = 1
    beta0: float = 0.0
    beta1: float = 0.5
    beta2: float = 0.5
    sigma_alpha_sq: float = 1.0
    sigma_e_sq: float = 1.0
    workers: int = 1

    def __post_init__(self):
        if self.method not in ("ml", "reml", "both"):
            raise InvalidConfig(f"method must be ml, reml or both, got {self.method!r}")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidConfig(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.contextual and not self.center:
            raise InvalidConfig("--contextual requires --center")


def _fit_dict(fit: FitResult) -> dict:
    names = parameter_names(fit.omega_hat.p_b, fit.omega_hat.p_w)
    flat = fit.omega_hat.flatten()
    return {
        "method": fit.method,
        "estimates": {n: float(v) for n, v in zip(names, flat)},
        "omega": [float(v) for v in flat],
        "loglik_at_opt": float(fit.loglik_at_opt),
        "converged": bool(fit.converged),
        "iterations": int(fit.iterations),
        "score_norm": float(fit.score_norm),
        "boundary_flag": bool(fit.boundary_flag),
        "g": fit.g,
        "n": fit.n,
    }


def _interval_dict(ci) -> dict:
    return {
        "name": ci.name,
        "estimate": float(ci.estimate),
        "lower": float(ci.lower),
        "upper": float(ci.upper),
        "level": float(ci.level),
        "source": ci.source,
        "degenerate": bool(ci.degenerate),
    }


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_input(cfg: RunConfig) -> ClusteredDataset:
    if not cfg.input:
        raise InvalidConfig("--input is required for this command")
    ds = read_dataset_csv(cfg.input)
    validate_dataset(ds)
    if cfg.center:
        ds = center_within_covariates(ds, add_contextual=cfg.contextual)
    return ds


def _methods(cfg: RunConfig):
    if cfg.method == "ml":
        return [("ml", fit_ml)]
    if cfg.method == "reml":
        return [("reml", fit_reml)]
    return [("ml", fit_ml), ("reml", fit_reml)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg: RunConfig) -> int:
    """Fit the model to a CSV dataset and emit a JSON report."""
    ds = _load_input(cfg)
    fits = {name: fn(ds) for name, fn in _methods(cfg)}
    payload = {
        "command": "fit",
        "input": cfg.input,
        "fits": {name: _fit_dict(f) for name, f in fits.items()},
    }
    _emit(payload, cfg.output)
    flagged = any(f.boundary_flag or not f.converged for f in fits.values())
    return EXIT_FLAGGED if flagged else EXIT_OK


def cmd_ci(cfg: RunConfig) -> int:
    """Fit, then emit confidence intervals for every parameter."""
    ds = _load_input(cfg)
    stats = sufficient_stats(ds)
    limits = CovariateLimits.from_dataset(ds, stats)
    results = {}
    flagged = False
    for name, fn in _methods(cfg):
        fit = fn(ds)
        moments = estimate_moments(ds, stats, fit)
        cis = confidence_intervals(fit, limits, moments, cfg.gamma)
        results[name] = {
            "fit": _fit_dict(fit),
            "intervals": [_interval_dict(ci) for ci in cis],
        }
        flagged |= fit.boundary_flag or any(ci.degenerate for ci in cis)
    payload = {"command": "ci", "input": cfg.input, "gamma": cfg.gamma,
               "results": results}
    _emit(payload, cfg.output)
    return EXIT_FLAGGED if flagged else EXIT_OK


def _sim_config(cfg: RunConfig) -> SimConfig:
    covariates = None
    if cfg.p_b or cfg.p_w:
        covariates = RandomCovariates(
            mu_b=np.full(cfg.p_b, 0.5),
            Sigma_b=np.eye(cfg.p_b),
            mu_w=np.zeros(cfg.p_w),
            Upsilon_w=0.25 * np.eye(cfg.p_w),
            Sigma_w=np.eye(cfg.p_w),
        )
    omega = ParameterVector(
        beta0=cfg.beta0,
        beta1=np.full(cfg.p_b, cfg.beta1),
        sigma_alpha_sq=cfg.sigma_alpha_sq,
        beta2=np.full(cfg.p_w, cfg.beta2),
        sigma_e_sq=cfg.sigma_e_sq,
    )
    return SimConfig(
        g=cfg.g, cluster_sizes=cfg.m, true_omega=omega,
        alpha_dist=parse_distribution(cfg.alpha_dist),
        e_dist=parse_distribution(cfg.e_dist),
        covariate_model=covariates, seed=cfg.seed,
        replications=cfg.reps, gamma=cfg.gamma,
    )


def _replicates_path(output: str) -> str:
    return (output[:-5] if output.endswith(".json") else output) \
        + ".replicates.csv"


def cmd_simulate(cfg: RunConfig) -> int:
    """Run a Monte Carlo study; JSON summary plus per-replicate CSV."""
    sim = _sim_config(cfg)
    summary = run_replications(sim, max_workers=cfg.workers)
    payload = {"command": "simulate", **summary.to_json_dict()}
    if cfg.output:
        payload["replicates_csv"] = _replicates_path(cfg.output)
        write_replicates_csv(summary, payload["replicates_csv"])
    _emit(payload, cfg.output)
    flagged = summary.n_boundary > 0 or summary.n_failed > 0
    return EXIT_FLAGGED if flagged else EXIT_OK


# ---------------------------------------------------------------------------
# verify: built-in cross checks
# ---------------------------------------------------------------------------

def _dense_loglik(ds, omega):
    """Independent dense-covariance likelihood route used only for checking."""
    total = 0.0
    for c in ds.clusters:
        m = c.y.size
        mean = omega.beta0 + float(c.x_b @ omega.beta1) + c.x_w @ omega.beta2
        cov = omega.sigma_e_sq * np.eye(m) \
            + omega.sigma_alpha_sq * np.ones((m, m))
        sign, logdet = np.linalg.slogdet(cov)
        resid = c.y - mean
        total += -0.5 * m * math.log(2.0 * math.pi) - 0.5 * logdet \
            - 0.5 * float(resid @ np.linalg.solve(cov, resid))
    return total


def _verify_dataset(rng, g=5, m_max=6, p_b=1, p_w=1):
    sizes = rng.integers(1, m_max + 1, size=g)
    sizes[0] = max(sizes[0], 2)
    omega = ParameterVector(rng.normal(), rng.normal(size=p_b),
                            rng.uniform(0.4, 1.6), rng.normal(size=p_w),
                            rng.uniform(0.4, 1.6))
    clusters = []
    for i, m in enumerate(sizes):
        xb = rng.normal(size=p_b)
        xw = rng.normal(size=(m, p_w))
        y = (omega.beta0 + xb @ omega.beta1 + xw @ omega.beta2
             + rng.normal(scale=math.sqrt(omega.sigma_alpha_sq))
             + rng.normal(scale=math.sqrt(omega.sigma_e_sq), size=m))
        clusters.append(Cluster(f"c{i}", y, xb, xw))
    return ClusteredDataset.from_clusters(clusters, p_b=p_b, p_w=p_w), omega


def _check_likelihood_oracle(rng):
    worst = 0.0
    for _ in range(25):
        ds, om1 = _verify_dataset(rng)
        _, om2 = _verify_dataset(rng)
        stats = sufficient_stats(ds)
        mine = log_likelihood(ds, stats, om1) - log_likelihood(ds, stats, om2)
        dense = _dense_loglik(ds, om1) - _dense_loglik(ds, om2)
        worst = max(worst, abs(mine - dense) / max(1.0, abs(dense)))
    return worst < 1e-8, f"max relative deviation {worst:.2e} (tol 1e-8)"


def _check_gradients(rng):
    worst = 0.0
    for _ in range(5):
        ds, om = _verify_dataset(rng)
        stats = sufficient_stats(ds)
        flat = om.flatten()
        p_b, p_w = om.p_b, om.p_w
        analytic = score(ds, stats, om).flat
        for k in range(flat.size):
            h = 1e-6 * (1.0 + abs(flat[k]))
            up, dn = flat.copy(), flat.copy()
            up[k] += h
            dn[k] -= h
            fd = (log_likelihood(ds, stats, ParameterVector.from_flat(up, p_b, p_w))
                  - log_likelihood(ds, stats, ParameterVector.from_flat(dn, p_b, p_w))) \
                / (2.0 * h)
            worst = max(worst, abs(fd - analytic[k]) / max(1.0, abs(analytic[k])))
    return worst < 1e-5, f"max relative deviation {worst:.2e} (tol 1e-5)"


def _check_sandwich(rng):
    worst = 0.0
    for _ in range(10):
        p_b, p_w = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        c1 = rng.normal(size=p_b)
        base = rng.normal(size=(p_b, p_b))
        C2 = np.outer(c1, c1) + base @ base.T + np.eye(p_b)
        base_w = rng.normal(size=(p_w, p_w))
        C3 = base_w @ base_w.T + np.eye(p_w)
        limits = CovariateLimits(c1=c1, C2=C2, C3=C3)
        theta = (rng.uniform(0.4, 2.0), rng.uniform(0.4, 2.0))
        mom = MomentEstimates(
            mu3_alpha=rng.normal(),
            mu4_alpha=theta[0]**2 * rng.uniform(1.2, 5.0),
            mu3_e=rng.normal(),
            mu4_e=theta[1]**2 * rng.uniform(1.2, 5.0),
        )
        A = matrix_A(limits, theta, mom)
        B = matrix_B(limits, theta)
        C = matrix_C(limits, theta, mom).C
        sandwich = np.linalg.solve(B, np.linalg.solve(B, A).T)
        worst = max(worst, float(np.max(np.abs(C - sandwich))))
    return worst < 1e-10, f"max absolute deviation {worst:.2e} (tol 1e-10)"


def _check_quantile():
    refs = [
        (0.975, 1.9599639845400542355),
        (0.995, 2.575829303548900761),
        (0.5, 0.0),
        (1e-8, -5.6120012441747887315),
        (0.9999, 3.7190164854556805644),
    ]
    worst = max(abs(normal_quantile(p) - v) for p, v in refs)
    return worst < 1e-9, f"max absolute deviation {worst:.2e} (tol 1e-9)"


def _check_coverage_smoke():
    omega = ParameterVector(0.2, np.array([0.5]), 1.0, np.array([0.5]), 1.0)
    sim = SimConfig(
        g=40, cluster_sizes=10, true_omega=omega,
        covariate_model=RandomCovariates(
            mu_b=np.array([0.5]), Sigma_b=np.eye(1), mu_w=np.zeros(1),
            Upsilon_w=0.25 * np.eye(1), Sigma_w=np.eye(1)),
        seed=20260815, replications=200, gamma=0.05,
    )
    summary = run_replications(sim)
    c1 = summary.coverage["beta1[0]"]
    c2 = summary.coverage["beta2[0]"]
    ok = 0.85 <= c1 <= 1.0 and 0.85 <= c2 <= 1.0 and summary.n_failed == 0
    return ok, f"beta1 coverage {c1:.3f}, beta2 coverage {c2:.3f} (smoke band 0.85..1)"


def cmd_verify(cfg: RunConfig) -> int:
    """Run the built-in cross checks and print one line per check."""
    rng = np.random.default_rng(20260815)
    checks = [
        ("likelihood_oracle", lambda: _check_likelihood_oracle(rng)),
        ("score_gradient", lambda: _check_gradients(rng)),
        ("sandwich_identity", lambda: _check_sandwich(rng)),
        ("normal_quantile", _check_quantile),
        ("coverage_smoke", _check_coverage_smoke),
    ]
    all_ok = True
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nerm",
        description="Nested error regression: fitting, intervals, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        p.add_argument("--gamma", type=float, default=0.05,
                       help="two-sided miscoverage level (default 0.05)")

    p_fit = sub.add_parser("fit", help="fit a CSV dataset")
    p_ci = sub.add_parser("ci", help="fit and report confidence intervals")
    for p in (p_fit, p_ci):
        p.add_argument("--input", required=True, help="dataset CSV path")
        p.add_argument("--method", choices=["ml", "reml", "both"],
                       default="both")
        p.add_argument("--center", action="store_true",
                       help="center within covariates at cluster means")
        p.add_argument("--contextual", action="store_true",
                       help="with --center, keep the means as between covariates")
        add_common(p)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study")
    add_common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--g", type=int, default=50, help="number of clusters")
    p_sim.add_argument("--m", type=int, default=10, help="cluster size")
    p_sim.add_argument("--reps", type=int, default=200)
    p_sim.add_argument("--alpha-dist", default="normal",
                       help="normal | t(df) | gamma(shape) | lognormal(sigma)")
    p_sim.add_argument("--e-dist", default="normal")
    p_sim.add_argument("--p-b", type=int, default=1)
    p_sim.add_argument("--p-w", type=int, default=1)
    p_sim.add_argument("--beta0", type=float, default=0.0)
    p_sim.add_argument("--beta1", type=float, default=0.5)
    p_sim.add_argument("--beta2", type=float, default=0.5)
    p_sim.add_argument("--sigma-alpha-sq", type=float, default=1.0)
    p_sim.add_argument("--sigma-e-sq", type=float, default=1.0)
    p_sim.add_argument("--workers", type=int, default=1)

    sub.add_parser("verify", help="run the built-in cross checks")
    return parser


def _run_config(ns: argparse.Namespace) -> RunConfig:
    fields = {f for f in RunConfig.__dataclass_fields__}
    kwargs = {k: v for k, v in vars(ns).items() if k in fields and v is not None}
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    handlers = {"fit": cmd_fit, "ci": cmd_ci, "simulate": cmd_simulate,
                "verify": cmd_verify}
    try:
        cfg = _run_config(ns)
        return handlers[ns.command](cfg)
    except NermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
