"""Command line interface: fit, ci, simulate.

CSV input schema: a header row with columns ``cluster`` (string label),
``y`` (response), ``b_1..b_pb`` (between covariates, constant inside a
cluster) and ``w_1..w_pw`` (within covariates); column order is free,
numbering must be contiguous from 1.  Clusters are formed by grouping rows
on the label, in order of first appearance.  The file is UTF-8 (a leading
BOM is skipped), parsed in one bulk ``np.loadtxt`` pass that codes the
labels in C; :func:`read_dataset_csv` says when the row reader runs.

Exit codes: 0 success, 2 completed with flags raised (variance on the
boundary, degenerate interval), 1 failure (bad input, singular design).

All real numbers are written with 17 significant digits, which round-trips
IEEE doubles exactly; in JSON output a non-finite number is written as
``null``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from array import array
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import count
from operator import itemgetter

import numpy as np

from . import __version__
from .asymptotics import _two_sided_z, intervals
from .errors import InvalidConfig, NermError, ParseError
from .estimation import FitResult, fit_batch
from .model import (
    ClusteredDataset,
    ParameterVector,
    center_within_covariates,
    parameter_names,
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


def _read_header(reader, path):
    """Check the header row; returns its width, the column positions of
    (cluster, y, b_1.., w_1..) and p_b."""
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in header]
    twice = sorted({h for h in header if header.count(h) > 1})
    if twice:
        raise ParseError(f"{path}: columns named more than once: {twice}")
    if "cluster" not in header or "y" not in header:
        raise ParseError(f"{path}: header must contain 'cluster' and 'y'")
    b_cols = _covariate_columns(header, "b_")
    w_cols = _covariate_columns(header, "w_")
    known = {"cluster", "y", *b_cols, *w_cols}
    extra = [h for h in header if h not in known]
    if extra:
        raise ParseError(f"{path}: unrecognized columns {extra}")
    columns = [header.index(c) for c in ("cluster", "y", *b_cols, *w_cols)]
    return len(header), columns, len(b_cols)


def _grouped(labels: dict, code: np.ndarray, data: np.ndarray,
             p_b: int) -> ClusteredDataset | int:
    """The dataset of rows ``data`` (y, b_1.., w_1..) with cluster codes
    ``code``, regrouped stably by code; or, when a between covariate
    changes inside a cluster, the file row of the first row that changes
    it, as an int."""
    order = np.argsort(code, kind="stable")
    sizes = np.bincount(code)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    data = data[order]
    b_rows = data[:, 1:1 + p_b]
    x_b = b_rows[offsets[:-1]]
    ref = np.repeat(x_b, sizes, axis=0)
    same = (b_rows == ref) | (np.isnan(b_rows) & np.isnan(ref))   # NaN == NaN
    changed = ~np.all(same, axis=1)
    if changed.any():
        return int(order[changed].min())
    return ClusteredDataset(y=data[:, 0], x_w=data[:, 1 + p_b:], x_b=x_b,
                            offsets=offsets, ids=list(labels))


def _read_rows(fh, path: str) -> ClusteredDataset:
    """:func:`read_dataset_csv` one ``csv`` row at a time from the start
    of the open file ``fh``: slow, but it takes quoted fields and whatever
    Python's ``float`` takes, and its errors name the line, ``csv``'s own
    (such as a field over its size limit) too."""
    reader = csv.reader(fh)
    labels: dict[str, int] = {}
    codes, lines, values = array("q"), array("q"), array("d")
    try:
        width, columns, p_b = _read_header(reader, path)
        fields = itemgetter(*columns)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue  # blank line
                raise ParseError(f"{path}:{reader.line_num}: {len(row)} "
                                 f"fields, the header has {width}")
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
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:   # decoded a block at a time: no line
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not labels:
        raise ParseError(f"{path}: no data rows")
    code = np.frombuffer(codes, dtype=np.int64)
    ds = _grouped(labels, code, np.frombuffer(values).reshape(code.size, -1), p_b)
    if isinstance(ds, int):
        raise ParseError(f"{path}:{lines[ds]}: between covariate changes "
                         f"inside cluster {list(labels)[code[ds]]!r}")
    return ds


def _read_bulk(fh, path: str) -> ClusteredDataset | None:
    """The dataset in the open file ``fh`` from its header and one
    ``np.loadtxt`` pass over the rows after it, or None when that pass does
    not take the file as it stands.  Labels are coded by C calls alone and
    checked after the pass, once per distinct label."""
    try:
        width, columns, p_b = _read_header(csv.reader(fh), path)
    except (csv.Error, UnicodeDecodeError):   # the row reader reports it
        return None
    labels = defaultdict(count().__next__)   # codes by first appearance
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # no data rows
            rows = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None,
                              ndmin=2, converters={columns[0]: labels.__getitem__})
    except ValueError:
        return None
    if rows.shape[1] != width:   # every row ragged alike, or no data rows
        return None
    if not all(label and label == label.strip() and '"' not in label
               for label in labels):   # the row reader strips, unquotes or rejects
        return None
    ds = _grouped(labels, rows[:, columns[0]].astype(np.int64),
                  rows[:, columns[1:]], p_b)
    return None if isinstance(ds, int) else ds


def read_dataset_csv(path: str) -> ClusteredDataset:
    """Parse a dataset CSV (see module docstring for the schema).

    The file is opened once, as UTF-8 (a leading BOM is skipped).  Its
    data rows are parsed in one ``np.loadtxt`` pass that codes the labels
    in C by first appearance (each distinct label is checked once), then
    regrouped stably, so each cluster keeps its rows in file order.  A
    file that pass does not take (a quoted or padded label, a number only
    Python's ``float`` reads, any malformed row) is read again from its
    start by the ``csv`` row reader, which returns the same dataset or
    raises the error naming the line.  A pipe goes to the row reader alone.

    Raises:
        ParseError: unreadable or non-UTF-8 file, missing or repeated
            columns, a row whose field count differs from the header's,
            non-numeric fields, or a between covariate varying in a cluster.
        NonFiniteValue: NaN or infinity in a response or covariate (see
            :class:`ClusteredDataset`).
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        if fh.seekable():
            ds = _read_bulk(fh, path)
            if ds is not None:
                return ds
            fh.seek(0)
        return _read_rows(fh, path)


def write_dataset_csv(ds: ClusteredDataset, path: str) -> None:
    """Write a dataset in the same schema ``read_dataset_csv`` accepts."""
    header = (["cluster", "y"]
              + [f"b_{k}" for k in range(1, ds.p_b + 1)]
              + [f"w_{k}" for k in range(1, ds.p_w + 1)])
    sizes = ds.cluster_sizes
    rows = np.hstack([ds.y[:, None], np.repeat(ds.x_b, sizes, axis=0), ds.x_w])
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    s = summary
    numbers = np.hstack([s.omega_ml, s.omega_reml, s.normalized_error]).tolist()
    blank = [""] * (4 * len(names) + 1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, error in enumerate(s.error.tolist()):
            if error:
                writer.writerow([i, 0, 0, error] + blank)
            else:
                writer.writerow([i, 1, int(s.boundary[i]), ""]
                                + [_fmt(v) for v in numbers[i]]
                                + s.ci_hits[i].astype(int).tolist()
                                + [_fmt(s.ml_reml_gap[i])])


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
        _two_sided_z(self.gamma)   # InvalidConfig before any input is read
        if self.contextual and not self.center:
            raise InvalidConfig("--contextual requires --center")
        if self.p_b < 0 or self.p_w < 0:
            raise InvalidConfig(f"--p-b and --p-w must be >= 0, got {self.p_b} "
                                f"and {self.p_w}")


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


def _json_safe(x):
    """``x`` with every non-finite float replaced by None, JSON's null."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_json_safe(v) for v in x]
    return x


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(_json_safe(payload), indent=2, allow_nan=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_input(cfg: RunConfig) -> ClusteredDataset:
    if not cfg.input:
        raise InvalidConfig("--input is required for this command")
    ds = read_dataset_csv(cfg.input)
    if cfg.center:
        ds = center_within_covariates(ds, add_contextual=cfg.contextual)
    return ds


def _fits(cfg: RunConfig, ds: ClusteredDataset) -> dict:
    """The fits ``--method`` asks for, by name, fitted together; the first
    failed one is raised."""
    methods = ("ml", "reml") if cfg.method == "both" else (cfg.method,)
    fits = dict(zip(methods, fit_batch([ds], methods)[0]))
    for fit in fits.values():
        if isinstance(fit, NermError):
            raise fit
    return fits


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg: RunConfig) -> int:
    """Fit the model to a CSV dataset and emit a JSON report."""
    fits = _fits(cfg, _load_input(cfg))
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
    # fit first: a dataset a fit rejects must fail with the fit's error
    fits = _fits(cfg, ds)
    results = {}
    flagged = False
    for (name, fit), cis in zip(fits.items(),
                                intervals([ds] * len(fits), list(fits.values()),
                                          cfg.gamma)):
        if isinstance(cis, NermError):
            raise cis
        results[name] = {
            "fit": _fit_dict(fit),
            "intervals": [asdict(ci) for ci in cis],
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
# argument parsing and entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Parser whose namespace holds only the flags given; every default
    lives in :class:`RunConfig`.  Built once per process: each parse
    starts from a new namespace, so no call sees the flags of another."""
    parser = argparse.ArgumentParser(
        prog="nerm",
        description="Nested error regression: fitting, intervals, simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    add_parser = functools.partial(sub.add_parser,
                                   argument_default=argparse.SUPPRESS)

    def add_common(p):
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        p.add_argument("--gamma", type=float, help="two-sided miscoverage "
                       f"level (default {RunConfig.gamma})")

    p_fit = add_parser("fit", help="fit a CSV dataset")
    p_ci = add_parser("ci", help="fit and report confidence intervals")
    for p in (p_fit, p_ci):
        p.add_argument("--input", required=True, help="dataset CSV path")
        p.add_argument("--method", choices=["ml", "reml", "both"])
        p.add_argument("--center", action="store_true",
                       help="center within covariates at cluster means")
        p.add_argument("--contextual", action="store_true",
                       help="with --center, keep the means as between covariates")
        add_common(p)

    p_sim = add_parser("simulate", help="run a Monte Carlo study")
    add_common(p_sim)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--g", type=int, help="number of clusters")
    p_sim.add_argument("--m", type=int, help="cluster size")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--alpha-dist",
                       help="normal | t(df) | gamma(shape) | lognormal(sigma)")
    p_sim.add_argument("--e-dist")
    p_sim.add_argument("--p-b", type=int)
    p_sim.add_argument("--p-w", type=int)
    p_sim.add_argument("--beta0", type=float)
    p_sim.add_argument("--beta1", type=float)
    p_sim.add_argument("--beta2", type=float)
    p_sim.add_argument("--sigma-alpha-sq", type=float)
    p_sim.add_argument("--sigma-e-sq", type=float)
    p_sim.add_argument("--workers", type=int)
    return parser


def _run_config(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(ns))


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    handlers = {"fit": cmd_fit, "ci": cmd_ci, "simulate": cmd_simulate}
    try:
        cfg = _run_config(ns)
        return handlers[ns.command](cfg)
    except NermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
