"""nerm benchmark: one workload in one process, through ``nerm.cli.main``.

    python3 nermbench/run.py --workload ci_wide --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory):

    ci_wide      repeated ``nerm ci --method both`` on a ~10^5-row CSV
    mc_interior  repeated ``nerm simulate`` at g=100, m=50, gamma(2)/t(7)
    mc_boundary  repeated ``nerm simulate`` at g=10, m=3, sigma_alpha_sq=0.05

The run sets up three times (inputs plus one untimed warm-up command),
then issues whole commands until ``--seconds`` have passed, then checks
every output against the independent oracle in ``oracle.py``.  A speed
probe timed around every set-up and command rescales the reported times
to one reference machine speed.  With ``--trace 1`` the timed commands
run under the span recorder of ``spans.py`` and the per-layer metrics are
printed instead of the end-to-end ones.  The last stdout line is the JSON
result; the line before it records the environment, the raw times and
every check that failed.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()   # set-up time counts imports from here

# One process, one BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import hashlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".nermbench"
SETUPS = 3
COVERAGE_Z = 5.0          # binomial band half-width, in standard errors
COVERAGE_ALLOWANCE = 0.05  # finite-g undercoverage allowed below nominal


def load_nerm():
    """Import nerm from this checkout's src/; returns seconds since start-up."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nerm.cli  # noqa: F401  (imports every other nerm module)
    if src.resolve() not in Path(nerm.cli.__file__).resolve().parents:
        raise ImportError(f"nerm was not imported from {src}")
    return time.perf_counter() - STARTED


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class CiWide:
    """Repeated ``nerm ci --method both`` on one CSV made from the seed.

    20,000 clusters of 2 to 8 rows (about 10^5 rows), one between and one
    within covariate, centred gamma(2) cluster effects and t(7) errors,
    all drawn here with numpy.  One operation is one command.
    """

    G = 20_000

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.csv = work / "wide.csv"
        self.outputs = []        # json paths
        self.rows = None

    def make_inputs(self):
        rng = np.random.default_rng([self.seed, 1])
        g = self.G
        sizes = rng.integers(2, 9, size=g)
        n = int(sizes.sum())
        xb = rng.normal(0.5, 1.0, size=g)
        xw = np.repeat(rng.normal(0.0, 0.5, size=g), sizes) + rng.normal(size=n)
        alpha = rng.gamma(2.0, 1.0 / math.sqrt(2.0), size=g) - math.sqrt(2.0)
        e = rng.standard_t(7.0, size=n) * math.sqrt(5.0 / 7.0)
        y = 0.2 + 0.5 * np.repeat(xb, sizes) + 0.5 * xw + np.repeat(alpha, sizes) + e
        labels = np.repeat([f"k{i}" for i in range(g)], sizes)
        with open(self.csv, "w") as fh:
            fh.write("cluster,y,b_1,w_1\n")
            fh.writelines(f"{c},{a!r},{b!r},{d!r}\n" for c, a, b, d in
                          zip(labels, y.tolist(), np.repeat(xb, sizes).tolist(),
                              xw.tolist()))
        self.rows = (y, xb, xw, sizes)

    ops_per_command = 1
    allowed_failure = None

    def command(self, label):
        out = self.work / f"ci-{label}.json"
        self.outputs.append(out)
        return ["ci", "--input", str(self.csv), "--method", "both",
                "--output", str(out)]

    def failed(self, rc, out):
        return int(rc == 1)

    def check(self, rcs, problems, rng):
        data = oracle.Data(*self.rows)
        seen = set()
        rel = oracle.dense_selftest(data, (1.0, 1.0), np.array([0.2, 0.5, 0.5]))
        if rel > 1e-10:
            problems.append(f"oracle closed form differs from dense density by {rel:.1e}")
        for out, rc in zip(self.outputs, rcs):
            if rc == 1:
                problems.append(f"{out.name}: nerm ci failed")
                continue
            text = out.read_bytes()
            digest = hashlib.sha256(text).hexdigest()
            if digest in seen:
                continue
            seen.add(digest)
            self._check_one(data, json.loads(text), rc, out.name, problems)

    @staticmethod
    def _check_one(data, payload, rc, where, problems):
        flagged = False
        for method in ("ml", "reml"):
            res = payload["results"][method]
            fit = res["fit"]
            om = np.array(fit["omega"], dtype=float)
            beta, theta = np.delete(om, [2, 4]), (om[2], om[4])
            reml = method == "reml"
            tag = f"{where} {method}"
            if (fit["g"], fit["n"]) != (data.g, data.n):
                problems.append(f"{tag}: g, n = {fit['g']}, {fit['n']}")
            for detail in oracle.check_fit(data, beta, theta, reml, fit["boundary_flag"]):
                problems.append(f"{tag}: {detail}")
            want = data.nerm_loglik(beta, theta, reml)
            if not oracle.close(fit["loglik_at_opt"], want, want):
                problems.append(f"{tag}: loglik_at_opt {fit['loglik_at_opt']!r}, oracle {want!r}")
            expected = oracle.expected_intervals(data, beta, theta, payload["gamma"])
            names = [ci["name"] for ci in res["intervals"]]
            if names != list(expected):
                problems.append(f"{tag}: intervals {names}")
                continue
            for ci, est in zip(res["intervals"], om):
                lo, hi = expected[ci["name"]]
                scale = abs(est) + (hi - lo if math.isfinite(hi) else 0.0)
                if ci["estimate"] != est or not (
                        oracle.close(ci["lower"], lo, scale)
                        and oracle.close(ci["upper"], hi, scale)):
                    problems.append(f"{tag}: interval {ci['name']} "
                                    f"({ci['lower']!r}, {ci['upper']!r}), oracle ({lo!r}, {hi!r})")
                flagged |= ci["degenerate"]
            flagged |= fit["boundary_flag"]
        if rc != (2 if flagged else 0):
            problems.append(f"{where}: exit code {rc} with flags {flagged}")


class MonteCarlo:
    """Repeated ``nerm simulate --reps R --workers 1 --output ...``.

    One operation is one replicate.  ``study_seed`` None draws a fresh nerm
    seed for every command from the benchmark seed; an int pins it.
    """

    def __init__(self, seed, work, *, g, m, reps, sigma_alpha_sq=1.0,
                 alpha_dist="normal", e_dist="normal", study_seed=None,
                 allowed_failure=None, coverage=False):
        self.work, self.reps = work, reps
        self.g, self.m, self.sa = g, m, sigma_alpha_sq
        self.alpha_dist, self.e_dist = alpha_dist, e_dist
        self.study_seed = study_seed
        self.allowed_failure = allowed_failure
        self.coverage = coverage
        self.ops_per_command = reps
        self.seeds = random.Random(f"{seed}/study")
        self.outputs = []        # json paths
        self.study_of = {}       # json path -> nerm seed

    def make_inputs(self):
        pass  # nerm simulate draws its own data from the flags and seed

    def command(self, label):
        seed = self.study_seed if self.study_seed is not None \
            else self.seeds.randrange(1, 2**31)
        out = self.work / f"sim-{label}.json"
        self.outputs.append(out)
        self.study_of[out] = seed
        return ["simulate", "--g", str(self.g), "--m", str(self.m),
                "--sigma-alpha-sq", repr(self.sa), "--alpha-dist", self.alpha_dist,
                "--e-dist", self.e_dist, "--reps", str(self.reps),
                "--seed", str(seed), "--workers", "1", "--output", str(out)]

    def failed(self, rc, out):
        return json.loads(out.read_text())["n_failed"] if rc != 1 else self.reps

    def sim_config(self, seed):
        from nerm.model import ParameterVector
        from nerm.simulation import RandomCovariates, SimConfig, parse_distribution
        # `nerm simulate` defaults: beta0 0, beta1 = beta2 = 0.5, sigma_e_sq 1,
        # and its covariate law for p_b = p_w = 1.
        return SimConfig(
            g=self.g, cluster_sizes=self.m,
            true_omega=ParameterVector(0.0, [0.5], self.sa, [0.5], 1.0),
            alpha_dist=parse_distribution(self.alpha_dist),
            e_dist=parse_distribution(self.e_dist),
            covariate_model=RandomCovariates(
                mu_b=[0.5], Sigma_b=np.eye(1), mu_w=[0.0],
                Upsilon_w=0.25 * np.eye(1), Sigma_w=np.eye(1)),
            seed=seed, replications=self.reps)

    def check(self, rcs, problems, rng):
        finished = []            # (json path, csv row)
        hits = {}
        for out, rc in zip(self.outputs, rcs):
            if rc == 1:
                problems.append(f"{out.name}: nerm simulate failed")
                continue
            payload = json.loads(out.read_text())
            rows = self._check_counts(payload, rc, out.name, problems)
            for r in rows:
                if r["ok"] == "1":
                    finished.append((out, r))
                    for name in payload["parameter_names"]:
                        hits.setdefault(name, []).append(r["hit_" + _san(name)] == "1")
        if self.coverage:
            for name, h in hits.items():
                n, p0 = len(h), 1.0 - 0.05
                band = COVERAGE_Z * math.sqrt(p0 * (1.0 - p0) / n)
                cov = sum(h) / n
                if not (p0 - COVERAGE_ALLOWANCE - band <= cov <= p0 + band):
                    problems.append(f"coverage of {name} {cov:.3f} over {n} replicates "
                                    f"outside [{p0 - COVERAGE_ALLOWANCE - band:.3f}, "
                                    f"{p0 + band:.3f}]")
        for out, row in rng.sample(finished, min(6, len(finished))):
            self._check_replicate(out, row, problems)

    def _check_counts(self, payload, rc, where, problems):
        with open(payload["replicates_csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        ok = [r for r in rows if r["ok"] == "1"]
        counts = (payload["n_replications"], payload["n_ok"], payload["n_failed"],
                  payload["n_boundary"])
        want = (self.reps, len(ok), len(rows) - len(ok),
                sum(r["boundary"] == "1" for r in ok))
        if len(rows) != self.reps or counts != want:
            problems.append(f"{where}: JSON counts {counts}, replicates CSV {want}")
        for r in rows:
            if r["ok"] != "1" and (self.allowed_failure is None
                                   or not r["error"].startswith(self.allowed_failure + ":")):
                problems.append(f"{where}: replicate {r['index']} failed: {r['error']}")
        interior = [r for r in ok if r["boundary"] != "1"]
        for name, cov in payload["coverage"].items():
            if interior:
                mine = sum(r["hit_" + _san(name)] == "1" for r in interior) / len(interior)
                if abs(mine - cov) > 1e-12:
                    problems.append(f"{where}: JSON coverage {name} {cov}, CSV {mine}")
        flagged = payload["n_boundary"] > 0 or payload["n_failed"] > 0
        if rc != (2 if flagged else 0):
            problems.append(f"{where}: exit code {rc} with flags {flagged}")
        return rows

    def _check_replicate(self, out, row, problems):
        from nerm.cli import write_dataset_csv
        from nerm.simulation import generate_dataset
        idx = int(row["index"])
        path = self.work / "rebuilt.csv"
        write_dataset_csv(generate_dataset(self.sim_config(self.study_of[out]), idx), path)
        data = read_dataset(path)
        names = ["beta0", "beta1_0", "sigma_alpha_sq", "beta2_0", "sigma_e_sq"]
        for method in ("ml", "reml"):
            om = np.array([float(row[f"{method}_{n}"]) for n in names])
            beta, theta = np.delete(om, [2, 4]), (om[2], om[4])
            for detail in oracle.check_fit(data, beta, theta, method == "reml",
                                           row["boundary"] == "1"):
                problems.append(f"{out.name} replicate {idx} {method}: {detail}")


def _san(name):
    return name.replace("[", "_").replace("]", "")


def read_dataset(path):
    """Parse a dataset CSV (cluster, y, b_k, w_k) into oracle.Data."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    col = {h: j for j, h in enumerate(header)}
    b = [col[f"b_{k}"] for k in range(1, 1 + sum(h.startswith("b_") for h in header))]
    w = [col[f"w_{k}"] for k in range(1, 1 + sum(h.startswith("w_") for h in header))]
    groups = {}
    for r in rows:
        groups.setdefault(r[col["cluster"]], []).append(r)
    ordered = [r for grp in groups.values() for r in grp]
    return oracle.Data(
        [float(r[col["y"]]) for r in ordered],
        [[float(grp[0][j]) for j in b] for grp in groups.values()],
        [[float(r[j]) for j in w] for r in ordered],
        [len(grp) for grp in groups.values()])


WORKLOADS = {
    "ci_wide": lambda seed, work: CiWide(seed, work),
    "mc_interior": lambda seed, work: MonteCarlo(
        seed, work, g=100, m=50, reps=20, alpha_dist="gamma(2)", e_dist="t(7)",
        coverage=True),
    "mc_boundary": lambda seed, work: MonteCarlo(
        seed, work, g=10, m=3, reps=15, sigma_alpha_sq=0.05, study_seed=3,
        allowed_failure="NoConvergence"),
}


# ---------------------------------------------------------------------------
# per-layer numbers from the spans
# ---------------------------------------------------------------------------

def layer_metrics(tracer, roots, datasets_per_command, overhead):
    """Per-command layer times over all timed commands; counts from the first."""
    _, total, self_s = spans.summarize(tracer.spans)
    first, _, _ = spans.summarize(tracer.spans, roots[0],
                                  roots[1] if len(roots) > 1 else None)
    per_cmd = len(roots)
    fits = first["estimation.fit_ml"] + first["estimation.fit_reml"]

    def seconds(value):
        return {"value": value / per_cmd, "unit": "s"}

    def count(value, base):
        return {"value": value / base if base else 0.0, "unit": "count"}

    return {
        "cli.read_dataset_csv.s": seconds(total["cli.read_dataset_csv"]),
        "cli.write_replicates_csv.s": seconds(total["cli.write_replicates_csv"]),
        "cli.self.s": seconds(self_s["cli.main"]),
        "model.validate_dataset.s": seconds(total["model.validate_dataset"]),
        "model.validate_dataset.calls_per_dataset":
            count(first["model.validate_dataset"], datasets_per_command),
        "model.sufficient_stats.s": seconds(total["model.sufficient_stats"]),
        "model.sufficient_stats.calls_per_dataset":
            count(first["model.sufficient_stats"], datasets_per_command),
        "estimation.objective_evals_per_fit":
            count(first["likelihood.log_likelihood"], fits),
        "estimation.newton_iters_per_fit":
            count(first["likelihood.score_jacobian"], fits),
        "estimation.fit.self.s":
            seconds(self_s["estimation.fit_ml"] + self_s["estimation.fit_reml"]),
        "estimation.build_profile_system.calls_per_dataset":
            count(first["estimation.build_profile_system"], datasets_per_command),
        "likelihood.log_likelihood.s": seconds(total["likelihood.log_likelihood"]),
        "likelihood.score.s": seconds(total["likelihood.score"]),
        "likelihood.score_jacobian.s": seconds(total["likelihood.score_jacobian"]),
        "asymptotics.estimate_moments.s": seconds(total["asymptotics.estimate_moments"]),
        "asymptotics.covariate_limits.s": seconds(total["asymptotics.covariate_limits"]),
        "simulation.run_replications.self.s":
            seconds(self_s["simulation.run_replications"]),
        "trace.overhead.s": {"value": overhead, "unit": "s"},
    }


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class SpeedProbe:
    """A fixed reference kernel, timed between commands to track machine speed.

    The host of this virtual machine changes its speed by up to 1.5x in
    phases of seconds to minutes, which moves whole runs.  The kernel does
    the kind of work nerm does (small numpy arrays in a Python loop over
    clusters) on fixed data, so its time tracks the speed of the moment; it
    never touches nerm, so a change to nerm does not move it.
    """

    REF_SECONDS = 0.08   # the kernel's time at this machine's fast phases

    def __init__(self):
        rng = np.random.default_rng(20261017)
        self.blocks = [rng.normal(size=(m, 2)) for m in rng.integers(2, 9, size=6000)]
        self.times = []

    def probe(self):
        t0 = time.perf_counter()
        acc = 0.0
        for b in self.blocks:
            dev = b - b.mean(axis=0)
            acc += float(dev[:, 0] @ dev[:, 1]) + float(np.all(np.isfinite(b)))
        self.times.append(time.perf_counter() - t0)

    def scale(self, seconds, first):
        """Wall times taken between probes first, first+1, ... rescaled to the
        reference speed by the mean of the two probes around each."""
        p = self.times
        return [t * self.REF_SECONDS / (0.5 * (p[first + i] + p[first + i + 1]))
                for i, t in enumerate(seconds)]


def run(args, import_s):
    from nerm.cli import main as nerm_main

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        speed = SpeedProbe()
        rcs, setups, warm = [], [], []
        speed.probe()
        for k in range(SETUPS):
            t0 = time.perf_counter()
            wl.make_inputs()
            t1 = time.perf_counter()
            rcs.append(nerm_main(wl.command(f"warm{k}")))
            t2 = time.perf_counter()
            speed.probe()
            setups.append(import_s + t2 - t0)
            warm.append(t2 - t1)

        tracer = None
        command = nerm_main
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            command = tracer.wrap(nerm_main, "cli.main")
        cmd_times, roots = [], []
        start = time.perf_counter()
        while True:
            argv = wl.command(len(cmd_times))
            if tracer is not None:
                roots.append(len(tracer.spans))
            t0 = time.perf_counter()
            rcs.append(command(argv))
            cmd_times.append(time.perf_counter() - t0)
            speed.probe()
            if time.perf_counter() - start >= args.seconds:
                break
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        attempted = len(cmd_times) * wl.ops_per_command
        failed = sum(wl.failed(rc, out) for rc, out in zip(rcs[SETUPS:], wl.outputs[SETUPS:]))
        problems = []
        wl.check(rcs, problems, random.Random(f"{args.seed}/sample"))
        if failed and wl.allowed_failure is None:
            problems.append(f"{failed} operations failed on a workload that has none")

        if tracer is not None:
            overhead = statistics.median(speed.scale(cmd_times, SETUPS)) \
                - statistics.median(speed.scale(warm, 0))
            metrics = layer_metrics(tracer, roots, wl.ops_per_command, overhead)
            tracer.write(WORK / f"spans-{args.workload}.jsonl.gz")
        else:
            cmd_scaled = speed.scale(cmd_times, SETUPS)
            metrics = {
                "setup_s": {"value": statistics.median(speed.scale(setups, 0)), "unit": "s"},
                "cmd_s": {"value": statistics.median(cmd_scaled), "unit": "s"},
                "ops_per_s": {"value": attempted / sum(cmd_scaled), "unit": "1/s"},
                "peak_rss_mib": {"value": peak_mib, "unit": "MiB"},
            }
        details = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(), "commands": len(cmd_times),
            "wall_cmd_s": cmd_times, "wall_setup_s": setups,
            "probe_s": speed.times,
            "absent_trace_targets": tracer.absent if tracer else [],
            "problems": problems,
        }
        print(json.dumps(details))
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


if __name__ == "__main__":
    arguments = parse_args()
    try:
        seconds_to_import = load_nerm()
    except ImportError as exc:
        print(f"cannot import nerm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(1)
    sys.exit(run(arguments, seconds_to_import))
