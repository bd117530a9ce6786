"""Spans around the public functions nerm's modules call, recorded from outside.

Each target is a name bound in one nerm module; the wrapper replaces that
binding, so a call made through it records (name, start, end, parent).
Spans stay in memory until :meth:`Tracer.write`.  A target a later change
removes is listed in ``Tracer.absent`` and simply yields no spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# (module, bound name, span name).  "Class.method" wraps a classmethod on the
# class object, which every module that imports the class shares.
TARGETS = [
    ("nerm.cli", "read_dataset_csv", "cli.read_dataset_csv"),
    ("nerm.cli", "write_replicates_csv", "cli.write_replicates_csv"),
    ("nerm.cli", "validate_dataset", "model.validate_dataset"),
    ("nerm.cli", "sufficient_stats", "model.sufficient_stats"),
    ("nerm.cli", "fit_ml", "estimation.fit_ml"),
    ("nerm.cli", "fit_reml", "estimation.fit_reml"),
    ("nerm.cli", "estimate_moments", "asymptotics.estimate_moments"),
    ("nerm.cli", "confidence_intervals", "asymptotics.confidence_intervals"),
    ("nerm.cli", "run_replications", "simulation.run_replications"),
    ("nerm.estimation", "validate_dataset", "model.validate_dataset"),
    ("nerm.estimation", "sufficient_stats", "model.sufficient_stats"),
    ("nerm.estimation", "build_profile_system", "estimation.build_profile_system"),
    ("nerm.estimation", "log_likelihood", "likelihood.log_likelihood"),
    ("nerm.estimation", "score", "likelihood.score"),
    ("nerm.estimation", "score_jacobian", "likelihood.score_jacobian"),
    ("nerm.asymptotics", "build_profile_system", "estimation.build_profile_system"),
    ("nerm.asymptotics", "CovariateLimits.from_dataset", "asymptotics.covariate_limits"),
    ("nerm.simulation", "sufficient_stats", "model.sufficient_stats"),
    ("nerm.simulation", "fit_ml", "estimation.fit_ml"),
    ("nerm.simulation", "fit_reml", "estimation.fit_reml"),
    ("nerm.simulation", "estimate_moments", "asymptotics.estimate_moments"),
    ("nerm.simulation", "confidence_intervals", "asymptotics.confidence_intervals"),
]


class Tracer:
    """Records nested spans; one thread, so a stack gives each span its parent."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.absent = []
        self._stack = []
        self._undo = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def install(self):
        for module, attr, name in TARGETS:
            owner = importlib.import_module(module)
            *path, method = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(method) if owner is not None else None
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            elif callable(raw):
                new = self.wrap(raw, name)
            else:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, method, new)
            self._undo.append((owner, method, raw))

    def uninstall(self):
        for owner, method, raw in reversed(self._undo):
            setattr(owner, method, raw)
        self._undo.clear()

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def summarize(spans, lo=0, hi=None):
    """Per span name over spans[lo:hi]: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which do not overlap on one thread.
    """
    hi = len(spans) if hi is None else hi
    child = defaultdict(float)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i in range(lo, hi):
        name, start, end, _ = spans[i]
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    return calls, total, self_s
