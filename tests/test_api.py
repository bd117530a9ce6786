"""Guard on the public API: no function takes both a dataset and its
sufficient statistics.

The statistics are cached on the dataset (``sufficient_stats(ds)``), so a
signature with both ``ds`` and ``stats`` lets a caller pass a mismatched
pair.  Functions that need rows take the dataset alone and read its
statistics; the others take the statistics alone.
"""

import importlib
import inspect
import pkgutil

import nerm


def _public_callables():
    """(qualified name, callable) for every name in a nerm module's
    ``__all__``, with the methods of exported classes."""
    for info in pkgutil.iter_modules(nerm.__path__):
        module = importlib.import_module(f"nerm.{info.name}")
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_signature_takes_both_dataset_and_statistics():
    seen, offenders = set(), []
    for qualname, fn in _public_callables():
        seen.add(qualname)
        if {"ds", "stats"} <= set(inspect.signature(fn).parameters):
            offenders.append(qualname)
    assert "nerm.asymptotics.CovariateLimits.from_dataset" in seen
    assert "nerm.likelihood.log_likelihood" in seen
    assert offenders == []
