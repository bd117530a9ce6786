"""Guards on the public API.

No function takes both a dataset and its sufficient statistics.  The
statistics are cached on the dataset (``sufficient_stats(ds)``), so a
signature with both ``ds`` and ``stats`` lets a caller pass a mismatched
pair.  Functions that need rows take the dataset alone and read its
statistics; the others take the statistics alone.

Nothing is exported that only the tests use.  Every public name has a
caller in the library itself, or is one of the documented entry points
listed in the README; so has every public method and property of an
exported class, read as an attribute.  The README's library session runs
as written, so it names no function the library has dropped.
"""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

import nerm
from nerm.cli import write_dataset_csv
from nerm.model import ParameterVector
from nerm.simulation import SimConfig, generate_dataset

# Public names the library never calls itself: what a user or a script
# starts from.  The README names the same list.
ENTRY_POINTS = {"fit_ml", "fit_reml", "profile_beta", "generate_dataset",
                "write_dataset_csv", "main"}


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
    assert "nerm.asymptotics.CovariateLimits.from_datasets" in seen
    assert "nerm.likelihood.likelihood_batch" in seen
    assert offenders == []


def _public_names():
    """(module, name) for every name in ``nerm.__all__`` and in the
    ``__all__`` of each nerm module, submodules themselves left out."""
    modules = [nerm] + [importlib.import_module(f"nerm.{info.name}")
                        for info in pkgutil.iter_modules(nerm.__path__)]
    for module in modules:
        for name in module.__all__:
            if not inspect.ismodule(getattr(module, name)):
                yield module.__name__, name


def _names_used_in_the_library():
    """(bare names, attributes) the package's modules read, apart from
    ``__init__.py``; definitions, imports and strings are not reads."""
    names, attributes = set(), set()
    for path in Path(nerm.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    exported = set(_public_names())
    assert ENTRY_POINTS <= {name for _, name in exported}
    names, attributes = _names_used_in_the_library()
    used = names | attributes
    unused = sorted(f"{module}.{name}" for module, name in exported
                    if name not in used and name not in ENTRY_POINTS)
    assert unused == []


MEMBER_KINDS = (property, functools.cached_property, classmethod,
                staticmethod, types.FunctionType)


def test_every_public_member_has_a_caller_or_is_an_entry_point():
    # only attribute reads count: a local variable that shares a method's
    # name is no call of the method
    members = set()
    for module, name in _public_names():
        cls = getattr(importlib.import_module(module), name)
        if inspect.isclass(cls):
            members |= {(f"{cls.__module__}.{name}", attr)
                        for attr, raw in vars(cls).items()
                        if not attr.startswith("_")
                        and isinstance(raw, MEMBER_KINDS)}
    assert ("nerm.model.ParameterVector", "flatten") in members
    _, attributes = _names_used_in_the_library()
    unused = sorted(f"{owner}.{attr}" for owner, attr in members
                    if attr not in attributes and attr not in ENTRY_POINTS)
    assert unused == []


def test_the_readme_library_session_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    cfg = SimConfig(g=20, cluster_sizes=4, seed=3,
                    true_omega=ParameterVector(0.0, [], 1.0, [], 1.0))
    monkeypatch.chdir(tmp_path)
    write_dataset_csv(generate_dataset(cfg), "data.csv")
    exec(compile(block, "README.md", "exec"), {})
    assert "sigma_alpha_sq" in capsys.readouterr().out
