"""The benchmark's tracing hooks name package attributes that exist.

``perfbench/tracing.py`` patches wrappers into the package by name, so a
rename under ``src/`` breaks it without failing any other test.  The module
is imported here without installing it: every ``SPANS`` target and every
attribute of a package module named in ``Tracer.install`` (the counter
targets) must resolve to an attribute of the package.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _in_package(obj) -> bool:
    if isinstance(obj, types.ModuleType):
        return obj.__name__.startswith("freemult")
    return getattr(obj, "__module__", "").startswith("freemult")


def test_span_targets_resolve(tracing):
    for name, (mod, attr) in tracing.SPANS.items():
        assert _in_package(mod), name
        target = getattr(mod, attr, None)
        assert callable(target) and _in_package(target), name


def _chains(tree: ast.AST):
    """Every dotted name ``base.attr...`` read or written in ``tree``, as
    the base name and the attributes in order."""
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name):
            yield node.id, parts[::-1]


def test_counter_targets_resolve(tracing):
    install = ast.parse(inspect.getsource(tracing.Tracer.install).lstrip())
    # ``k`` is the local alias of the word kernel inside ``install``.
    names = {
        n: v
        for n, v in vars(tracing).items()
        if isinstance(v, types.ModuleType) and _in_package(v)
    }
    names["k"] = tracing.words._k
    seen = 0
    for base, attrs in _chains(install):
        if base not in names:
            continue
        obj = names[base]
        for attr in attrs:
            assert hasattr(obj, attr), f"{base}.{'.'.join(attrs)}"
            obj = getattr(obj, attr)
        seen += 1
    assert seen >= 8
