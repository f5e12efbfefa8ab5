"""Every numeric threshold of the package lives in ``freemult.tolerances``.

The check parses each other module of the package: a float literal with
``0 < |x| < 1e-3`` is a threshold outside the policy, and importing another
module's private upper-case constant shares a threshold past the policy.
Private helper functions such as ``_transfer`` may still be imported.  A
threshold that no other module reads is dead, so removing the last code
that compares against a threshold removes the threshold too.
"""

import ast
import re
from pathlib import Path

import freemult

PACKAGE = Path(freemult.__file__).parent
PRIVATE_CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def policy_breaches(source: str) -> tuple[list[str], list[str]]:
    """The small float literals and the imported private constants in one
    module's source."""
    floats, imports = [], []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and 0 < abs(node.value) < 1e-3
        ):
            floats.append(f"line {node.lineno}: {node.value!r}")
        elif isinstance(node, ast.ImportFrom):
            imports.extend(
                f"line {node.lineno}: {alias.name}"
                for alias in node.names
                if PRIVATE_CONSTANT.fullmatch(alias.name)
            )
    return floats, imports


def unread_thresholds(policy: str, sources: list[str]) -> list[str]:
    """The names that the policy module assigns and that no identifier,
    imported name or attribute in the other sources reads."""
    assigned = [
        target.id
        for node in ast.parse(policy).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    ]
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [name for name in assigned if name not in read]


def test_thresholds_live_in_one_module():
    floats, imports = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        f, i = policy_breaches(path.read_text(encoding="utf-8"))
        floats += [f"{path.name} {hit}" for hit in f]
        imports += [f"{path.name} {hit}" for hit in i]
    assert not floats, "thresholds outside freemult.tolerances: " + ", ".join(floats)
    assert not imports, "private constants imported: " + ", ".join(imports)


def test_every_threshold_is_read():
    sources = [
        path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
    ]
    policy = (PACKAGE / "tolerances.py").read_text(encoding="utf-8")
    unread = unread_thresholds(policy, sources)
    assert not unread, "thresholds no module reads: " + ", ".join(unread)


def test_policy_check_flags_literals_and_private_constants():
    source = (
        "from .perron import _VANISH_RTOL, _transfer, pf_eigenpair\n"
        "def f(x, tol=1e-9):\n"
        "    return x > -2.5e-4 and x < 0.5 and x != 0.0 and x < 1.0\n"
    )
    floats, imports = policy_breaches(source)
    assert floats == ["line 2: 1e-09", "line 3: 0.00025"]
    assert imports == ["line 1: _VANISH_RTOL"]


def test_unread_check_flags_dead_thresholds():
    policy = "A_TOL = 1e-9\nB_TOL = 10 * A_TOL\nC_TOL = 1e-8\nD_TOL = 1e-7\n"
    sources = [
        "from .tolerances import B_TOL\n",
        "from . import tolerances\ndef f(x):\n    return x < tolerances.D_TOL\n",
    ]
    # A_TOL is read only inside the policy module itself
    assert unread_thresholds(policy, sources) == ["A_TOL", "C_TOL"]
