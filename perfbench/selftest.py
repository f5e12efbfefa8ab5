"""Self-test of the benchmark's output checks; runs in a few seconds.

Each check must accept a genuine output and reject a deliberately
corrupted one.  The operations run at the small warm-up sizes.

Usage (from the repository root):

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np

from freemult import MatrixSystem, MultiplicativeFunction, SystemMap

import oracles as ora
from workloads import AB, Changegen, Functions, Spectral


class SelfTestError(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SelfTestError(what)


def rejects(wl, inp: dict, out: dict, what: str, **changes) -> None:
    bad = dict(out, **changes)
    problems = wl.check(0, inp, bad)
    expect(bool(problems), f"{wl.name} check accepted {what}")
    print(f"  {wl.name}: rejects {what} ({problems[0].splitlines()[0]})")


def scaled_value(f: MultiplicativeFunction, factor: float) -> MultiplicativeFunction:
    """``f`` with its first stored value multiplied by ``factor``."""
    values = dict(f.values)
    w = min(values, key=lambda v: v.sort_key())
    values[w] = values[w] * factor
    return MultiplicativeFunction(f.system, f.depth, values)


def rotated(f: MultiplicativeFunction) -> MultiplicativeFunction:
    """``f`` times a unit phase: same norm, different values."""
    return MultiplicativeFunction(f.system, f.depth, {w: 1j * v for w, v in f.values.items()})


def with_form(sys: MatrixSystem, factor: float) -> MatrixSystem:
    """``sys`` with the form at its first letter scaled."""
    a = sys.alphabet.letters[0]
    B = {c: sys.B(c) * (factor if c == a else 1.0) for c in sys.alphabet.letters}
    return sys.with_forms(B)


def genuine(wl):
    inp = wl.inputs(0)
    out = wl.run(inp)
    problems = wl.check(0, inp, out)
    expect(not problems, f"{wl.name} check rejected a genuine output: {problems}")
    print(f"  {wl.name}: accepts the genuine output")
    return inp, out


def test_frontiers() -> None:
    # The worked change a -> a, b -> ab: frontiers listed in the package's
    # acceptance criterion 3.
    w = AB.word
    images = {"a": "a", "b": "ab"}
    fronts = {"a": (w("a"), w("b")), "b": (w("Ab"),), "A": (w("AA"), w("AB")), "B": (w("B"),)}
    expect(not ora.frontier_problems(AB, images, fronts), "true frontiers rejected")
    bad = [
        ("a missing member", dict(fronts, a=(w("a"),))),
        ("a non-minimal member", dict(fronts, A=(w("AA"), w("ABa"), w("ABA"), w("ABb")))),
        ("a member under the wrong letter", dict(fronts, b=(w("B"),), B=(w("Ab"),))),
        ("a member and its parent", dict(fronts, b=(w("Ab"), w("A")))),
    ]
    for what, f in bad:
        expect(bool(ora.frontier_problems(AB, images, f)), f"frontier check accepted {what}")
        print(f"  frontiers: rejects {what}")


def test_irreducibility() -> None:
    rng = np.random.default_rng(0)
    v = ora.random_compatible(rng, AB, 2)
    w = ora.random_compatible(rng, AB, 2)
    expect(ora.certified_irreducible(v), "generic system not certified irreducible")
    for what, s in (
        ("V+W", ora.block_sum([v, w])),
        ("V+V disguised", ora.disguise(rng, ora.block_sum([v, v]))),
    ):
        expect(not ora.certified_irreducible(s), f"irreducibility certified for {what}")
        print(f"  irreducibility: rejects {what}")


def test_changegen() -> None:
    wl = Changegen(0, warm=True)
    inp, out = genuine(wl)
    rejects(wl, inp, out, "a changed transported function", tf=scaled_value(out["tf"], 1.01))
    rejects(wl, inp, out, "an incompatible transported system", moved=with_form(out["moved"], 1.01))
    fronts = dict(out["fronts"], a=out["fronts"]["a"][1:])
    rejects(wl, inp, out, "a frontier missing a member", fronts=fronts)


def test_spectral() -> None:
    wl = Spectral(0, warm=True)
    inp, out = genuine(wl)
    norm = list(out["normalized"])
    s, rho = norm[0]
    rejects(wl, inp, out, "a wrong spectral radius", normalized=[(s, rho * (1 + 1e-6))] + norm[1:])
    rejects(wl, inp, out, "an incompatible normalization", normalized=[(with_form(s, 1.01), rho)] + norm[1:])
    parts = out["parts"][0]
    rejects(wl, inp, out, "a missing component", parts=[parts[1:]])
    comp, emb = parts[0]
    tilted = SystemMap(AB, {a: emb[a] * (1.01 if a == "a" else 1.0) for a in AB.letters})
    rejects(wl, inp, out, "a non-intertwining embedding", parts=[[(comp, tilted)] + parts[1:]])
    zero = SystemMap(AB, {a: np.zeros_like(emb[a]) for a in AB.letters})
    rejects(wl, inp, out, "a zero embedding", parts=[[(comp, zero)] + parts[1:]])


def test_functions() -> None:
    wl = Functions(0, warm=True)
    inp, out = genuine(wl)
    rejects(wl, inp, out, "a changed translated function", tf=scaled_value(out["tf"], 1.01))
    rejects(wl, inp, out, "a phase-rotated translated function", tf=rotated(out["tf"]))
    rejects(wl, inp, out, "a wrong inner product", ip=out["ip"] + 1e-3 * abs(out["ip"]) + 1e-3)
    rejects(wl, inp, out, "a changed restricted function", rf=scaled_value(out["rf"], 1.01))
    rejects(wl, inp, out, "a changed induced function", **{"if": scaled_value(out["if"], 1.01)})
    rejects(wl, inp, out, "an incompatible restricted system", r3=with_form(out["r3"], 1.01))


def main() -> int:
    for test in (test_frontiers, test_irreducibility, test_changegen, test_spectral, test_functions):
        print(test.__name__)
        try:
            test()
        except SelfTestError as exc:
            print(f"FAIL: {exc}")
            return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
