"""The three benchmark workloads.

Each workload is one operation recipe at fixed sizes.  ``inputs(i)``
builds the inputs of operation ``i`` from the workload seed (untimed),
``run`` is the timed operation and calls the package only through the
``freemult`` module attributes (so the traced run sees every call), and
``check`` verifies the outputs with ``oracles`` and returns a list of
problems.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import freemult as fm
from freemult import Alphabet

import oracles as ora

AB = Alphabet("aAbB")

# Rank-2 generator changes whose longest image has length 3, replayed in
# this order.  Their frontier searches each cost within 4% of 2.8M kernel
# multiplications, while over 102 maps of this class the cost ranges from
# 2.3M to 8.7M, so every operation is about the same size.
CHANGEGEN_MAPS = (
    {"a": "ab", "b": "bab"},
    {"a": "ab", "b": "aba"},
    {"a": "aB", "b": "aBB"},
    {"a": "b", "b": "bbA"},
    {"a": "ab", "b": "aab"},
    {"a": "aB", "b": "aaB"},
    {"a": "ab", "b": "BAA"},
    {"a": "aB", "b": "aBa"},
)


class Workload:
    """Seeded input streams shared by the three recipes below, which each
    define ``inputs``, ``run`` and ``check``."""

    name = ""

    def __init__(self, seed: int, warm: bool = False):
        self.seed = seed
        # The warm-up draws its inputs from its own stream.
        self.stream = 1 if warm else 0

    def rng(self, i: int, purpose: int = 0) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream, i, purpose])


def _rel(problems: list[str], what: str, got, want, scale: float, tol: float) -> None:
    g = ora.gap(got, want, scale)
    if not g <= tol:
        problems.append(f"{what}: relative gap {g:.3e} > {tol:g}")


def _bound(problems: list[str], what: str, value: float, tol: float) -> None:
    if not value <= tol:
        problems.append(f"{what}: {value:.3e} > {tol:g}")


class Changegen(Workload):
    """Fresh generator map, transported system, two transported functions."""

    name = "changegen"

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        # A stretch-2 change exercises the same code in a few milliseconds.
        self.maps = ({"a": "a", "b": "ab"},) if warm else CHANGEGEN_MAPS

    def inputs(self, i):
        rng = self.rng(i)
        sys = ora.random_compatible(rng, AB, 2)
        return {
            "images": self.maps[i % len(self.maps)],
            "sys": sys,
            "f": ora.random_function(rng, sys, 2),
            "g": ora.random_function(rng, sys, 2),
        }

    def run(self, inp):
        sys = inp["sys"]
        gm = fm.GeneratorMap(AB, AB, inp["images"])
        moved = fm.transport_system(gm, sys)
        tf = fm.intertwine_changegen(gm, sys, inp["f"], transported=moved)
        tg = fm.intertwine_changegen(gm, sys, inp["g"], transported=moved)
        fronts = {a: fm.compute_Y(gm, AB.word(a)).members for a in AB.letters}
        return {"moved": moved, "tf": tf, "tg": tg, "fronts": fronts}

    def check(self, i, inp, out):
        problems = ora.frontier_problems(AB, inp["images"], out["fronts"])
        _bound(problems, "transported defect", ora.defect(out["moved"]), 1e-8)
        f, g, tf, tg = inp["f"], inp["g"], out["tf"], out["tg"]
        nf, ng = ora.pairing(f, f).real, ora.pairing(g, g).real
        _rel(problems, "<Tf,Tf>", ora.pairing(tf, tf), nf, nf, 1e-9)
        _rel(problems, "<Tf,Tg>", ora.pairing(tf, tg), ora.pairing(f, g), (nf * ng) ** 0.5, 1e-9)
        return problems


class Spectral(Workload):
    """Normalization across a dimension sweep, then hidden direct sums."""

    name = "spectral"

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        # dims per letter of the systems normalized by one operation
        self.sweep = (2, 3) if warm else (2, 3, 4, 5, 6, 8, 12)
        # number of planted summands of each decomposed system
        self.pieces = (2,) if warm else (2, 3, 2, 3)

    def inputs(self, i):
        rng = self.rng(i)
        sweep = [ora.random_system(rng, AB, {a: d for a in AB.letters}) for d in self.sweep]
        hidden = []
        for n in self.pieces:
            pieces = []
            while len(pieces) < n:
                cand = ora.random_compatible(rng, AB, 3)
                if all(cand.dims != p.dims for p in pieces) and ora.certified_irreducible(cand):
                    pieces.append(cand)
            hidden.append((pieces, ora.disguise(rng, ora.block_sum(pieces))))
        return {"sweep": sweep, "hidden": hidden}

    def run(self, inp):
        return {
            "normalized": [fm.normalize_to_compatible(s) for s in inp["sweep"]],
            "parts": [fm.decompose(h) for _, h in inp["hidden"]],
        }

    def check(self, i, inp, out):
        problems: list[str] = []
        for s, (norm, rho) in zip(inp["sweep"], out["normalized"]):
            d = s.dims["a"]
            want = ora.kron_rho(s)
            _rel(problems, f"rho at {d} dims", rho, want, want, 1e-8)
            _bound(problems, f"normalized defect at {d} dims", ora.defect(norm), 1e-8)
        for (pieces, hidden), parts in zip(inp["hidden"], out["parts"]):
            want = Counter(tuple(sorted(p.dims.items())) for p in pieces)
            got = Counter(tuple(sorted(c.dims.items())) for c, _ in parts)
            if got != want:
                problems.append(f"decompose dims {sorted(got)} != planted {sorted(want)}")
            for comp, emb in parts:
                _bound(problems, "component defect", ora.defect(comp), 1e-8)
                _bound(problems, "embedding residual", ora.residual(comp, hidden, emb), 1e-6)
            short = ora.unspanned_letters(hidden, [emb for _, emb in parts])
            if short:
                problems.append(f"components do not span the system at letters {short}")
        return problems


class Functions(Workload):
    """Translation, restriction and induction of multiplicative functions."""

    name = "functions"

    def __init__(self, seed: int, warm: bool = False):
        super().__init__(seed, warm)
        self.fs2 = fm.schreier_subtree(fm.automaton_from_generators(AB, ["aa", "b", "aba"]))
        self.fs3 = fm.schreier_subtree(
            fm.CosetAutomaton(
                AB,
                {"a": [1, 0, 2], "A": [1, 0, 2], "b": [2, 1, 0], "B": [2, 1, 0]},
                size=3,
            )
        )
        # translating word length, restriction depth, induction depth
        self.word_len, self.restrict_depth, self.induce_depth = (
            (1, 2, 3) if warm else (4, 5, 6)
        )

    def inputs(self, i):
        rng = self.rng(i)
        sys = ora.random_compatible(rng, AB, 2)
        sub = ora.random_compatible(rng, self.fs2.subgroup_alphabet, 2)
        return {
            "sys": sys,
            "f": ora.random_function(rng, sys, 2),
            "g": ora.random_function(rng, sys, 2, support=3),
            "x": ora.random_word(rng, AB, self.word_len),
            "sub": sub,
            "fam_f": {u: ora.random_function(rng, sub, 1) for u in self.fs2.reps},
            "fam_g": {u: ora.random_function(rng, sub, 1) for u in self.fs2.reps},
        }

    def run(self, inp):
        sys, f, g, x = inp["sys"], inp["f"], inp["g"], inp["x"]
        tf = fm.act(x, f)
        tg = fm.act(x, g)
        r3 = fm.restrict_system(self.fs3, sys)
        i2 = fm.induce_system(self.fs2, inp["sub"])
        return {
            "tf": tf,
            "tg": tg,
            "ip": fm.inner_product(tf, tg),
            "r3": r3,
            "rf": fm.restrict_function(self.fs3, sys, f, restricted=r3, depth=self.restrict_depth),
            "i2": i2,
            "if": fm.induce_function(
                self.fs2, inp["sub"], inp["fam_f"], induced=i2, depth=self.induce_depth
            ),
        }

    def check(self, i, inp, out):
        problems: list[str] = []
        sys, f, g, x = inp["sys"], inp["f"], inp["g"], inp["x"]
        nf, ng = ora.pairing(f, f).real, ora.pairing(g, g).real
        fg, scale = ora.pairing(f, g), (nf * ng) ** 0.5

        # translation: sampled values against f(x^-1 z), then norms
        tf = out["tf"]
        rng = self.rng(i, purpose=1)
        support = sorted(tf.values, key=lambda w: w.sort_key())
        picks = [support[int(k)] for k in rng.choice(len(support), size=min(8, len(support)), replace=False)]
        picks += [ora.random_word(rng, AB, tf.depth) for _ in range(8)]
        xinv = tuple(AB.inverse(c) for c in reversed(x.letters()))
        for z in picks:
            want = ora.value_at(f, ora.free_reduce(AB, xinv + z.letters()))
            got = tf.values.get(z, np.zeros_like(want))
            if not np.linalg.norm(got - want) <= 1e-9 * max(1.0, np.linalg.norm(want)):
                problems.append(f"act value at {z} differs from f(x^-1 z)")
        _rel(problems, "act <Tf,Tf>", ora.pairing(tf, tf), nf, nf, 1e-8)
        _rel(problems, "act <Tf,Tg>", ora.pairing(tf, out["tg"]), fg, scale, 1e-8)
        _rel(problems, "inner_product(Tf,Tg)", out["ip"], fg, scale, 1e-8)

        # restriction to the index-3 subgroup
        rf = out["rf"]
        rg = fm.restrict_function(self.fs3, sys, g, restricted=out["r3"], depth=rf.depth)
        _bound(problems, "restricted defect", ora.defect(out["r3"]), 1e-8)
        _rel(problems, "restrict <Rf,Rf>", ora.pairing(rf, rf), nf, nf, 1e-8)
        _rel(problems, "restrict <Rf,Rg>", ora.pairing(rf, rg), fg, scale, 1e-8)

        # induction from the index-2 subgroup
        fam_f, fam_g = inp["fam_f"], inp["fam_g"]
        uf = out["if"]
        ug = fm.induce_function(
            self.fs2, inp["sub"], fam_g, induced=out["i2"], depth=uf.depth
        )
        mf = sum(ora.pairing(h, h).real for h in fam_f.values())
        mg = sum(ora.pairing(h, h).real for h in fam_g.values())
        mfg = sum(ora.pairing(fam_f[u], fam_g[u]) for u in fam_f)
        _bound(problems, "induced defect", ora.defect(out["i2"]), 1e-8)
        _rel(problems, "induce <If,If>", ora.pairing(uf, uf), mf, mf, 1e-8)
        _rel(problems, "induce <If,Ig>", ora.pairing(uf, ug), mfg, (mf * mg) ** 0.5, 1e-8)
        return problems


WORKLOADS = {w.name: w for w in (Changegen, Spectral, Functions)}
