"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and each
printing a single summary line on success (visible with ``pytest -s``;
the per-test PASSED/FAILED line of ``pytest -v`` mirrors it).  The
criteria pin reference values, property checks against independent
oracles, and one timed end-to-end pipeline.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from freemult import (
    Subsystem,
    SystemMap,
    compatibility_defect,
    conjugate,
    decompose,
    direct_sum,
    find_proper_invariant,
    invariance_defect,
    map_residual,
    maximal_invariant,
    pf_eigenpair,
    quotient_system,
)
from freemult.changegen import GeneratorMap, compute_Y, transport_system
from freemult.multfunc import (
    MultiplicativeFunction,
    act,
    norm2,
    norm_via_subtree,
    refine,
)
from freemult.subgroup import complete_D, decompose_left, schreier_subtree
from freemult.system import _member_prefix
from freemult.transport import (
    coset_pairs,
    induce_function,
    induce_system,
    restrict_function,
    restrict_system,
    truncation_subtree,
)
from freemult.words import ball, complete_subtree_of, last_letter, sphere

from .conftest import AB, make_spherical, random_compatible, random_system, random_unitary
from .test_changegen import random_nielsen_map
from .test_decompose import certified_irreducible
from .test_perron import dense_rho_oracle
from .test_transport import random_function


def random_reduced_word(rng, al, length):
    syms = []
    while len(syms) < length:
        c = al.letters[int(rng.integers(len(al.letters)))]
        if syms and c == al.inverse(syms[-1]):
            continue
        syms.append(c)
    return al.word(syms)


def random_complete_subtree(rng, al, radius, grows):
    """A random complete subtree containing the given ball: grow the ball
    by repeatedly attaching all children of a randomly chosen terminal."""
    verts = set(ball(al.identity, radius))
    for _ in range(grows):
        tree = complete_subtree_of(al, verts)
        outer = sorted(
            (v for v in tree.terminals if len(v) > 0), key=lambda v: v.sort_key()
        )
        v = outer[int(rng.integers(len(outer)))]
        banned = al.inverse(last_letter(v))
        for c in al.letters:
            if c != banned:
                verts.add(v * al.word([c]))
    return complete_subtree_of(al, verts)


def test_criterion_01_reference_fixture_compatibility():
    for s in (0.0, 0.3):
        sysm = make_spherical(s)
        defect = compatibility_defect(sysm)
        assert defect <= 1e-12
        rho, forms = pf_eigenpair(sysm)
        assert rho == pytest.approx(1.0, abs=1e-9)
    print("criterion 1 PASS: fixture defect <= 1e-12, leading eigenvalue 1 +- 1e-9")


def test_criterion_02_leading_eigenvalue_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        sysm = random_system(rng, max_dim=3)
        rho, _ = pf_eigenpair(sysm)
        worst = max(worst, abs(rho - dense_rho_oracle(sysm)))
    assert worst <= 1e-8
    print(f"criterion 2 PASS: 50 random systems, worst oracle gap {worst:.2e} <= 1e-8")


def test_criterion_03_generator_change_worked_example(spherical):
    gm = GeneratorMap(AB, AB, {"a": "a", "b": "ab"})
    fronts = {c: set(compute_Y(gm, AB.word(c)).members) for c in AB.letters}
    assert fronts["a"] == {AB.word("a"), AB.word("b")}
    assert fronts["b"] == {AB.word("Ab")}
    assert fronts["A"] == {AB.word("AA"), AB.word("AB")}
    assert fronts["B"] == {AB.word("B")}

    out = transport_system(gm, spherical)
    assert out.dims == {"a": 2, "b": 1, "A": 2, "B": 1}
    assert compatibility_defect(out) <= 1e-8

    # the span of (1, 1) at both two-dimensional letters is invariant and
    # quotienting by it kills every transfer
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    w11 = Subsystem(AB, {"a": v, "A": v, "b": np.eye(1), "B": np.eye(1)})
    assert invariance_defect(out, w11) <= 1e-9
    assert pf_eigenpair(quotient_system(out, w11)[0])[0] == pytest.approx(0.0, abs=1e-9)

    # the maximal invariant subsystem contains that span (maximality asks
    # for an irreducible quotient, so it also absorbs one full letter
    # space); its quotient radius vanishes
    w = maximal_invariant(out)
    for c in AB.letters:
        q = w.basis[c]
        resid = w11.basis[c] - q @ (q.conj().T @ w11.basis[c])
        assert np.linalg.norm(resid) <= 1e-9
    proper = [c for c in AB.letters if w.basis[c].shape[1] < out.dims[c]]
    assert len(proper) == 1 and out.dims[proper[0]] == 2
    col = w.basis[proper[0]][:, 0]
    assert min(abs(col[0] - col[1]), abs(col[0] + col[1])) <= 1e-9
    assert pf_eigenpair(quotient_system(out, w)[0])[0] == pytest.approx(0.0, abs=1e-9)
    print("criterion 3 PASS: exact frontiers, dims (2,1,2,1), invariant span, null quotient")


def test_criterion_04_frontier_partition_identities():
    rng = np.random.default_rng(4)
    for _ in range(10):
        gm = random_nielsen_map(rng)
        fronts = {c: compute_Y(gm, AB.word(c)) for c in AB.letters}
        for a in AB.letters:
            psi_a = gm.spell(AB.word(a))
            for b in AB.letters:
                if b == AB.inverse(a):
                    continue
                lhs = {psi_a * y for y in fronts[b].members}
                rhs = set(compute_Y(gm, AB.word(a) * AB.word(b)).members)
                assert lhs == rhs
            own = [y.data for y in fronts[a].members]
            proj = set()
            for b in AB.letters:
                if b == AB.inverse(a):
                    continue
                for y in fronts[b].members:
                    g = AB.word(a) * gm.expand(y)
                    member, _ = _member_prefix(own, gm.spell(g).data)
                    proj.add(member)
            assert proj == set(own)
    print("criterion 4 PASS: translation and projection-partition identities exact on 10 maps")


def test_criterion_05_norm_identities():
    rng = np.random.default_rng(5)
    worst_refine = worst_tree = 0.0
    for i in range(100):
        sysm = random_compatible(rng, max_dim=2)
        depth = 1 + i % 5
        f = random_function(rng, sysm, depth)
        base = norm2(f)
        worst_refine = max(worst_refine, abs(norm2(refine(f, depth + 1)) - base))
        tree = random_complete_subtree(rng, AB, depth, grows=int(rng.integers(7)))
        worst_tree = max(worst_tree, abs(norm_via_subtree(f, tree) - base))
    assert worst_refine <= 1e-9
    assert worst_tree <= 1e-9
    print(
        f"criterion 5 PASS: 100 pairs, depth-step gap {worst_refine:.2e}, "
        f"subtree gap {worst_tree:.2e} <= 1e-9"
    )


def test_criterion_06_translation_unitarity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(100):
        sysm = random_compatible(rng, max_dim=2)
        f = random_function(rng, sysm, 1 + i % 2)
        x = random_reduced_word(rng, AB, i % 5)
        worst = max(worst, abs(norm2(act(x, f)) - norm2(f)))
    assert worst <= 1e-9
    print(f"criterion 6 PASS: 100 random translations, worst norm gap {worst:.2e} <= 1e-9")


def criterion_7_sums():
    """The hidden direct sums of criterion 7, as ``(pieces, hidden)``:
    three of 2-3 inequivalent certified irreducibles, then two
    one-dimensional spherical systems with different parameters."""
    rng = np.random.default_rng(7)
    sums = []
    for n_parts in (2, 3, 2):
        # pairwise-distinct dimension vectors guarantee inequivalence
        pieces = []
        while len(pieces) < n_parts:
            cand = certified_irreducible(rng, max_dim=2)
            if all(cand.dims != p.dims for p in pieces):
                pieces.append(cand)
        total = pieces[0]
        for p in pieces[1:]:
            total = direct_sum(total, p)
        hidden = conjugate(
            total,
            SystemMap(AB, {a: random_unitary(rng, total.dims[a]) for a in AB.letters}),
        )
        sums.append((pieces, hidden))
    # same-dimension inequivalent summands split as well
    pieces = [make_spherical(0.0), make_spherical(0.35)]
    J = SystemMap(AB, {a: random_unitary(rng, 2) for a in AB.letters})
    sums.append((pieces, conjugate(direct_sum(*pieces), J)))
    return sums


def test_criterion_07_decomposition_round_trip():
    sums = criterion_7_sums()
    for pieces, hidden in sums:
        parts = decompose(hidden)
        got = Counter(tuple(sorted(c.dims.items())) for c, _ in parts)
        want = Counter(tuple(sorted(p.dims.items())) for p in pieces)
        assert got == want
        for comp, emb in parts:
            assert compatibility_defect(comp) <= 1e-8
            assert find_proper_invariant(comp) is None
            assert map_residual(comp, hidden, emb) <= 1e-6
    print(
        f"criterion 7 PASS: {len(sums)} hidden direct sums recovered, "
        f"components certified irreducible"
    )


def test_criterion_08_coset_machinery(index2_automaton, index3_automaton):
    for aut, index in ((index2_automaton, 2), (index3_automaton, 3)):
        fs = schreier_subtree(aut)
        assert len(fs.reps) == index == aut.size
        sub = fs.subgroup_alphabet
        assert len(sub.letters) // 2 == 1 + index * (len(AB.letters) // 2 - 1)

        tree = complete_D(fs)
        assert tree.is_complete
        assert tree.interior == frozenset(fs.reps)
        assert tree.terminals == frozenset(fs.contact.values())

        for v in ball(AB.identity, 6):
            hits = [u for u in fs.reps if aut.contains(v * u.inverse())]
            assert len(hits) == 1
            spelling, gamma, u = decompose_left(fs, v)
            assert u == hits[0]
            assert gamma * u == v
            assert fs.expand(spelling) == gamma
    print("criterion 8 PASS: domain size, rank identity, completion, disjoint cover of ball(e,6)")


def test_criterion_09_transport_intertwiners(index2_automaton, index3_automaton, spherical):
    rng = np.random.default_rng(9)
    worst_res = worst_ind = 0.0
    for aut in (index2_automaton, index3_automaton):
        fs = schreier_subtree(aut)
        index = len(fs.reps)
        ambient = random_compatible(rng, max_dim=2)
        for sysm in (spherical, ambient):
            rsys = restrict_system(fs, sysm, tol=1e-8)
            assert compatibility_defect(rsys) <= 1e-8
            isys = induce_system(fs, rsys, tol=1e-8)
            assert compatibility_defect(isys) <= 1e-8
            assert sum(isys.dims.values()) == index * sum(rsys.dims.values())
            for a in AB.letters:
                assert isys.dims[a] == sum(rsys.dims[c] for _, c in coset_pairs(fs, a))

        # restriction intertwiner: 10 random functions per fixture
        rsys = restrict_system(fs, ambient)
        for i in range(10):
            f = random_function(rng, ambient, 1 + i % 2)
            rf = restrict_function(fs, ambient, f, restricted=rsys)
            worst_res = max(worst_res, abs(norm2(rf) - norm2(f)) / (1 + norm2(f)))

        # induction intertwiner: 10 random families per fixture; the
        # cover certificate guarantees the reduced output depth is valid
        isys = induce_system(fs, rsys)
        for u in fs.reps:
            truncation_subtree(fs, u, 3, cover=1)
        for _ in range(10):
            family = {u: random_function(rng, rsys, 1) for u in fs.reps}
            uf = induce_function(fs, rsys, family, induced=isys, depth=4)
            target = sum(norm2(g) for g in family.values())
            worst_ind = max(worst_ind, abs(norm2(uf) - target) / (1 + target))
    assert worst_res <= 1e-8
    assert worst_ind <= 1e-8

    # truncation footprints: terminals recomputed from the sample words
    fs = schreier_subtree(index2_automaton)
    for member in fs.reps:
        for depth, counts in ((1, (22, 18)), (2, (67, 54))):
            tree = truncation_subtree(fs, member, depth)
            if member == AB.identity:
                assert (len(tree), len(tree.terminals)) == counts
            expected = set()
            for x in sphere(AB, depth):
                banned = AB.inverse(last_letter(x))
                for a in AB.letters:
                    if a == banned:
                        continue
                    for u, c in coset_pairs(fs, a):
                        lam = member * x * u.inverse()
                        if not fs.automaton.contains(lam):
                            continue
                        spelling, _, rem = decompose_left(fs, lam * fs.gamma_of[c])
                        assert rem == AB.identity
                        expected.add(spelling)
            assert tree.terminals == frozenset(expected)
    print(
        f"criterion 9 PASS: defects and dimension law exact, norm gaps "
        f"restrict {worst_res:.2e} / induce {worst_ind:.2e} <= 1e-8, terminals exact"
    )


def test_criterion_10_end_to_end(index2_automaton, spherical):
    start = time.monotonic()
    fs = schreier_subtree(index2_automaton)
    rsys = restrict_system(fs, spherical, tol=1e-8)
    assert compatibility_defect(rsys) <= 1e-8
    isys = induce_system(fs, rsys, tol=1e-8)
    assert compatibility_defect(isys) <= 1e-8
    assert sum(isys.dims.values()) == 2 * sum(rsys.dims.values()) == 12
    parts = decompose(isys)
    assert len(parts) == 2
    for comp, emb in parts:
        assert compatibility_defect(comp) <= 1e-8
        assert comp.dims == {a: 1 for a in AB.letters}
        assert pf_eigenpair(comp)[0] == pytest.approx(1.0, abs=1e-9)
        assert map_residual(comp, isys, emb) <= 1e-7
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        f"criterion 10 PASS: restrict -> induce -> decompose gave two "
        f"one-dimensional components in {elapsed:.2f}s <= 60s"
    )
