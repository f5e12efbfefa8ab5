"""Restriction and induction across finite-index subgroups.

Reference values for the index-two subgroup generated by aa, b, aba are
checked exactly; the structural laws (coset-pair partition, dimension
bookkeeping, norm preservation of both intertwiners, the dual-route
terminal characterization of truncation footprints) are checked on both
fixtures and on random compatible systems.
"""

from __future__ import annotations

import sys as _sys

import numpy as np
import pytest

from freemult.changegen import GeneratorMap, YFrontier, compute_Y, transport_system
from freemult.errors import InputError, InternalCheckError, ValidationError
from freemult.multfunc import (
    MultiplicativeFunction,
    evaluate,
    functions_close,
    inner_product,
    norm2,
    shadow,
)
from freemult.perron import pf_eigenpair
from freemult.subgroup import decompose_left, schreier_subtree
from freemult.system import (
    MatrixSystem,
    _assembled,
    _blockdiag,
    _member_prefix,
    compatibility_defect,
)
from freemult.transport import (
    coset_pairs,
    induce_function,
    induce_system,
    restrict_function,
    restrict_system,
    truncation_subtree,
)
from freemult.words import Word, _letter_table, ball, drop_last, last_letter, sphere

from .conftest import AB, make_spherical, random_compatible
from .test_function_transport_oracle import CHANGEGEN_MAPS

H3 = 3.0 ** -0.5


@pytest.fixture
def fs2(index2_automaton):
    return schreier_subtree(index2_automaton)


@pytest.fixture
def fs3(index3_automaton):
    return schreier_subtree(index3_automaton)


def random_function(rng, sys, depth):
    values = {}
    for y in sphere(sys.alphabet, depth):
        d = sys.dims[last_letter(y)]
        values[y] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultiplicativeFunction(sys, depth, values)


# ---------------------------------------------------------------- restriction


def test_restricted_spherical_reference(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    sub = fs2.subgroup_alphabet
    assert sub.letters == ("g1", "G1", "g2", "G2", "g3", "G3")
    assert rsys.dims == {c: 1 for c in sub.letters}
    assert compatibility_defect(rsys) <= 1e-12
    for c in sub.letters:
        assert rsys.B(c) == pytest.approx(np.array([[0.25]]))

    # paths of length two contribute h^2 = 1/3, paths of length one h
    assert rsys.H("g2", "g1") == pytest.approx(np.array([[1.0 / 3.0]]))
    assert rsys.H("g1", "g1") == pytest.approx(np.array([[1.0 / 3.0]]))
    assert rsys.H("g3", "g1") == pytest.approx(np.array([[H3]]))

    rho, forms = pf_eigenpair(rsys)
    assert rho == pytest.approx(1.0, abs=1e-9)
    assert sum(np.trace(forms[c]).real for c in sub.letters) == pytest.approx(1.0)


def test_restricted_dims_follow_contact_letters(fs2, fs3, rng):
    for fs in (fs2, fs3):
        sys = random_compatible(rng, max_dim=3)
        rsys = restrict_system(fs, sys)
        for c in fs.subgroup_alphabet.letters:
            assert rsys.dims[c] == sys.dims[fs.contact_letter[c]]
            assert rsys.B(c) == pytest.approx(sys.B(fs.contact_letter[c]))
        assert compatibility_defect(rsys) <= 1e-8


def test_restrict_rejects_wrong_alphabet(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    with pytest.raises(InputError):
        restrict_system(fs2, rsys)
    with pytest.raises(InputError):
        induce_system(fs2, spherical)


def test_restrict_function_preserves_norms(fs2, fs3, rng):
    for fs in (fs2, fs3):
        sys = random_compatible(rng, max_dim=2)
        rsys = restrict_system(fs, sys)
        for depth in (1, 2):
            f = random_function(rng, sys, depth)
            rf = restrict_function(fs, sys, f, restricted=rsys)
            assert rf.depth == depth
            assert norm2(rf) == pytest.approx(norm2(f), abs=1e-9 * (1 + norm2(f)))


def test_restrict_function_inner_products(fs2, rng):
    sys = random_compatible(rng, max_dim=2)
    rsys = restrict_system(fs2, sys)
    f = random_function(rng, sys, 2)
    g = random_function(rng, sys, 2)
    rf = restrict_function(fs2, sys, f, restricted=rsys)
    rg = restrict_function(fs2, sys, g, restricted=rsys)
    assert inner_product(rf, rg) == pytest.approx(inner_product(f, g), abs=1e-9)


def test_restrict_function_restricts_the_system_by_default(fs2, fs3, rng):
    for fs in (fs2, fs3):
        sys = random_compatible(rng, max_dim=2)
        f = random_function(rng, sys, 2)
        given = restrict_function(fs, sys, f, restricted=restrict_system(fs, sys))
        assert functions_close(restrict_function(fs, sys, f), given, tol=0.0)


def test_restricted_chain_matches_ambient_samples(fs2, spherical, rng):
    # evaluating past the stored depth runs the restricted transfers;
    # the result must agree with the ambient function at the long sample
    sys = make_spherical(0.3)
    rsys = restrict_system(fs2, sys)
    f = random_function(rng, sys, 1)
    rf = restrict_function(fs2, sys, f, restricted=rsys)
    sub = fs2.subgroup_alphabet
    for yb in sphere(sub, 3):
        sample = fs2.expand(drop_last(yb)) * fs2.contact[last_letter(yb)]
        assert evaluate(rf, yb) == pytest.approx(evaluate(f, sample), abs=1e-10)


# ---------------------------------------------------------------- coset pairs


def test_coset_pairs_index2_reference(fs2):
    e = AB.identity
    a = AB.word("a")
    assert coset_pairs(fs2, "a") == [(e, "G1"), (e, "g3"), (e, "G3"), (a, "G1")]
    assert coset_pairs(fs2, "b") == [(e, "g2"), (a, "g3")]
    assert coset_pairs(fs2, "A") == [(e, "g1"), (a, "g1"), (a, "g2"), (a, "G2")]
    assert coset_pairs(fs2, "B") == [(e, "G2"), (a, "G3")]


def test_coset_pairs_partition(fs2, fs3):
    for fs in (fs2, fs3):
        al = fs.automaton.alphabet
        sub = fs.subgroup_alphabet
        seen = []
        for a in al.letters:
            seen.extend(coset_pairs(fs, a))
        assert len(seen) == len(set(seen)) == len(fs.reps) * len(sub.letters)
        assert set(seen) == {(u, c) for u in fs.reps for c in sub.letters}


def test_coset_pairs_unknown_letter(fs2):
    with pytest.raises(InputError):
        coset_pairs(fs2, "c")


# ------------------------------------------------------------------ induction


def test_induced_spherical_reference(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    isys = induce_system(fs2, rsys)
    assert isys.dims == {"a": 4, "A": 4, "b": 2, "B": 2}
    assert sum(isys.dims.values()) == 2 * sum(rsys.dims.values())
    assert compatibility_defect(isys) <= 1e-12
    rho, _ = pf_eigenpair(isys)
    assert rho == pytest.approx(1.0, abs=1e-9)

    # rows of H(b, a) follow P(b) = [(e, g2), (a, g3)], columns P(a):
    # the (e, g2) row emits the generator G1 and lands on column (a, G1),
    # the (a, g3) row absorbs the step and copies column (e, g3)
    expected = np.zeros((2, 4))
    expected[0, 3] = H3
    expected[1, 1] = 1.0
    assert isys.H("b", "a") == pytest.approx(expected)


def test_induced_dimension_law(fs2, fs3, rng):
    for fs in (fs2, fs3):
        subsys = restrict_system(fs, random_compatible(rng, max_dim=2))
        isys = induce_system(fs, subsys)
        index = len(fs.reps)
        assert sum(isys.dims.values()) == index * sum(subsys.dims.values())
        for a in fs.automaton.alphabet.letters:
            assert isys.dims[a] == sum(
                subsys.dims[c] for _, c in coset_pairs(fs, a)
            )
        assert compatibility_defect(isys) <= 1e-8


def test_induced_forms_are_block_diagonal(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    isys = induce_system(fs2, rsys)
    for a in AB.letters:
        assert isys.B(a) == pytest.approx(0.25 * np.eye(isys.dims[a]))


def test_induce_function_norm_additivity(fs2, fs3, rng):
    for fs in (fs2, fs3):
        subsys = restrict_system(fs, random_compatible(rng, max_dim=2))
        isys = induce_system(fs, subsys)
        # depth 4 is enough here: the footprint of every domain vertex
        # already covers the radius-one ball of the members
        for u in fs.reps:
            truncation_subtree(fs, u, 3, cover=1)
        family = {u: random_function(rng, subsys, 1) for u in fs.reps}
        uf = induce_function(fs, subsys, family, induced=isys, depth=4)
        total = sum(norm2(g) for g in family.values())
        assert norm2(uf) == pytest.approx(total, abs=1e-8 * (1 + total))


def test_induce_function_inner_product_additivity(fs2, rng):
    subsys = restrict_system(fs2, random_compatible(rng, max_dim=2))
    isys = induce_system(fs2, subsys)
    fam1 = {u: random_function(rng, subsys, 1) for u in fs2.reps}
    fam2 = {u: random_function(rng, subsys, 1) for u in fs2.reps}
    uf1 = induce_function(fs2, subsys, fam1, induced=isys, depth=4)
    uf2 = induce_function(fs2, subsys, fam2, induced=isys, depth=4)
    target = sum(inner_product(fam1[u], fam2[u]) for u in fs2.reps)
    assert inner_product(uf1, uf2) == pytest.approx(target, abs=1e-8)


def test_induced_shadow_family_reference(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    sub = fs2.subgroup_alphabet
    e, a = fs2.reps
    family = {
        e: shadow(rsys, sub.word(["g1"]), np.array([1.0])),
        a: shadow(rsys, sub.word(["g2"]), np.array([0.5])),
    }
    uf = induce_function(fs2, rsys, family, depth=4)
    assert norm2(uf) == pytest.approx(0.25 + 0.0625, abs=1e-12)


def test_induce_function_validation(fs2, rng):
    subsys = restrict_system(fs2, random_compatible(rng, max_dim=2))
    f = random_function(rng, subsys, 1)
    with pytest.raises(InputError):
        induce_function(fs2, subsys, {fs2.reps[0]: f})
    other = restrict_system(fs2, random_compatible(rng, max_dim=2))
    bad = {fs2.reps[0]: f, fs2.reps[1]: random_function(rng, other, 1)}
    with pytest.raises(InputError):
        induce_function(fs2, subsys, bad)


def test_induce_function_default_depth(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    sub = fs2.subgroup_alphabet
    family = {u: shadow(rsys, sub.word(["g2"]), np.array([1.0])) for u in fs2.reps}
    uf = induce_function(fs2, rsys, family)
    # stretch 3, member depth 1, domain radius 1: 3 * 2 + 2 + 1
    assert uf.depth == 9
    assert norm2(uf) == pytest.approx(0.5, abs=1e-10)


# ----------------------------------------------------------------- truncation


def test_truncation_reference_counts(fs2):
    t1 = truncation_subtree(fs2, AB.identity, 1)
    assert (len(t1), len(t1.terminals)) == (22, 18)
    t2 = truncation_subtree(fs2, AB.identity, 2)
    assert (len(t2), len(t2.terminals)) == (67, 54)
    assert t1.is_complete and t2.is_complete


def test_truncation_interior_is_tile_image(fs2):
    # dual route: the non-terminal part must be exactly the subgroup
    # words of the tiles met by the ambient ball around the member
    from freemult.transport import _tile_word

    for member in fs2.reps:
        tree = truncation_subtree(fs2, member, 2)
        interior = {_tile_word(fs2, member * w) for w in ball(AB.identity, 2)}
        assert interior <= set(tree.vertices)
        assert set(tree.vertices) - tree.terminals <= interior


def test_truncation_cover_guard(fs2):
    truncation_subtree(fs2, AB.identity, 2, cover=1)
    with pytest.raises(ValidationError):
        truncation_subtree(fs2, AB.identity, 1, cover=4)
    with pytest.raises(InputError):
        truncation_subtree(fs2, AB.word("b"), 1)
    with pytest.raises(InputError):
        truncation_subtree(fs2, AB.identity, 0)


# ----------------------------------------------------------------- round trip


def test_restrict_then_induce_spherical(fs2, spherical):
    rsys = restrict_system(fs2, spherical)
    isys = induce_system(fs2, rsys)
    assert compatibility_defect(isys) <= 1e-9
    rho, _ = pf_eigenpair(isys)
    assert rho == pytest.approx(1.0, abs=1e-9)
    assert sum(isys.dims.values()) == 12


# ------------------------------------------------------- compatibility guard


def test_each_transport_measures_one_defect(monkeypatch, fs2, fs3, rng):
    """On a compatible input, restriction, induction and a change of
    generators each compute one compatibility defect, that of their output:
    the input is measured only when the output fails."""
    sys0 = random_compatible(rng)
    sub = random_compatible(rng, fs2.subgroup_alphabet)
    gm = GeneratorMap(AB, AB, {"a": "a", "b": "ab"})

    calls = []

    def counted(s):
        calls.append(s)
        return compatibility_defect(s)

    for name, mod in list(_sys.modules.items()):
        if name == "freemult" or name.startswith("freemult."):
            for attr, value in list(vars(mod).items()):
                if value is compatibility_defect:
                    monkeypatch.setattr(mod, attr, counted)

    for run in (
        lambda: restrict_system(fs3, sys0),
        lambda: induce_system(fs2, sub),
        lambda: transport_system(gm, sys0),
    ):
        calls.clear()
        out = run()
        assert len(calls) == 1 and calls[0] is out


# ------------------------------------------------------------ block assembly
#
# The three constructions as separate loops, kept as references for the one
# block assembly they now share: every block must come out bit-identical.


def reference_transport_system(gm, sys):
    al = gm.target
    fronts = {a: compute_Y(gm, al.word([a])) for a in al.letters}
    members = [(a, y) for a in al.letters for y in fronts[a].members]
    offsets = {a: {} for a in al.letters}
    dims = {a: 0 for a in al.letters}
    pos = 0
    for a, y in members:
        offsets[a][y] = pos
        pos += sys.dims[last_letter(y)]
        dims[a] += sys.dims[last_letter(y)]
    B = _blockdiag([sys.B(last_letter(y)) for _, y in members])
    H = np.zeros((pos, pos), dtype=complex)
    for a in al.letters:
        own = [y.data for y in fronts[a].members]
        for b in al.letters:
            if b == al.inverse(a):
                continue
            for zrow in fronts[b].members:
                g = al.word([a]) * gm.expand(zrow)
                member, suffix = _member_prefix(own, gm.spell(g).data)
                member = Word(gm.source, member)
                o_r = offsets[b][zrow]
                d_r = sys.dims[last_letter(zrow)]
                o_c = offsets[a][member]
                d_c = sys.dims[last_letter(member)]
                if len(suffix) == 0:
                    assert last_letter(gm.spell(g)) == last_letter(zrow)
                    H[o_r : o_r + d_r, o_c : o_c + d_c] = np.eye(d_r)
                else:
                    prev = last_letter(member)
                    block = np.eye(sys.dims[prev], dtype=complex)
                    for i in suffix:
                        cur = gm.source._from_int[i]
                        block = sys.H(cur, prev) @ block
                        prev = cur
                    assert prev == last_letter(zrow)
                    H[o_r : o_r + d_r, o_c : o_c + d_c] = block
    return MatrixSystem._from_blocks(al, dims, H, B)


def reference_restrict_system(fs, sys):
    al = fs.automaton.alphabet
    sub = fs.subgroup_alphabet
    dims = {c: sys.dims[fs.contact_letter[c]] for c in sub.letters}
    B = {c: sys.B(fs.contact_letter[c]) for c in sub.letters}
    H = {}
    for a in sub.letters:
        xa = fs.contact[a]
        for b in sub.letters:
            if b == sub.inverse(a):
                continue
            t = fs.gamma_of[a] * fs.contact[b]
            assert t.starts_with(xa) and len(t) > len(xa)
            prev = fs.contact_letter[a]
            block = np.eye(sys.dims[prev], dtype=complex)
            for i in t.data[len(xa) :]:
                cur = al._from_int[i]
                block = sys.H(cur, prev) @ block
                prev = cur
            assert prev == fs.contact_letter[b]
            H[(b, a)] = block
    return MatrixSystem(sub, dims, H, B)


def reference_induce_system(fs, subsys):
    sub = fs.subgroup_alphabet
    al = fs.automaton.alphabet
    P = {a: coset_pairs(fs, a) for a in al.letters}
    offsets = {a: {} for a in al.letters}
    dims = {a: 0 for a in al.letters}
    pos = 0
    for a in al.letters:
        for u, c in P[a]:
            offsets[a][(u, c)] = pos
            pos += subsys.dims[c]
            dims[a] += subsys.dims[c]
    B = _blockdiag([subsys.B(c) for a in al.letters for _, c in P[a]])
    H = np.zeros((pos, pos), dtype=complex)
    for a in al.letters:
        ainv = al.word([a]).inverse()
        for b in al.letters:
            if b == al.inverse(a):
                continue
            for v, drow in P[b]:
                o_r = offsets[b][(v, drow)]
                d_r = subsys.dims[drow]
                w = v * ainv
                if fs.in_domain(w):
                    o_c = offsets[a][(w, drow)]
                    H[o_r : o_r + d_r, o_c : o_c + d_r] = np.eye(d_r)
                else:
                    sp, gamma, u = decompose_left(fs, w)
                    assert len(sp) == 1
                    c = sub.inverse(last_letter(sp))
                    assert gamma == fs.gamma_of[c].inverse()
                    o_c = offsets[a][(u, c)]
                    d_c = subsys.dims[c]
                    H[o_r : o_r + d_r, o_c : o_c + d_c] = subsys.H(drow, c)
    return MatrixSystem._from_blocks(al, dims, H, B)


def assert_same_blocks(got, want):
    assert got.alphabet == want.alphabet and got.dims == want.dims
    for a in got.alphabet.letters:
        assert np.array_equal(got.B(a), want.B(a)), a
        for b in got.alphabet.letters:
            assert np.array_equal(got.H(b, a), want.H(b, a)), (b, a)


@pytest.mark.parametrize("images", CHANGEGEN_MAPS, ids=lambda m: f"a{m['a']}-b{m['b']}")
def test_transport_system_matches_reference_assembly(images, rng):
    gm = GeneratorMap(AB, AB, images)
    for _ in range(2):
        sys0 = random_compatible(rng, max_dim=2)
        want = reference_transport_system(gm, sys0)
        assert_same_blocks(transport_system(gm, sys0), want)


def test_restrict_and_induce_match_reference_assembly(fs2, fs3, rng):
    for fs in (fs2, fs3):
        for _ in range(3):
            amb = random_compatible(rng, max_dim=2)
            want = reference_restrict_system(fs, amb)
            assert_same_blocks(restrict_system(fs, amb), want)
            sub = random_compatible(rng, fs.subgroup_alphabet, max_dim=2)
            assert_same_blocks(induce_system(fs, sub), reference_induce_system(fs, sub))


def test_assembly_copies_source_forms_without_checks(fs2, fs3, rng, monkeypatch):
    """Assembled forms are copies of the source's checked forms: no form
    check runs, and each output form array is the block diagonal of the
    source forms bit for bit."""
    import freemult.system as system_mod

    amb = random_compatible(rng, max_dim=2)
    sub = random_compatible(rng, fs2.subgroup_alphabet, max_dim=2)
    gm = GeneratorMap(AB, AB, CHANGEGEN_MAPS[0])
    calls = []
    checked_form = system_mod._checked_form

    def counting(m, a):
        calls.append(a)
        return checked_form(m, a)

    monkeypatch.setattr(system_mod, "_checked_form", counting)
    restricted = restrict_system(fs3, amb)
    induced = induce_system(fs2, sub)
    moved = transport_system(gm, amb)
    assert calls == []

    sub3 = fs3.subgroup_alphabet.letters
    want = _blockdiag([amb.B(fs3.contact_letter[c]) for c in sub3])
    assert np.array_equal(restricted._B, want)
    want = _blockdiag([sub.B(c) for a in AB.letters for _, c in coset_pairs(fs2, a)])
    assert np.array_equal(induced._B, want)
    fronts = [compute_Y(gm, AB.word([a])).members for a in AB.letters]
    want = _blockdiag([amb.B(last_letter(y)) for ys in fronts for y in ys])
    assert np.array_equal(moved._B, want)


def test_assembly_rejects_inconsistent_steps(rng):
    src = random_compatible(rng, max_dim=2)
    members = {t: [(t, t)] for t in AB.letters}

    # one member per letter and one-letter paths rebuild the source itself
    def one_step(a, b, r):
        return a, (AB._to_int[b],)

    assert_same_blocks(_assembled(src, AB, members, one_step, "copy", 1e-8), src)

    def stays(a, b, r):
        return a, ()

    with pytest.raises(InternalCheckError, match="ends at"):
        _assembled(src, AB, members, stays, "copy", 1e-8)

    def stranger(a, b, r):
        return "x", (AB._to_int[b],)

    with pytest.raises(InternalCheckError, match="not a member"):
        _assembled(src, AB, members, stranger, "copy", 1e-8)


def test_pull_back_needs_a_member_prefixing_each_image(fs2):
    """Restriction and a change of generators share one pull-back, which
    rejects a member table where no member of ``a`` prefixes
    ``image(a) r``."""
    sys0 = make_spherical(0.0)
    restrict_system(fs2, sys0)
    # the contact vertex of g1 is A, and gamma_g1 = AA
    fs2.contact["g1"] = AB.word("b")
    with pytest.raises(InternalCheckError, match="no member prefixes"):
        restrict_system(fs2, sys0)

    gm = GeneratorMap(AB, AB, {"a": "a", "b": "ab"})
    transport_system(gm, sys0)
    front = compute_Y(gm, AB.word("a"))
    assert [str(y) for y in front] == ["a", "b"]
    gm._frontier_memo[front.z.data] = YFrontier(front.z, front.members[1:])
    with pytest.raises(InternalCheckError, match="no member prefixes"):
        transport_system(gm, sys0)


def test_restriction_checks_the_end_letter_of_each_sample(fs2):
    # A wrong substitution (g1 -> AAb instead of AA) expands subgroup
    # prefixes to the wrong ambient words; the samples then end at letters
    # other than their blocks' and must not be read as values.
    sys0 = make_spherical(0.0)
    rsys = restrict_system(fs2, sys0)
    f = shadow(sys0, AB.word("ab"), [1.0])
    assert restrict_function(fs2, sys0, f, restricted=rsys, depth=4).depth == 4
    sub = fs2.subgroup_alphabet
    assert fs2.gamma_of["g1"] == AB.word("AA")
    bad = AB.word("AAb")
    fs2._gamma_table = _letter_table(
        sub, {**fs2.gamma_of, "g1": bad, "G1": bad.inverse()}
    )
    with pytest.raises(InternalCheckError, match="sample for g1·G2 ends at"):
        restrict_function(fs2, sys0, f, restricted=rsys, depth=4)
