"""Change of free generators: frontiers, transported systems, intertwiner.

The reference example is the rank-two map sending the first new generator
to a and the second to ab; every frontier set, dimension, and transported
matrix entry below was computed by hand from the cone-embedding rules.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import (
    GeneratorMap,
    InternalCheckError,
    MatrixSystem,
    ValidationError,
    compatibility_defect,
    compute_Y,
    intertwine_changegen,
    maximal_invariant,
    norm2,
    pf_eigenpair,
    pruned_subtree,
    quotient_system,
    restrict_function,
    restrict_system,
    schreier_subtree,
    shadow,
    transport_system,
)
from freemult.changegen import cone_included
from freemult.multfunc import MultiplicativeFunction, functions_close
from freemult.system import _member_prefix
from freemult.words import _letter_table, drop_last, last_letter, sphere

from .conftest import AB, make_spherical, random_compatible

H3 = 3 ** -0.5


@pytest.fixture
def ab_map() -> GeneratorMap:
    """First new generator -> a, second -> ab (source and target both
    written over the letters aAbB)."""
    return GeneratorMap(AB, AB, {"a": "a", "b": "ab"})


def test_expand_and_spell_roundtrip(ab_map):
    gm = ab_map
    assert str(gm.expand(AB.word("b"))) == "ab"
    assert str(gm.expand(AB.word("ba"))) == "aba"
    assert str(gm.spell(AB.word("ab"))) == "b"
    assert str(gm.spell(AB.word("b"))) == "Ab"
    for spec in ("", "a", "bA", "abAB", "BBa"):
        w = AB.word(spec)
        assert gm.spell(gm.expand(w)) == w
        assert gm.expand(gm.spell(w)) == w


def test_non_basis_images_rejected():
    # both images abelianize to (1,1): a proper subgroup
    with pytest.raises(ValidationError):
        GeneratorMap(AB, AB, {"a": "ab", "b": "ba"})
    with pytest.raises(ValidationError):
        GeneratorMap(AB, AB, {"a": "a", "b": "a"})
    with pytest.raises(ValidationError):
        GeneratorMap(AB, AB, {"a": "aa", "b": "b"})


def test_left_moves_need_nielsen_descent():
    # inverting the basis {aba, ab} requires a multiplication from the
    # left; pure rightward greedy reduction stalls on it
    gm = GeneratorMap(AB, AB, {"a": "aba", "b": "ab"})
    assert str(gm.spell(AB.word("b"))) == "Abb"
    assert gm.expand(gm.spell(AB.word("b"))) == AB.word("b")


def test_frontier_worked_example(ab_map):
    gm = ab_map
    fronts = {c: compute_Y(gm, AB.word(c)) for c in AB.letters}
    as_strs = {c: [str(y) for y in fronts[c].members] for c in AB.letters}
    assert as_strs == {
        "a": ["a", "b"],
        "b": ["Ab"],
        "A": ["AA", "AB"],
        "B": ["B"],
    }
    # a member is settled when its image cone already lies in a
    # one-step-deeper target cone: its pruned subtree is itself and its
    # parent
    settled = {
        c: {str(y): len(pruned_subtree(gm, y, c)) == 2 for y in fronts[c].members}
        for c in AB.letters
    }
    assert settled["a"] == {"a": False, "b": True}
    assert settled["b"] == {"Ab": False}
    assert settled["A"] == {"AA": False, "AB": True}
    assert settled["B"] == {"B": False}


def test_transported_spherical_worked_example(ab_map):
    gm = ab_map
    out = transport_system(gm, make_spherical(0.0))
    assert out.dims == {"a": 2, "b": 1, "A": 2, "B": 1}
    assert compatibility_defect(out) <= 1e-8

    h = H3
    assert np.allclose(out.H("a", "a"), [[h, 0], [h, 0]])
    assert np.allclose(out.H("b", "a"), [[0, 1]])
    assert np.allclose(out.H("B", "a"), [[h, 0]])
    assert np.allclose(out.H("A", "A"), [[h, 0], [h, 0]])
    assert np.allclose(out.H("b", "A"), [[h, 0]])
    assert np.allclose(out.H("B", "A"), [[0, 1]])
    assert np.allclose(out.H("a", "b"), [[h], [h]])
    assert np.allclose(out.H("A", "b"), [[h * h], [h * h]])
    assert np.allclose(out.H("b", "b"), [[h * h]])
    assert np.allclose(out.H("a", "B"), [[h * h], [h * h]])
    assert np.allclose(out.H("A", "B"), [[h], [h]])
    assert np.allclose(out.H("B", "B"), [[h * h]])
    for c in AB.letters:
        d = out.dims[c]
        assert np.allclose(out.B(c), 0.25 * np.eye(d))


def test_transported_invariant_and_quotient(ab_map):
    out = transport_system(ab_map, make_spherical(0.0))
    # the (1,1)-span family is an invariant subsystem, as constructed
    from freemult import Subsystem, invariance_defect

    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    w11 = Subsystem(AB, {"a": v, "A": v, "b": np.eye(1), "B": np.eye(1)})
    assert invariance_defect(out, w11) <= 1e-9
    # quotienting by it kills every transfer, so the quotient radius is 0
    quot11, _ = quotient_system(out, w11)
    assert quot11.dims == {"a": 1, "A": 1, "b": 0, "B": 0}
    assert pf_eigenpair(quot11)[0] == pytest.approx(0.0, abs=1e-9)

    # the maximal invariant subsystem strictly contains the span family
    # (its quotient must be irreducible, which the zero quotient above is
    # not); its one proper component is again a (1,1) span
    w = maximal_invariant(out)
    assert w.total_dim == 5
    proper = [c for c in AB.letters if w.basis[c].shape[1] < out.dims[c]]
    assert len(proper) == 1 and out.dims[proper[0]] == 2
    col = w.basis[proper[0]][:, 0]
    assert abs(col[0] - col[1]) <= 1e-9 or abs(col[0] + col[1]) <= 1e-9
    for c in AB.letters:
        q = w.basis[c]
        resid = w11.basis[c] - q @ (q.conj().T @ w11.basis[c])
        assert np.linalg.norm(resid) <= 1e-9
    quot, _ = quotient_system(out, w)
    assert pf_eigenpair(quot)[0] == pytest.approx(0.0, abs=1e-9)


def random_nielsen_map(rng, moves=6, max_len=3):
    """Compose random Nielsen moves, keeping every image short."""
    pos = ["a", "b"]
    images = {s: AB.word(s) for s in pos}
    for _ in range(moves):
        kind = rng.integers(3)
        i = int(rng.integers(2))
        j = 1 - i
        if kind == 0:
            images[pos[i]] = images[pos[i]].inverse()
        elif kind == 1:
            images[pos[i]], images[pos[j]] = images[pos[j]], images[pos[i]]
        else:
            cand = images[pos[i]] * images[pos[j]]
            if 0 < len(cand) <= max_len:
                images[pos[i]] = cand
    return GeneratorMap(AB, AB, images)


def test_partition_identities_random_maps(rng):
    for _ in range(10):
        gm = random_nielsen_map(rng)
        fronts = {c: compute_Y(gm, AB.word(c)) for c in AB.letters}
        for a in AB.letters:
            psi_a = gm.spell(AB.word(a))
            for b in AB.letters:
                if b == AB.inverse(a):
                    continue
                # translation identity: psi(a) Y(b) = Y(ab)
                lhs = {psi_a * y for y in fronts[b].members}
                rhs = set(compute_Y(gm, AB.word(a) * AB.word(b)).members)
                assert lhs == rhs
                # last-letter stability across the translation
                for y in fronts[b].members:
                    assert last_letter(psi_a * y) == last_letter(y)
            # partition of Y(a) by projections of one-step-deeper members
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


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from("aAbB"), max_size=8),
    st.lists(st.sampled_from("aAbB"), max_size=8),
)
def test_spelling_splits_off_an_expanded_factor(seed, xs, ys):
    # intertwine_changegen samples at spell(x) * y instead of
    # spell(x * expand(y)), building spell(x) one target letter at a time
    gm = random_nielsen_map(np.random.default_rng(seed))
    x, y = AB.word(xs), AB.word(ys)
    head = AB.identity
    for c in x.letters():
        head = head * gm.back_images[c]
    assert head == gm.spell(x)
    assert gm.spell(x * gm.expand(y)) == head * y


def test_frontier_members_are_minimal_and_included(rng):
    for _ in range(5):
        gm = random_nielsen_map(rng)
        for c in AB.letters:
            front = compute_Y(gm, AB.word(c))
            for y in front.members:
                assert cone_included(gm, y, front.z)
                if len(y) > 1:
                    assert not cone_included(gm, y.prefix(len(y) - 1), front.z)


def test_pruned_subtrees_are_complete(ab_map):
    gm = ab_map
    for c in AB.letters:
        front = compute_Y(gm, AB.word(c))
        for y in front.members:
            tree = pruned_subtree(gm, y, c)
            assert tree.is_complete
            assert y in tree and drop_last(y) in tree


def test_pruned_subtree_rejects_non_members(ab_map):
    gm = ab_map
    # the source cones at A, Ab and B are disjoint from the target cone at a
    for spec in ("A", "Ab", "B"):
        with pytest.raises(ValidationError, match="not a frontier member"):
            pruned_subtree(gm, AB.word(spec), "a")
    # ab and ba lie in the cone of a but below its members a and b
    for spec in ("ab", "ba", "aab"):
        assert cone_included(gm, AB.word(spec), AB.word("a"))
        with pytest.raises(ValidationError, match="not a frontier member"):
            pruned_subtree(gm, AB.word(spec), "a")


def test_transported_random_systems_stay_compatible(rng):
    for _ in range(5):
        gm = random_nielsen_map(rng)
        sys0 = random_compatible(rng, max_dim=2)
        out = transport_system(gm, sys0)
        assert compatibility_defect(out) <= 1e-8
        assert out.total_dim == sum(
            sys0.dims[last_letter(y)]
            for c in AB.letters
            for y in compute_Y(gm, AB.word(c)).members
        )


def test_intertwiner_preserves_norms(ab_map, rng):
    gm = ab_map
    sys0 = make_spherical(0.0)
    out = transport_system(gm, sys0)

    f = shadow(sys0, AB.word("a"), [1.0])
    uf = intertwine_changegen(gm, sys0, f, transported=out)
    assert norm2(uf) == pytest.approx(norm2(f), rel=1e-8)
    # the image lives on the cone of the first target letter
    assert all(str(x).startswith("a") for x in uf.values)

    for _ in range(5):
        values = {
            x: rng.standard_normal(1) + 1j * rng.standard_normal(1)
            for x in sphere(AB, 2)
        }
        g = MultiplicativeFunction(sys0, 2, values)
        ug = intertwine_changegen(gm, sys0, g, transported=out)
        assert norm2(ug) == pytest.approx(norm2(g), rel=1e-8)


def test_intertwiner_checks_the_end_letter_of_each_sample(ab_map):
    # A wrong inverse substitution (b -> AbaB instead of Ab) spells target
    # prefixes to the wrong source words; the samples then end at letters
    # other than their blocks' and must not be read as values.
    sys0 = make_spherical(0.0)
    out = transport_system(ab_map, sys0)
    f = shadow(sys0, AB.word("ab"), [1.0])
    assert intertwine_changegen(ab_map, sys0, f, transported=out).depth == 4
    bad = AB.word("AbaB")
    ab_map._back_table = _letter_table(
        AB, {**ab_map.back_images, "b": bad, "B": bad.inverse()}
    )
    with pytest.raises(InternalCheckError, match="sample for aba ends at"):
        intertwine_changegen(ab_map, sys0, f, transported=out)


@pytest.mark.parametrize("carry", ["changegen", "index2", "index3"])
def test_intertwiner_equivariance(carry, request):
    """Translating by a target letter before or after carrying over agrees
    wherever both sides are defined.  A restriction carries the same way:
    translating by a subgroup letter ``y`` is translating by
    ``expand(y)`` before restricting."""
    from freemult.multfunc import act

    sys0 = make_spherical(0.0)
    f = shadow(sys0, AB.word("ab"), [1.0])
    if carry == "changegen":
        gm = request.getfixturevalue("ab_map")
        out = transport_system(gm, sys0)
        letters = [AB.word(spec) for spec in ("a", "B")]
        move, stretch, tol = gm.spell, gm.stretch_to_target, 1e-8

        def carried(g, depth):
            return intertwine_changegen(gm, sys0, g, transported=out, depth=depth)

    else:
        fs = schreier_subtree(request.getfixturevalue(f"{carry}_automaton"))
        out = restrict_system(fs, sys0)
        letters = [fs.subgroup_alphabet.word([c]) for c in fs.subgroup_alphabet.letters]
        move, stretch, tol = fs.expand, 1, 1e-9

        def carried(g, depth):
            return restrict_function(fs, sys0, g, restricted=out, depth=depth)

    for y in letters:
        moved = act(move(y), f)
        depth_l = moved.depth * stretch
        lhs = carried(moved, depth_l)
        rhs = act(y, carried(f, depth_l - len(y)))
        assert lhs.depth == rhs.depth
        assert functions_close(lhs, rhs, tol=tol)


def test_frontiers_are_searched_once_per_map(monkeypatch):
    changegen = importlib.import_module("freemult.changegen")
    # every search, and nothing else in these calls, asks for its bound
    searched = []
    inner = changegen.source_depth_bound

    def counted(gm, z):
        searched.append(str(z))
        return inner(gm, z)

    monkeypatch.setattr(changegen, "source_depth_bound", counted)
    gm = GeneratorMap(AB, AB, {"a": "a", "b": "ab"})
    sys0 = make_spherical(0.0)
    out = transport_system(gm, sys0)
    f = shadow(sys0, AB.word("a"), [1.0])
    first = intertwine_changegen(gm, sys0, f, transported=out)
    again = intertwine_changegen(gm, sys0, f, transported=out)
    assert functions_close(first, again, tol=0.0)
    assert sorted(searched) == sorted(AB.letters)
    for c in AB.letters:
        assert changegen.compute_Y(gm, AB.word(c)) is changegen.compute_Y(gm, AB.word(c))
    assert sorted(searched) == sorted(AB.letters)


def test_intertwiner_transports_the_system_by_default(ab_map, rng):
    sys0 = random_compatible(rng, max_dim=2)
    values = {}
    for x in sphere(AB, 2):
        d = sys0.dims[last_letter(x)]
        values[x] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    f = MultiplicativeFunction(sys0, 2, values)
    given = intertwine_changegen(
        ab_map, sys0, f, transported=transport_system(ab_map, sys0)
    )
    assert functions_close(intertwine_changegen(ab_map, sys0, f), given, tol=0.0)
