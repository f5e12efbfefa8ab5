"""Coset automata, fundamental domains, Schreier bases, boundary data.

The index-two fixture (generated by aa, b, aba) has all reference values
below recomputed by hand: two cosets, domain {e, a}, three basis elements,
and one contact vertex per basis letter.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from freemult import (
    CosetAutomaton,
    FundamentalSubtree,
    InputError,
    ValidationError,
    automaton_from_generators,
    complete_D,
    decompose_left,
    schreier_subtree,
)
from freemult.errors import InternalCheckError
from freemult.words import Word, ball, last_letter

from .conftest import AB


def test_automaton_validation():
    with pytest.raises(ValidationError):
        CosetAutomaton(AB, {"a": [0, 0], "b": [0, 1]})  # not a permutation
    with pytest.raises(InputError):
        CosetAutomaton(AB, {"a": [0, 1]})  # no data for b
    with pytest.raises(ValidationError):
        # disconnected: both letters fix both states
        CosetAutomaton(AB, {"a": [0, 1], "b": [0, 1]})
    aut = CosetAutomaton(AB, {"a": [1, 0], "b": [0, 1]})
    assert aut.index == 2
    assert aut.step(0, "a") == 1 and aut.step(0, "A") == 1
    assert aut.contains(AB.word("aa")) and not aut.contains(AB.word("a"))


def test_automaton_rejects_non_integer_tables():
    # int() would truncate the floats to (1, 0) and read the string as (0, 1)
    for bad in (
        {"a": [1.7, 0.2], "b": [0, 1]},
        {"a": [1, 0], "b": "01"},
        {"a": [True, False], "b": [0, 1]},
        {"a": {1: 0}, "b": [0, 1]},
    ):
        with pytest.raises(InputError, match="list of integers"):
            CosetAutomaton(AB, bad)
    for size in ("2", 2.0, True):
        with pytest.raises(InputError, match="positive integer"):
            CosetAutomaton(AB, {"a": [1, 0], "b": [0, 1]}, size=size)
    # integer types other than int, and tuples, are integer tables
    aut = CosetAutomaton(AB, {"a": (1, 0), "b": list(np.array([0, 1]))}, size=2)
    assert aut.step(0, "a") == 1 and aut.step(1, "b") == 1


def test_fold_from_generators(index2_automaton):
    aut = index2_automaton
    assert aut.index == 2
    for g in ("aa", "b", "aba"):
        assert aut.contains(AB.word(g))
    assert not aut.contains(AB.word("a"))
    assert not aut.contains(AB.word("ab"))


def test_fold_detects_infinite_index():
    with pytest.raises(ValidationError):
        automaton_from_generators(AB, ["aa"])
    with pytest.raises(ValidationError):
        automaton_from_generators(AB, ["ab", "ba"])


def test_index_one_is_the_whole_group():
    aut = automaton_from_generators(AB, ["a", "b"])
    assert aut.index == 1
    fs = FundamentalSubtree(aut)
    assert fs.reps == (AB.identity,)
    assert fs.subgroup_alphabet.rank == 2
    assert {str(fs.gamma_of[c]) for c in ("g1", "g2")} == {"a", "b"}


def test_index2_reference_data(index2_automaton):
    fs = FundamentalSubtree(index2_automaton)
    assert [str(u) for u in fs.reps] == ["e", "a"]
    assert fs.subgroup_alphabet.rank == 3
    gammas = {c: str(fs.gamma_of[c]) for c in ("g1", "g2", "g3")}
    assert gammas == {"g1": "AA", "g2": "b", "g3": "abA"}
    contacts = {c: str(fs.contact[c]) for c in fs.subgroup_alphabet.letters}
    assert contacts == {
        "g1": "A",
        "G1": "aa",
        "g2": "b",
        "G2": "B",
        "g3": "ab",
        "G3": "aB",
    }
    assert fs.contact_letter == {
        c: last_letter(fs.contact[c]) for c in fs.subgroup_alphabet.letters
    }
    assert schreier_subtree(index2_automaton).reps == fs.reps


def test_index3_reference_data(index3_automaton):
    fs = FundamentalSubtree(index3_automaton)
    assert [str(u) for u in fs.reps] == ["e", "a", "b"]
    # rank identity: 1 + n (m - 1) with n = 3 cosets, m = 2 generators
    assert fs.subgroup_alphabet.rank == 1 + 3 * (2 - 1)
    gammas = {str(fs.gamma_of[c]) for c in ("g1", "g2", "g3", "g4")}
    assert gammas == {"AA", "BB", "abA", "baB"}
    for c in fs.subgroup_alphabet.letters:
        assert fs.automaton.contains(fs.gamma_of[c])


def test_rank_identity_random_automata(rng):
    # random permutation automata of several sizes
    for size in (2, 3, 4, 5):
        for _ in range(4):
            while True:
                perms = {
                    s: list(rng.permutation(size)) for s in ("a", "b")
                }
                try:
                    aut = CosetAutomaton(AB, perms, size=size)
                    break
                except ValidationError:
                    continue  # disconnected sample
            fs = FundamentalSubtree(aut)
            assert len(fs.reps) == size
            assert fs.subgroup_alphabet.rank == 1 + size * (AB.rank - 1)


def test_domain_is_prefix_closed_shortlex(index3_automaton):
    fs = FundamentalSubtree(index3_automaton)
    for u in fs.reps:
        if len(u) > 0:
            assert fs.in_domain(u.prefix(len(u) - 1))
    # each representative is shortlex-minimal in its coset within ball 4
    for v in ball(AB.identity, 4):
        s = fs.state_of(v)
        assert not v.sort_key() < fs.reps[s].sort_key()


def test_contacts_are_nearest_domain_exits(index2_automaton):
    fs = FundamentalSubtree(index2_automaton)
    dom = set(fs.reps)
    for c in fs.subgroup_alphabet.letters:
        g = fs.gamma_of[c]
        translated = [g * u for u in fs.reps]
        # distance from a translated vertex to the domain
        def dist(v):
            return min(len(u.inverse() * v) for u in dom)

        x = fs.contact[c]
        assert x in translated
        assert dist(x) == 1
        assert sum(1 for v in translated if dist(v) == 1) == 1


def test_complete_D(index2_automaton, index3_automaton):
    for aut in (index2_automaton, index3_automaton):
        fs = FundamentalSubtree(aut)
        tree = complete_D(fs)
        assert tree.is_complete
        assert tree.interior == frozenset(fs.reps)
        assert tree.terminals == frozenset(fs.contact.values())
        assert len(tree) == len(fs.reps) + len(set(fs.contact.values()))


def test_decompose_left_roundtrip(index2_automaton, rng):
    fs = FundamentalSubtree(index2_automaton)
    for v in ball(AB.identity, 5):
        spelling, gamma, u = decompose_left(fs, v)
        assert fs.automaton.contains(gamma)
        assert fs.in_domain(u)
        assert gamma * u == v
        assert fs.expand(spelling) == gamma


def _word_level_decompose_left(fs, x):
    """``decompose_left`` as a walk over ``Word`` products, one ``Word``
    per letter: the oracle for the tuple walk."""
    aut = fs.automaton
    al = aut.alphabet
    u = fs.reps[aut.run(0, x)]
    gamma = x * u.inverse()
    syms = []
    r = al.identity
    state = 0
    for i in gamma.data:
        c = al._from_int[i]
        nxt = aut.step(state, c)
        cand = r * al.word([c])
        target = fs.reps[nxt]
        if cand != target:
            sym = fs.symbol_of.get(cand * target.inverse())
            if sym is None:
                raise InternalCheckError("unknown generator")
            syms.append(sym)
        r = target
        state = nxt
    if len(r) != 0 or state != 0:
        raise InternalCheckError("did not return to the base")
    spelling = fs.subgroup_alphabet.word(syms)
    if fs.expand(spelling) != gamma:
        raise InternalCheckError("spelling does not evaluate back")
    return spelling, gamma, u


@st.composite
def automata_and_words(draw):
    """A connected coset automaton over ``aAbB`` of index 1-5 with letter
    permutations drawn at random, and a reduced word of length 0-9."""
    n = draw(st.integers(1, 5))
    perm = st.permutations(range(n))
    try:
        aut = CosetAutomaton(AB, {"a": draw(perm), "b": draw(perm)})
    except ValidationError:
        assume(False)
    data = []
    for k in draw(st.lists(st.integers(0, 2), max_size=9)):
        allowed = [i for i in AB._file_ints if not data or i != -data[-1]]
        data.append(allowed[k])
    return aut, Word(AB, tuple(data))


@given(automata_and_words())
@settings(max_examples=150, deadline=None)
def test_decompose_left_matches_word_level_walk(case):
    aut, x = case
    fs = FundamentalSubtree(aut)
    got = decompose_left(fs, x)
    want = _word_level_decompose_left(fs, x)
    assert got == want
    assert all(isinstance(w, Word) for w in got)
    assert got[0].alphabet == fs.subgroup_alphabet



@given(automata_and_words())
@settings(max_examples=150, deadline=None)
def test_schreier_lookup_matches_decompose_left(case):
    """The induced system reads the generator of a step that leaves the
    domain off the Schreier basis: for ``v`` in the domain, ``w = v a^-1``
    outside it and ``u`` the domain vertex of ``w``'s coset, ``w u^-1`` is
    the one generator ``decompose_left`` emits."""
    aut, _ = case
    fs = FundamentalSubtree(aut)
    for v in fs.reps:
        for a in AB.letters:
            w = v * AB.word([a]).inverse()
            spelling, _, u = decompose_left(fs, w)
            if fs.in_domain(w):
                assert len(spelling) == 0 and u == w
                continue
            assert u == fs.reps[fs.state_of(w)]
            emitted = fs.symbol_of[w * u.inverse()]
            assert spelling == fs.subgroup_alphabet.word([emitted])

def test_translates_cover_ball_disjointly(index2_automaton, index3_automaton):
    """Exhaustive cover check: every vertex of ball(e, 6) lies in exactly
    one subgroup translate of the domain (the oracle tries every u)."""
    for aut in (index2_automaton, index3_automaton):
        fs = FundamentalSubtree(aut)
        for v in ball(AB.identity, 6):
            hits = [u for u in fs.reps if aut.contains(v * u.inverse())]
            assert len(hits) == 1
            _, gamma, u = decompose_left(fs, v)
            assert u == hits[0] and gamma == v * u.inverse()


def test_expand_concatenates_generators(index2_automaton):
    fs = FundamentalSubtree(index2_automaton)
    sub = fs.subgroup_alphabet
    w = sub.word(["g1", "g2", "G1"])
    assert fs.expand(w) == fs.gamma_of["g1"] * fs.gamma_of["g2"] * fs.gamma_of["G1"]
    assert fs.expand(sub.identity) == AB.identity
    with pytest.raises(InputError):
        fs.expand(AB.word("a"))
