"""Exact laws of reduced-word arithmetic and finite subtrees.

Free-group identities are checked against a reference reducer written as a
plain stack loop over symbol strings, independent of the kernel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import Alphabet, FiniteSubtree, InputError, ValidationError, Word
from freemult.words import (
    ball,
    based_root,
    complete_subtree_of,
    cone_contains,
    drop_last,
    first_letter,
    geodesic,
    last_letter,
    sphere,
    translate_cone,
)

from .conftest import AB


def reduce_reference(symbols, inv):
    """Stack-based free reduction over symbol strings."""
    out = []
    for s in symbols:
        if out and out[-1] == inv[s]:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


INV = {"a": "A", "A": "a", "b": "B", "B": "b"}
letters_st = st.lists(st.sampled_from("aAbB"), max_size=12)


@given(letters_st)
def test_word_reduction_matches_reference(symbols):
    assert AB.word(symbols).letters() == reduce_reference(symbols, INV)


@given(letters_st, letters_st)
def test_multiplication_matches_reference(xs, ys):
    w = AB.word(xs) * AB.word(ys)
    assert w.letters() == reduce_reference(xs + ys, INV)


@given(letters_st, letters_st, letters_st)
@settings(max_examples=60)
def test_associativity(xs, ys, zs):
    x, y, z = AB.word(xs), AB.word(ys), AB.word(zs)
    assert (x * y) * z == x * (y * z)


@given(letters_st)
def test_inverse_law(xs):
    x = AB.word(xs)
    assert x * x.inverse() == AB.identity
    assert x.inverse() * x == AB.identity
    assert x.inverse().inverse() == x


@given(letters_st)
def test_reduced_form_has_no_adjacent_inverses(xs):
    w = AB.word(xs).letters()
    assert all(w[i + 1] != INV[w[i]] for i in range(len(w) - 1))


def test_word_basics():
    x = AB.word("abA")
    assert len(x) == 3
    assert str(x) == "abA"
    assert first_letter(x) == "a"
    assert last_letter(x) == "A"
    assert drop_last(x) == AB.word("ab")
    assert AB.word("aA") == AB.identity
    assert ~x == x.inverse()
    assert x.prefix(2) == AB.word("ab")
    with pytest.raises(InputError):
        AB.word("ax")
    with pytest.raises(ValidationError):
        first_letter(AB.identity)


def test_alphabet_validation():
    with pytest.raises(InputError):
        Alphabet("aA")  # too small
    with pytest.raises(InputError):
        Alphabet("aAbBa")  # duplicate
    with pytest.raises(InputError):
        Alphabet("abcd")  # no case pairing, no involution
    with pytest.raises(InputError):
        Alphabet("abcd", {"a": "a", "b": "c", "c": "b", "d": "d"})  # fixed point
    custom = Alphabet("abcd", {"a": "b", "b": "a", "c": "d", "d": "c"})
    assert custom.inverse("a") == "b"
    assert custom.word("ab") == custom.identity


def test_multi_letter_symbols():
    al = Alphabet(["g1", "G1", "g2", "G2"])
    w = al.word(["g1", "g2", "G2", "g1"])
    assert w.letters() == ("g1", "g1")
    assert w.inverse().letters() == ("G1", "G1")


def test_cone_membership():
    z = AB.word("ab")
    assert cone_contains(z, AB.word("ab"))
    assert cone_contains(z, AB.word("aba"))
    assert cone_contains(z, AB.word("abb"))
    assert not cone_contains(z, AB.word("abB"))  # reduces to a
    assert not cone_contains(z, AB.word("a"))
    assert not cone_contains(z, AB.identity)
    assert cone_contains(AB.identity, AB.word("B"))  # trivial cone is everything


@given(letters_st, letters_st)
@settings(max_examples=60)
def test_cone_membership_matches_prefix_oracle(xs, zs):
    u, z = AB.word(xs), AB.word(zs)
    expected = u.letters()[: len(z)] == z.letters()
    assert cone_contains(z, u) == expected


def test_translate_cone():
    # ab . C(b) is the cone at abb; aB . C(b) is no cone (it contains e)
    assert translate_cone(AB.word("ab"), AB.word("b")) == AB.word("abb")
    assert translate_cone(AB.word("aB"), AB.word("b")) is None
    assert translate_cone(AB.word("a"), AB.word("A")) is None
    assert translate_cone(AB.word("a"), AB.word("Ab")) == AB.word("b")
    with pytest.raises(ValidationError):
        translate_cone(AB.word("a"), AB.identity)


def test_sphere_sizes():
    # 2m(2m-1)^(n-1) reduced words of length n
    assert len(sphere(AB, 0)) == 1
    assert len(sphere(AB, 1)) == 4
    assert len(sphere(AB, 2)) == 12
    assert len(sphere(AB, 3)) == 36
    assert all(len(w) == 3 for w in sphere(AB, 3))
    assert len(set(sphere(AB, 3))) == 36


def test_word_hashes_separate_a_sphere():
    # CPython hashes the ints -1 and -2 alike, so hashing the raw letter
    # tuple gives the 8,748 words of this sphere only 4,057 distinct hashes.
    words = sphere(AB, 8)
    assert len(words) == 8748
    assert len({hash(w) for w in words}) == 8748


def test_geodesic_and_ball():
    path = geodesic(AB.word("ab"), AB.word("aB"))
    assert [str(p) for p in path] == ["ab", "a", "aB"]
    b2 = ball(AB.identity, 2)
    assert len(b2) == 1 + 4 + 12
    assert b2.is_complete
    assert b2.terminals == frozenset(sphere(AB, 2))
    off = ball(AB.word("ab"), 1)
    assert AB.word("a") in off and AB.word("abb") in off
    assert len(off) == 5


def test_subtree_validation():
    with pytest.raises(ValidationError):
        FiniteSubtree(AB, [AB.identity, AB.word("ab")])  # disconnected
    t = FiniteSubtree(AB, [AB.identity, AB.word("a"), AB.word("b")])
    assert not t.is_complete
    with pytest.raises(ValidationError):
        complete_subtree_of(AB, [AB.identity, AB.word("a"), AB.word("b")])
    assert t.degree_in(AB.identity) == 2
    assert t.terminals == frozenset({AB.word("a"), AB.word("b")})


def connected_by_geodesics(vertices):
    """Tree paths are unique, so a vertex set is connected iff the path
    from every vertex to one fixed vertex stays inside it."""
    root = min(vertices, key=Word.sort_key)
    return all(p in vertices for v in vertices for p in geodesic(v, root))


@given(
    st.lists(st.lists(st.sampled_from("aAbB"), max_size=5), min_size=1, max_size=8),
    st.sampled_from(["as drawn", "prefix-closed", "prefix-closed less one"]),
    st.integers(0, 2**16),
    letters_st,
)
@settings(max_examples=200)
def test_subtree_connectivity_matches_geodesic_oracle(words, shape, cut, centre):
    # closing under prefixes gives a connected set and removing one of
    # its vertices often does not; the translate by ``centre`` moves the
    # set off the identity
    vs = {AB.word(w) for w in words}
    if shape != "as drawn":
        vs = {v.prefix(k) for v in vs for k in range(len(v) + 1)}
    if shape == "prefix-closed less one" and len(vs) > 1:
        vs.discard(sorted(vs, key=Word.sort_key)[cut % len(vs)])
    vs = {AB.word(centre) * v for v in vs}
    if connected_by_geodesics(vs):
        assert FiniteSubtree(AB, vs).vertices == frozenset(vs)
    else:
        with pytest.raises(ValidationError, match="not connected"):
            FiniteSubtree(AB, vs)


def test_based_root():
    t = ball(AB.word("ab"), 1)
    xbar, x = based_root(t)
    assert x == AB.word("a")
    assert xbar == AB.identity
    with pytest.raises(ValidationError):
        based_root(ball(AB.identity, 1))  # contains the identity
