"""Multiplicative functions: propagation, norms, and the translation action.

Values are cross-checked by an oracle that multiplies transfer matrices
along the word with a plain loop over symbols, bypassing the sparse
refinement machinery.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import (
    Alphabet,
    InputError,
    MatrixSystem,
    MultiplicativeFunction,
    ResourceLimitError,
    ValidationError,
    act,
    evaluate,
    functions_close,
    inner_product,
    matrix_coefficient,
    norm2,
    norm_via_subtree,
    refine,
    shadow,
)
from freemult import multfunc
from freemult.multfunc import sample_then_refine
from freemult.words import ball, sphere

from .conftest import AB, _pairs, make_spherical, random_compatible


def eval_oracle(sys, depth, values, y):
    """Direct H-chain evaluation from the raw value table."""
    syms = y.letters()
    head = y.prefix(depth)
    if head not in values:
        return np.zeros(sys.dims[syms[-1]], dtype=complex)
    v = np.asarray(values[head], dtype=complex)
    for k in range(depth, len(syms)):
        v = sys.H(syms[k], syms[k - 1]) @ v
    return v


def random_function(rng, sys, depth):
    values = {}
    for x in sphere(sys.alphabet, depth):
        d = sys.dims[x.letters()[-1]]
        values[x] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultiplicativeFunction(sys, depth, values)


def test_constructor_checks(spherical):
    a, b = AB.word("a"), AB.word("b")
    with pytest.raises(InputError):
        MultiplicativeFunction(spherical, 0, {})
    with pytest.raises(InputError):
        MultiplicativeFunction(spherical, 1, {Alphabet("aAbBcC").word("a"): [1.0]})
    with pytest.raises(InputError):
        MultiplicativeFunction(spherical, 1, {AB.word("ab"): [1.0]})
    with pytest.raises(InputError):
        MultiplicativeFunction(spherical, 1, {a: [1.0, 2.0]})
    f = MultiplicativeFunction(spherical, 1, {a: [0.0], b: [2.0]})
    assert f.support() == [b]
    assert len(f.values) == 1
    assert evaluate(f, a)[0] == 0


@pytest.mark.parametrize("depth", [2.5, 3.0, "3", True, 0, -1])
def test_refine_depth_must_be_a_positive_integer(spherical, depth):
    """A float, a string or a bool is refused as input, not read as a
    number or left to fail inside a step."""
    f = shadow(spherical, AB.word("a"), [1.0])
    with pytest.raises(InputError, match="depth must be a positive integer"):
        refine(f, depth)
    with pytest.raises(InputError, match="output depth must be a positive integer"):
        sample_then_refine(spherical, depth, lambda w: None, [f])


def test_shadow_support(spherical):
    f = shadow(spherical, AB.word("a"), [1.0])
    assert f.depth == 1
    assert set(f.values) == {AB.word("a")}
    assert evaluate(f, AB.word("b"))[0] == 0
    assert evaluate(f, AB.word("a"))[0] == 1


def test_evaluate_spherical_value(spherical):
    f = shadow(spherical, AB.word("a"), [1.0])
    assert evaluate(f, AB.word("ab"))[0] == pytest.approx(3 ** -0.5)
    assert evaluate(f, AB.word("aba"))[0] == pytest.approx(1 / 3)
    assert evaluate(f, AB.word("ba"))[0] == 0
    with pytest.raises(ValidationError):
        evaluate(f, AB.identity)


def test_refine_spreads_outward(spherical):
    f = refine(shadow(spherical, AB.word("a"), [1.0]), 2)
    assert set(f.values) == {AB.word("aa"), AB.word("ab"), AB.word("aB")}
    for v in f.values.values():
        assert v[0] == pytest.approx(3 ** -0.5)


def test_evaluate_matches_oracle(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    for y in sphere(AB, 4)[::5]:
        assert np.allclose(
            evaluate(f, y), eval_oracle(sys0, 2, f.values, y), atol=1e-12
        )


def test_norm_of_shadow_is_form_value(spherical):
    f = shadow(spherical, AB.word("a"), [1.0])
    assert norm2(f) == pytest.approx(0.25)
    assert np.sqrt(norm2(f)) == pytest.approx(0.5)


def test_norm_invariant_under_refinement(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    n0 = norm2(f)
    for d in (3, 4, 5):
        assert norm2(refine(f, d)) == pytest.approx(n0, rel=1e-9)


def test_inner_product_structure(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    g = random_function(rng, sys0, 2)
    h = random_function(rng, sys0, 3)
    ip = inner_product(f, g)
    assert inner_product(g, f) == pytest.approx(ip.conjugate())
    # conjugate linearity in the first slot
    f2 = MultiplicativeFunction(
        sys0, 2, {x: (2 + 1j) * v for x, v in f.values.items()}
    )
    assert inner_product(f2, g) == pytest.approx((2 - 1j) * ip)
    # mixed depths agree with refining by hand, either argument deeper
    assert inner_product(f, h) == pytest.approx(inner_product(refine(f, 3), h))
    assert inner_product(h, f) == pytest.approx(inner_product(h, refine(f, 3)))
    # a sparse deeper argument
    k = MultiplicativeFunction(sys0, 4, dict(list(refine(h, 4).values.items())[::9]))
    assert inner_product(k, g) == pytest.approx(inner_product(k, refine(g, 4)))
    assert inner_product(g, k) == pytest.approx(inner_product(refine(g, 4), k))


def test_act_translates_support(spherical):
    f = shadow(spherical, AB.word("a"), [1.0])
    g = act(AB.word("b"), f)
    assert g.depth == 2
    assert set(g.values) == {AB.word("ba")}
    assert g.values[AB.word("ba")][0] == pytest.approx(1.0)
    # translation by the identity is the identity
    assert functions_close(act(AB.identity, f), f)


def test_act_matches_pointwise_definition(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    x = AB.word("aB")
    g = act(x, f)
    xi = x.inverse()
    for z in sphere(AB, g.depth)[::7]:
        w = xi * z
        if len(w) >= f.depth:
            assert np.allclose(evaluate(g, z), evaluate(f, w), atol=1e-10)


def test_act_is_unitary(rng):
    sys0 = random_compatible(rng)
    for _ in range(10):
        f = random_function(rng, sys0, 2)
        n0 = norm2(f)
        for spec in ("a", "Ba", "abA"):
            assert norm2(act(AB.word(spec), f)) == pytest.approx(n0, rel=1e-9)


def test_act_composes(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    x, y = AB.word("ab"), AB.word("Ba")
    assert functions_close(act(x, act(y, f)), act(x * y, f), tol=1e-9)


def test_act_shells_past_the_support_depth(rng):
    # |x| > N, and support words that x cancels completely: the shells
    # k >= N start from a prefix of x^-1 and follow x^-1 beyond the support
    sys0 = random_compatible(rng)
    x = AB.word("abAbb")
    xi = x.inverse()
    for depth in (1, 2, 3):
        words = [xi.prefix(depth)] + [w for w in sphere(AB, depth)[::5] if w != xi.prefix(depth)]
        values = {
            w: rng.standard_normal(sys0.dims[w.letters()[-1]]) + 0j for w in words
        }
        f = MultiplicativeFunction(sys0, depth, values)
        g = act(x, f)
        assert g.depth == depth + len(x)
        support = set()
        for z in sphere(AB, g.depth):
            want = eval_oracle(sys0, depth, f.values, xi * z)
            got = g.values.get(z, np.zeros_like(want))
            assert np.allclose(got, want, atol=1e-12)
            if np.any(want):
                support.add(z)
        assert set(g.values) == support


def test_act_inverse_round_trip(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    for spec in ("a", "bA", "abA"):
        x = AB.word(spec)
        back = act(x, act(x.inverse(), f))
        assert back.depth == f.depth + 2 * len(x)
        assert functions_close(back, f, tol=1e-9)
        assert functions_close(refine(f, back.depth), back, tol=1e-9)


ACT_SYSTEM = random_compatible(np.random.default_rng(7))
ACT_F = MultiplicativeFunction(
    ACT_SYSTEM,
    1,
    {
        AB.word("a"): np.ones(ACT_SYSTEM.dims["a"]),
        AB.word("B"): np.arange(1, ACT_SYSTEM.dims["B"] + 1) * 1j,
    },
)
short_words = st.lists(st.sampled_from("aAbB"), max_size=4).map(AB.word)


@given(short_words, short_words)
@settings(max_examples=25, deadline=None)
def test_act_is_an_action(x, y):
    assert functions_close(act(x, act(y, ACT_F)), act(x * y, ACT_F), tol=1e-9)


def test_same_system_skips_the_numeric_comparison(rng, monkeypatch):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)

    def fail(self, other, tol=1e-9):
        raise AssertionError("close_to called on identical systems")

    monkeypatch.setattr(MatrixSystem, "close_to", fail)
    assert norm2(f) > 0
    assert functions_close(f, refine(f, 3))


def budget_system():
    """Rank three, every space of dimension 3 (total dimension 18): the
    sphere at depth n has 6 * 5**(n-1) words."""
    al = Alphabet("aAbBcC")
    H = {(b, a): np.eye(3) / 5 for b, a in _pairs(al)}
    forms = {a: np.eye(3) for a in al.letters}
    return MatrixSystem(al, {a: 3 for a in al.letters}, H, forms)


def test_propagation_budget_enforced(monkeypatch):
    """A step over the budget raises before its product is built, and a
    sphere over it before it is enumerated."""
    sysm = budget_system()
    f = shadow(sysm, sysm.alphabet.word("a"), np.ones(3))
    # the step from depth k has 5**(k-1) words, a product of 18 * 5**(k-1)
    monkeypatch.setattr(multfunc, "PROPAGATION_BUDGET", 18 * 5**4)
    assert len(refine(f, 6).values) == 5**5
    refused = 16 * 18 * 5**5  # bytes of the step from depth 6
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="step of 3125 words"):
            refine(f, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < refused
    with pytest.raises(ResourceLimitError):
        act(sysm.alphabet.word("A" * 6), f)

    radii = []

    def recorded(al, n):
        radii.append(n)
        return sphere(al, n)

    monkeypatch.setattr(multfunc, "sphere", recorded)
    monkeypatch.setattr(multfunc, "PROPAGATION_BUDGET", 18 * 30)
    with pytest.raises(ResourceLimitError, match="sphere 3 of 150 words"):
        sample_then_refine(sysm, 5, lambda w: None, [f])
    assert radii == [1, 2]


def test_norm_via_subtree_agrees(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    n0 = norm2(f)
    assert norm_via_subtree(f, ball(AB.identity, 2)) == pytest.approx(n0, rel=1e-9)
    assert norm_via_subtree(f, ball(AB.identity, 4)) == pytest.approx(n0, rel=1e-9)
    # an uneven complete subtree: grow the ball by one cone
    verts = set(ball(AB.identity, 2))
    verts.update(ball(AB.word("ab"), 1))
    from freemult.words import complete_subtree_of

    tree = complete_subtree_of(AB, verts)
    assert norm_via_subtree(f, tree) == pytest.approx(n0, rel=1e-9)


def test_norm_via_subtree_validation(rng):
    sys0 = random_compatible(rng)
    f = random_function(rng, sys0, 2)
    from freemult import FiniteSubtree

    incomplete = FiniteSubtree(AB, [AB.identity, AB.word("a")])
    with pytest.raises(ValidationError):
        norm_via_subtree(f, incomplete)
    with pytest.raises(ValidationError):
        norm_via_subtree(f, ball(AB.identity, 1))  # too small for depth 2


def test_matrix_coefficient(spherical):
    f = shadow(spherical, AB.word("a"), [1.0])
    assert matrix_coefficient(AB.identity, f, f) == pytest.approx(norm2(f))
    # <act(b)f, shadow(b a)> on the spherical system: both sit on C(ba)
    g = shadow(spherical, AB.word("ba"), [1.0])
    val = matrix_coefficient(AB.word("b"), f, g)
    assert val == pytest.approx(0.25)
