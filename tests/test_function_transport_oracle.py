"""Sample-then-refine function transport against the sphere enumerators it
replaced.

``act``, ``restrict_function``, ``induce_function`` and
``intertwine_changegen`` sample their output on the smallest sphere the
input determines and refine it over the output system.  The references
below are the earlier implementations: they evaluate the input at every
word of the requested output sphere (and ``act`` walks every extension of
the support by up to ``2 |x|`` letters), carrying each value letter by
letter from its stored prefix, apart from the package's evaluation.
Values and supports must agree at every output depth from one below the
smallest valid one up to the default, and both must reject the
too-shallow depth with a ``ValidationError``.

The package evaluates a sampled sphere in one batch, whose products differ
from one-vector products in the last bits.  So the intertwiner's output at
its sampling depth is compared bitwise with the package's batch on the
reference's sample words, and the batch's carry products are counted.
"""

from __future__ import annotations

import numpy as np
import pytest

from freemult import (
    GeneratorMap,
    MatrixSystem,
    MultiplicativeFunction,
    act,
    compute_Y,
    induce_function,
    induce_system,
    intertwine_changegen,
    restrict_function,
    restrict_system,
    schreier_subtree,
    transport_system,
)
from freemult.errors import InputError, InternalCheckError, ValidationError
from freemult.multfunc import _digits, _evaluate_batch
from freemult.transport import _tile_word, coset_pairs
from freemult.words import Word, drop_last, last_letter, sphere

from .conftest import AB, random_compatible

# Rank-2 generator changes whose longest image has length 3 (the maps of
# the benchmark's changegen workload).
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


# ------------------------------------------------------------ references


def reference_value(f: MultiplicativeFunction, y: Word) -> np.ndarray:
    """Value of ``f`` at a word of length at least the depth: the stored
    value at its prefix, carried one transfer per further letter."""
    al, sysm = f.alphabet, f.system
    head = Word(al, y.data[: f.depth])
    if head not in f.values:
        return np.zeros(sysm.dims[last_letter(y)], dtype=complex)
    v, prev = f.values[head], last_letter(head)
    for i in y.data[f.depth :]:
        cur = al._from_int[i]
        v = sysm.H(cur, prev) @ v
        prev = cur
    return v


def reference_act(x: Word, f: MultiplicativeFunction) -> MultiplicativeFunction:
    n_out = f.depth + len(x)
    if len(x) == 0:
        return f
    sysm = f.system
    al = f.alphabet
    out: dict[Word, np.ndarray] = {}
    max_ext = 2 * len(x)

    def walk(w: Word, v: np.ndarray, ext: int) -> None:
        z = x * w
        if len(z) == n_out and np.any(v):
            out[z] = v
        if ext == max_ext:
            return
        t = last_letter(w)
        banned = al.inverse(t)
        for c in al.letters:
            if c == banned:
                continue
            if (c, t) not in sysm.stored_pairs():
                continue
            m = sysm.H(c, t)
            v2 = m @ v
            if np.any(v2):
                walk(Word(al, w.data + (al._to_int[c],)), v2, ext + 1)

    for p, vp in f.values.items():
        walk(p, vp, 0)
    return MultiplicativeFunction(sysm, n_out, out)


def reference_restrict(fs, f, restricted, n_out):
    values = {}
    for yb in sphere(fs.subgroup_alphabet, n_out):
        b = last_letter(yb)
        sample = fs.expand(drop_last(yb)) * fs.contact[b]
        if len(sample) < f.depth:
            raise ValidationError(
                f"output depth {n_out} is too small for input depth {f.depth}"
            )
        if last_letter(sample) != fs.contact_letter[b]:
            raise InternalCheckError("sample does not end at the contact letter")
        vec = reference_value(f, sample)
        if np.any(vec):
            values[yb] = vec
    return MultiplicativeFunction(restricted, n_out, values)


def reference_induce(fs, subsys, family, induced, n_out):
    al = fs.automaton.alphabet
    P = {a: coset_pairs(fs, a) for a in al.letters}
    values = {}
    for xa in sphere(al, n_out):
        a = last_letter(xa)
        x = drop_last(xa)
        vec = np.zeros(induced.dims[a], dtype=complex)
        pos = 0
        for u, c in P[a]:
            d = subsys.dims[c]
            z = x * u.inverse()
            v = fs.reps[fs.state_of(z.inverse())]
            h = v * z
            if fs.state_of(h) != 0:
                raise InternalCheckError("tile shift left the subgroup")
            w = _tile_word(fs, h * fs.gamma_of[c])
            member = family[v]
            if len(w) < member.depth:
                raise ValidationError(
                    f"output depth {n_out} is too small for input depth "
                    f"{member.depth}"
                )
            if last_letter(w) != c:
                raise InternalCheckError("sample word ends at the wrong letter")
            vec[pos : pos + d] = reference_value(member, w)
            pos += d
        if np.any(vec):
            values[xa] = vec
    return MultiplicativeFunction(induced, n_out, values)


def reference_intertwine(gm, sys, f, transported, n_out):
    al = gm.target
    blocks = {
        a: [
            (sys.dims[last_letter(y)], gm.expand(y))
            for y in compute_Y(gm, al.word([a])).members
        ]
        for a in al.letters
    }
    values = {}
    for xa in sphere(al, n_out):
        a = last_letter(xa)
        x = drop_last(xa)
        vec = np.zeros(transported.dims[a], dtype=complex)
        pos = 0
        for d, image in blocks[a]:
            s = gm.spell(x * image)
            if len(s) < f.depth:
                raise ValidationError(
                    f"output depth {n_out} is too small for input depth {f.depth}"
                )
            vec[pos : pos + d] = reference_value(f, s)
            pos += d
        if np.any(vec):
            values[xa] = vec
    return MultiplicativeFunction(transported, n_out, values)


def sample_words(gm, sys, f, n_out):
    """Per word of the output sphere, the source words of its blocks, as
    the reference spells them."""
    al = gm.target
    images = {
        a: [gm.expand(y) for y in compute_Y(gm, al.word([a])).members]
        for a in al.letters
    }
    out = []
    for xa in sphere(al, n_out):
        blocks = [gm.spell(drop_last(xa) * image) for image in images[last_letter(xa)]]
        if any(len(s) < f.depth for s in blocks):
            raise ValidationError(
                f"output depth {n_out} is too small for input depth {f.depth}"
            )
        out.append((xa, [s.data for s in blocks]))
    return out


def batch_intertwine(gm, sys, f, transported, n_out):
    """The intertwined function at the sampling depth, from one call of the
    package's batch on the reference's sample words."""
    found = sample_words(gm, sys, f, n_out)
    words = [s for _, blocks in found for s in blocks]
    which = np.zeros(len(words), dtype=np.int64)
    X = _evaluate_batch(sys, [f], *_digits(sys.alphabet, words), which)
    values, row = {}, 0
    for xa, blocks in found:
        vec = []
        for s in blocks:
            vec.append(X[row, sys._slices[gm.source._from_int[s[-1]]]])
            row += 1
        values[xa] = np.concatenate(vec)
    return MultiplicativeFunction(transported, n_out, values)


# --------------------------------------------------------------- helpers


def random_function(rng, sys, depth, support=None):
    """Gaussian values on the whole sphere, or on ``support`` of its words."""
    words = sphere(sys.alphabet, depth)
    if support is not None:
        words = [words[int(k)] for k in rng.choice(len(words), support, replace=False)]
    values = {}
    for w in words:
        d = sys.dims[last_letter(w)]
        values[w] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultiplicativeFunction(sys, depth, values)


def random_word(rng, length: int) -> Word:
    words = sphere(AB, length)
    return words[int(rng.integers(len(words)))]


def assert_same(got: MultiplicativeFunction, want: MultiplicativeFunction) -> None:
    assert got.system is want.system
    assert got.depth == want.depth
    assert set(got.values) == set(want.values)
    scale = max((np.linalg.norm(v) for v in want.values.values()), default=1.0)
    for w, v in want.values.items():
        assert np.linalg.norm(got.values[w] - v) <= 1e-12 * scale, w


def assert_identical(got: MultiplicativeFunction, want: MultiplicativeFunction) -> None:
    """Equal codes and bitwise equal values, letter by letter."""
    assert got.system is want.system
    assert got.depth == want.depth
    assert got._groups.keys() == want._groups.keys()
    for t, (codes, V) in want._groups.items():
        assert np.array_equal(got._groups[t][0], codes)
        assert np.array_equal(got._groups[t][1], V)


def compare_over_depths(new, old, default: int) -> int:
    """Compare ``new(n)`` with ``old(n)`` for every ``n`` from one below the
    smallest depth ``old`` accepts up to ``default``; both must raise a
    ``ValidationError`` there.  Returns the smallest valid depth."""
    n0 = 1
    while True:
        try:
            want = old(n0)
            break
        except ValidationError:
            n0 += 1
    assert n0 <= default
    if n0 > 1:
        with pytest.raises(ValidationError):
            new(n0 - 1)
    assert_same(new(n0), want)
    for n in range(n0 + 1, default + 1):
        assert_same(new(n), old(n))
    return n0


# ----------------------------------------------------------------- tests


def test_act_matches_reference(rng):
    sys0 = random_compatible(rng, max_dim=2)
    for depth, support in ((1, None), (2, None), (2, 3), (1, 1)):
        f = random_function(rng, sys0, depth, support)
        for length in range(5):
            if depth == 2 and support is None and length == 4:
                continue  # the reference walk takes seconds here
            x = random_word(rng, length)
            assert_same(act(x, f), reference_act(x, f))


@pytest.mark.parametrize("index", [2, 3])
def test_restrict_function_matches_reference(rng, index, index2_automaton, index3_automaton):
    fs = schreier_subtree(index2_automaton if index == 2 else index3_automaton)
    sys0 = random_compatible(rng, max_dim=2)
    restricted = restrict_system(fs, sys0)
    for depth, support in ((1, None), (2, None), (2, 3), (3, 4)):
        f = random_function(rng, sys0, depth, support)
        n0 = compare_over_depths(
            lambda n: restrict_function(fs, sys0, f, restricted=restricted, depth=n),
            lambda n: reference_restrict(fs, f, restricted, n),
            default=max(depth, 3),
        )
        assert n0 <= depth


@pytest.mark.parametrize("index", [2, 3])
def test_induce_function_matches_reference(rng, index, index2_automaton, index3_automaton):
    fs = schreier_subtree(index2_automaton if index == 2 else index3_automaton)
    subsys = restrict_system(fs, random_compatible(rng, max_dim=2))
    induced = induce_system(fs, subsys)
    full = {u: random_function(rng, subsys, 1) for u in fs.reps}
    sparse = {u: random_function(rng, subsys, 2, support=2) for u in fs.reps}
    for family in (full, sparse):
        # the default depth (9 or more) takes the reference tens of seconds;
        # every depth up to 6 is compared and the default is checked below
        compare_over_depths(
            lambda n: induce_function(fs, subsys, family, induced=induced, depth=n),
            lambda n: reference_induce(fs, subsys, family, induced, n),
            default=6,
        )


def test_induce_function_reads_each_member_over_its_own_system(rng, index3_automaton):
    """Members over distinct but close systems are evaluated in one batch
    per system, each over its own transfers: the ``1e-10`` scaling moves
    the samples, which carry up to two letters past the members' depth, by
    far more than the comparison's ``1e-12``.  Only the sampling depth is
    compared, since deeper values are refined over the induced system,
    which is built from one of the two."""
    fs = schreier_subtree(index3_automaton)
    subsys = restrict_system(fs, random_compatible(rng, max_dim=2))
    nearby = subsys.scale_H(1 + 1e-10)
    assert nearby.close_to(subsys)
    induced = induce_system(fs, subsys)
    reps = sorted(fs.reps, key=Word.sort_key)
    family = {
        u: random_function(rng, nearby if k % 2 else subsys, 2)
        for k, u in enumerate(reps)
    }
    n0 = 1
    while True:
        try:
            want = reference_induce(fs, subsys, family, induced, n0)
            break
        except ValidationError:
            n0 += 1
    got = induce_function(fs, subsys, family, induced=induced, depth=n0)
    assert_same(got, want)


def test_induce_function_default_depth_matches_reference(rng, index2_automaton):
    fs = schreier_subtree(index2_automaton)
    subsys = restrict_system(fs, random_compatible(rng, max_dim=1))
    induced = induce_system(fs, subsys)
    family = {u: random_function(rng, subsys, 1, support=1) for u in fs.reps}
    got = induce_function(fs, subsys, family, induced=induced)
    assert got.depth == 9
    assert_same(got, reference_induce(fs, subsys, family, induced, got.depth))


@pytest.mark.parametrize("images", CHANGEGEN_MAPS, ids=lambda m: f"a{m['a']}-b{m['b']}")
def test_intertwine_changegen_matches_reference(rng, images):
    gm = GeneratorMap(AB, AB, images)
    sys0 = random_compatible(rng, max_dim=2)
    moved = transport_system(gm, sys0)
    for f in (random_function(rng, sys0, 2), random_function(rng, sys0, 2, support=3)):
        default = max(2, f.depth * gm.stretch_to_target)
        n0 = compare_over_depths(
            lambda n: intertwine_changegen(gm, sys0, f, transported=moved, depth=n),
            lambda n: reference_intertwine(gm, sys0, f, moved, n),
            default=default,
        )
        # at the sampling depth the output is the package's batch on the
        # reference's sample words, in the same order
        assert_identical(
            intertwine_changegen(gm, sys0, f, transported=moved, depth=n0),
            batch_intertwine(gm, sys0, f, moved, n0),
        )
        assert intertwine_changegen(gm, sys0, f, transported=moved).depth == default


def test_intertwine_changegen_carries_in_one_product_per_letter(rng):
    """The source words of the sampled sphere are carried together: at
    most one product with the source block matrix per letter that the
    longest of them has past the depth."""
    gm = GeneratorMap(AB, AB, CHANGEGEN_MAPS[0])
    base = random_compatible(rng, max_dim=2)

    class Counted(np.ndarray):
        """The source block matrix, counting the products taken with it."""

        products = 0

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                Counted.products += 1
            plain = tuple(np.asarray(x) for x in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    sys0 = MatrixSystem._unchecked(AB, base.dims, base._H.view(Counted), base._B)
    moved = transport_system(gm, sys0)
    f = random_function(rng, sys0, 2)
    n = 1
    while True:
        try:
            words = [s for _, blocks in sample_words(gm, sys0, f, n) for s in blocks]
            break
        except ValidationError:
            n += 1
    longest = max(len(s) for s in words)
    assert longest - f.depth >= 2

    Counted.products = 0
    out = intertwine_changegen(gm, sys0, f, transported=moved, depth=n)
    assert out.depth == n
    assert 1 <= Counted.products <= longest - f.depth


def test_transport_depth_must_be_a_positive_integer(rng, index2_automaton):
    fs = schreier_subtree(index2_automaton)
    sys0 = random_compatible(rng, max_dim=2)
    f = random_function(rng, sys0, 2)
    gm = GeneratorMap(AB, AB, CHANGEGEN_MAPS[0])
    subsys = restrict_system(fs, sys0)
    family = {u: random_function(rng, subsys, 1) for u in fs.reps}
    for depth in (2.5, 3.0, "3", True, 0):
        with pytest.raises(InputError, match="output depth must be a positive integer"):
            intertwine_changegen(gm, sys0, f, depth=depth)
        with pytest.raises(InputError, match="output depth must be a positive integer"):
            restrict_function(fs, sys0, f, restricted=subsys, depth=depth)
        with pytest.raises(InputError, match="output depth must be a positive integer"):
            induce_function(fs, subsys, family, depth=depth)
