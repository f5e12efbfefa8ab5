"""Array-backed multiplicative functions against the dict code they replaced.

``refine``, ``inner_product`` and ``functions_close`` work on per-letter
arrays of word codes and stacked values.  The references below are the
earlier implementations over ``Word``-keyed dicts, reading the functions
only through their ``values`` view and building results through the
public constructor.  Values must agree to ``1e-12`` relative and supports
exactly, on random systems with zero-dimensional letters and on full and
sparse supports.  Word codes must round-trip and sort in shortlex order.

Propagation keeps zero rows and only storing drops them, while the
reference drops them after every step.  The kernel cases pin that move:
small-integer rank-deficient transfers, values in their kernels and a
nilpotent pair make exact zero children on both routes.

A propagation step reads each digit's children off one product array, as
runs of adjacent parent groups.  The product-run cases pin that read: zero
blocks split a digit's parents into several runs or leave a digit with
none, and ``act`` takes its single-digit and all-but-one steps over them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import (
    Alphabet,
    CosetAutomaton,
    MatrixSystem,
    MultiplicativeFunction,
    ResourceLimitError,
    act,
    functions_close,
    inner_product,
    refine,
    schreier_subtree,
    shadow,
)
from freemult import multfunc
from freemult.errors import InternalCheckError
from freemult.multfunc import (
    _decode,
    _digits,
    _encode,
    _evaluate_batch,
    sample_then_refine,
)
from freemult.words import Word, last_letter, sphere

from .conftest import AB, _pairs

ABC = Alphabet("aAbBcC")
# Free basis of an index-3 subgroup of F_2: rank 4, eight letters.
SUB4 = schreier_subtree(
    CosetAutomaton(
        AB, {"a": [1, 0, 2], "A": [1, 0, 2], "b": [2, 1, 0], "B": [2, 1, 0]}, size=3
    )
).subgroup_alphabet


# ------------------------------------------------------------ references


def _reference_layer(values):
    groups = {}
    for x, v in values.items():
        keys, rows = groups.setdefault(x.data[-1], ([], []))
        keys.append(x.data)
        rows.append(v)
    return {t: (keys, np.stack(rows)) for t, (keys, rows) in groups.items()}


def _reference_step(sysm, layer):
    al = sysm.alphabet
    fi = al._from_int
    grown = {}
    for t, (keys, V) in layer.items():
        for c in al._file_ints:
            if c == -t:
                continue
            if (fi[c], fi[t]) not in sysm.stored_pairs():
                continue
            m = sysm.H(fi[c], fi[t])
            W = V @ m.T
            keep = W.any(axis=1)
            if not keep.all():
                W = W[keep]
                kept = [k for k, ok in zip(keys, keep) if ok]
            else:
                kept = keys
            if kept:
                ks, ws = grown.setdefault(c, ([], []))
                ks.extend(k + (c,) for k in kept)
                ws.append(W)
    return {c: (ks, np.concatenate(ws)) for c, (ks, ws) in grown.items()}


def reference_refine(f, depth):
    if depth == f.depth:
        return f
    layer = _reference_layer(f.values)
    for _ in range(depth - f.depth):
        layer = _reference_step(f.system, layer)
    al = f.alphabet
    values = {
        Word(al, k): row for keys, V in layer.values() for k, row in zip(keys, V)
    }
    return MultiplicativeFunction(f.system, depth, values)


def reference_inner_product(f, g):
    d = max(f.depth, g.depth)
    fr = reference_refine(f, d)
    gr = reference_refine(g, d)
    total = 0.0 + 0.0j
    for x, v in fr.values.items():
        w = gr.values.get(x)
        if w is not None:
            total += v.conj() @ f.system.B(last_letter(x)) @ w
    return complex(total)


def reference_functions_close(f, g, tol):
    d = max(f.depth, g.depth)
    fr = reference_refine(f, d)
    gr = reference_refine(g, d)
    for x in set(fr.values) | set(gr.values):
        v = fr.values.get(x)
        w = gr.values.get(x)
        if v is None:
            v = np.zeros_like(w)
        if w is None:
            w = np.zeros_like(v)
        if np.linalg.norm(v - w) > tol:
            return False
    return True


def reference_value(f, data):
    """``f`` at the word with signed letters ``data``, one word and one
    letter at a time: the stored value at its prefix of the depth (zero
    when none is stored), then one transfer per further letter.  Also
    returns ``|value at the prefix|`` times the 2-norms of those
    transfers, which bounds the value and scales its rounding error."""
    al, sysm = f.alphabet, f.system
    fi = al._from_int
    v = f.values.get(Word(al, data[: f.depth]))
    if v is None:
        v = np.zeros(sysm.dims[fi[data[f.depth - 1]]], dtype=complex)
    bound = np.linalg.norm(v)
    for prev, cur in zip(data[f.depth - 1 :], data[f.depth :]):
        m = sysm.H(fi[cur], fi[prev])
        v = m @ v
        bound *= np.linalg.norm(m, 2) if m.size else 0.0
    return v, bound


# --------------------------------------------------------------- helpers


def system_with_empty_letters(rng, al):
    """Gaussian transfers and identity forms; a letter and its inverse may
    have dimension zero, but not every letter."""
    dims = {a: int(rng.integers(0, 3)) for a in al.letters}
    if not any(dims.values()):
        dims[al.letters[0]] = 1
    H = {}
    for b, a in _pairs(al):
        shape = (dims[b], dims[a])
        H[(b, a)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    B = {a: np.eye(dims[a]) for a in al.letters}
    return MatrixSystem(al, dims, H, B)


def reference_act(x, f):
    """``act`` through the reference steps: every word ``w`` of length
    ``N`` to ``N + 2|x|`` with a nonzero value, read at ``z = x w`` where
    ``|z| = N + |x|``."""
    al, n_out = f.alphabet, f.depth + len(x)
    layer = _reference_layer(f.values)
    out = {}
    for k in range(2 * len(x) + 1):
        if k:
            layer = _reference_step(f.system, layer)
        for keys, V in layer.values():
            for key, v in zip(keys, V):
                z = x * Word(al, key)
                if len(z) == n_out:
                    out[z] = v
    return MultiplicativeFunction(f.system, n_out, out)


def _integers(rng, *shape):
    return rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)


def _kernel_vector(rng, rows, n):
    """An integer vector ``k``, possibly zero, with ``row @ k = 0`` for
    each given row (fewer than ``n <= 3`` of them): the bilinear cross
    product of ``n - 1`` rows, padded with random ones."""
    rows = list(rows) + [_integers(rng, n) for _ in range(n - 1 - len(rows))]
    if n == 1:
        return _integers(rng, 1)
    if n == 2:
        return np.array([rows[0][1], -rows[0][0]])
    return np.cross(rows[0], rows[1])


def kernel_system(rng, al):
    """Small-integer transfers of rank below their size (each ``U @ V``),
    identity forms, letters of dimension 0-3, and a nilpotent pair
    ``H(c, b) H(b, a) = 0`` through a two-dimensional ``b``.  Returns the
    system and each block's right factor ``V``, whose kernel the block
    annihilates."""
    letters = al.letters
    a = letters[int(rng.integers(len(letters)))]
    b = rng.choice([s for s in letters if s not in (a, al.inverse(a))])
    c = rng.choice([s for s in letters if s not in (b, al.inverse(b))])
    dims = {s: int(rng.integers(0, 4)) for s in letters}
    dims[a], dims[b], dims[c] = max(dims[a], 1), 2, max(dims[c], 1)
    H, right = {}, {}
    for t, s in _pairs(al):
        m, n = dims[t], dims[s]
        r = int(rng.integers(0, max(min(m, n), 1)))
        right[(t, s)] = _integers(rng, r, n)
        H[(t, s)] = _integers(rng, m, r) @ right[(t, s)]
    right[(b, a)] = _integers(rng, 1, dims[a])
    H[(b, a)] = np.array([[1], [1]]) @ right[(b, a)]
    right[(c, b)] = np.array([[1, -1]])
    H[(c, b)] = _integers(rng, dims[c], 1) @ right[(c, b)]
    sys = MatrixSystem(al, dims, H, {s: np.eye(dims[s]) for s in letters})
    return sys, right


def kernel_function(rng, sys, right, depth, sparse):
    """Integer values; at about half the words, a vector in the kernel of
    the block to a random next letter, and at some words zero."""
    al = sys.alphabet
    values = {}
    for w in sphere(al, depth):
        if sparse and rng.random() < 0.5:
            continue
        t = last_letter(w)
        n = sys.dims[t]
        kind = rng.random()
        if kind < 0.1:
            values[w] = np.zeros(n)
        elif kind < 0.6 and n:
            nxt = [s for s in al.letters if s != al.inverse(t)]
            V = right[(nxt[int(rng.integers(len(nxt)))], t)]
            values[w] = _kernel_vector(rng, V, n)
        else:
            values[w] = _integers(rng, n)
    return MultiplicativeFunction(sys, depth, values)


def random_function(rng, sys, depth, sparse):
    words = sphere(sys.alphabet, depth)
    if sparse:
        words = [w for w in words if rng.random() < 0.3]
    values = {}
    for w in words:
        d = sys.dims[last_letter(w)]
        values[w] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultiplicativeFunction(sys, depth, values)


def assert_same(got, want):
    assert got.depth == want.depth
    assert got.support() == want.support()
    scale = max((np.linalg.norm(v) for v in want.values.values()), default=1.0)
    for w, v in want.values.items():
        assert np.linalg.norm(got.values[w] - v) <= 1e-12 * scale, w


def max_gap(f, g):
    d = max(f.depth, g.depth)
    fr, gr = reference_refine(f, d), reference_refine(g, d)
    gaps = []
    for x in set(fr.values) | set(gr.values):
        v, w = fr.values.get(x), gr.values.get(x)
        gaps.append(np.linalg.norm(v if w is None else w if v is None else v - w))
    return max(gaps, default=0.0)


cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([AB, ABC]),
    st.integers(1, 3),
    st.integers(0, 2),
    st.booleans(),
    st.booleans(),
)


# ----------------------------------------------------------------- tests


@given(cases)
@settings(max_examples=40, deadline=None)
def test_array_path_matches_dict_reference(case):
    seed, al, depth, extra, sparse_f, sparse_g = case
    rng = np.random.default_rng(seed)
    sys0 = system_with_empty_letters(rng, al)
    f = random_function(rng, sys0, depth, sparse_f)
    g = random_function(rng, sys0, depth + extra, sparse_g)

    assert_same(refine(f, depth + extra), reference_refine(f, depth + extra))

    for x, y in ((f, g), (g, f), (f, f)):
        want = reference_inner_product(x, y)
        norms = abs(reference_inner_product(x, x) * reference_inner_product(y, y))
        scale = max(1.0, norms**0.5)
        assert abs(inner_product(x, y) - want) <= 1e-12 * scale

    assert functions_close(f, refine(f, depth + extra), tol=1e-9)
    assert reference_functions_close(f, refine(f, depth + extra), tol=1e-9)
    # one value of f moved: the gap is that change, seen at either depth
    support = f.support()
    if support:
        w = support[int(rng.integers(len(support)))]
        moved = dict(f.values)
        moved[w] = moved[w] * (1 + 1e-3)
        pairs = [(f, MultiplicativeFunction(sys0, depth, moved)), (f, g)]
    else:
        pairs = [(f, g)]
    for x, y in pairs:
        gap = max_gap(x, y)
        if gap > 1e-9:
            for tol, want in ((gap / 2, False), (gap * 2, True)):
                assert reference_functions_close(x, y, tol) is want
                assert functions_close(x, y, tol) is want
                assert functions_close(y, x, tol) is want


# deepest sphere each kernel case walks, about 3,000 words or fewer
KERNEL_DEPTH = {AB: 7, ABC: 5, SUB4: 4}


@pytest.mark.parametrize("al", [AB, ABC, SUB4], ids=["AB", "ABC", "SUB4"])
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 2),
    st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_kernel_cases_match_reference_steps(al, seed, depth, extra, length, sparse):
    """Exact zero children: ``refine`` and ``act`` against the reference,
    which drops zero rows after every step."""
    rng = np.random.default_rng(seed)
    cap = KERNEL_DEPTH[al]
    depth = min(depth, cap)
    extra = min(extra, cap - depth)
    length = min(length, (cap - depth) // 2)
    sys0, right = kernel_system(rng, al)
    f = kernel_function(rng, sys0, right, depth, sparse)
    assert_same(refine(f, depth + extra), reference_refine(f, depth + extra))
    words = sphere(al, length)
    x = words[int(rng.integers(len(words)))]
    assert_same(act(x, f), reference_act(x, f))


def gaussian_system(rng, al, dims, zero):
    """Gaussian transfers with zero blocks at the pairs in ``zero``, and
    identity forms."""
    H = {}
    for b, a in _pairs(al):
        if (b, a) not in zero:
            shape = (dims[b], dims[a])
            H[(b, a)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return MatrixSystem(al, dims, H, {a: np.eye(dims[a]) for a in al.letters})


# From the second step of a refinement on, a layer's groups come in
# alphabet order.  "split": over aAbBcC the parents of digit a are a, b, c
# and C (three runs), those of c are a, A, B and c (two runs).  "unfed":
# nothing maps into b, so digit b has no parent group.
RUN_CASES = {
    "split": (ABC, dict(zip("aAbBcC", (2, 1, 2, 2, 1, 2))), {("a", "B"), ("c", "b")}),
    "unfed": (AB, dict(zip("aAbB", (2, 1, 2, 1))), {("b", x) for x in "aAb"}),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_product_runs_match_reference(case, monkeypatch):
    """``refine`` and ``act`` against the reference where zero blocks
    between letters of nonzero dimension split or empty a digit's parent
    groups, through ``act``'s single-digit and all-but-one steps too."""
    al, dims, zero = RUN_CASES[case]
    rng = np.random.default_rng(20)
    sys0 = gaussian_system(rng, al, dims, zero)
    stored = sys0.stored_pairs()
    assert zero.isdisjoint(stored)
    cap = KERNEL_DEPTH[al]
    allowed = []
    step = multfunc._step

    def recorded(sysm, layer, allowed_digits=None):
        allowed.append(None if allowed_digits is None else len(allowed_digits))
        out = step(sysm, layer, allowed_digits)
        # exactly the parents with a stored block into c: a bridged gap
        # would add zero rows that storing hides
        letters = al.letters
        for c, (codes, _) in out.items():
            fed = [t for t in layer if (letters[c], letters[t]) in stored]
            assert len(codes) == sum(len(layer[t][0]) for t in fed)
        return out

    monkeypatch.setattr(multfunc, "_step", recorded)
    for depth in (1, 2):
        f = random_function(rng, sys0, depth, sparse=False)
        g = refine(f, cap)
        assert_same(g, reference_refine(f, cap))
        if case == "unfed":
            assert al.letters.index("b") not in g._groups
        for length in range(1, (cap - depth) // 2 + 1):
            words = sphere(al, length)
            for i in rng.choice(len(words), size=3, replace=False):
                assert_same(act(words[i], f), reference_act(words[i], f))
    assert {1, al.size - 1} <= set(allowed)


def test_nilpotent_pair_leaves_no_zero_rows():
    """``H(a, b) H(b, a) = 0``: refining the shadow at ``a`` to depth
    three loses ``aba`` and stores no zero row."""
    dims = {"a": 1, "A": 1, "b": 2, "B": 1}
    H = {(t, s): np.ones((dims[t], dims[s])) for t, s in _pairs(AB)}
    H[("a", "b")] = np.array([[1.0, -1.0]])
    sys0 = MatrixSystem(AB, dims, H, {s: np.eye(dims[s]) for s in AB.letters})
    f = refine(shadow(sys0, AB.word("a"), [1.0]), 3)
    assert AB.word("aba") not in f.values
    assert len(f.values) == 9 - 1
    for _, V in f._groups.values():
        assert V.any(axis=1).all()
    assert_same(f, reference_refine(shadow(sys0, AB.word("a"), [1.0]), 3))


@given(st.sampled_from([AB, SUB4]), st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_word_codes_round_trip_in_shortlex_order(al, depth, data):
    """Codes on spheres of depth 1-6 decode back to their words, and sort
    like ``Word.sort_key``."""
    q = al.size
    picks = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=depth, max_size=depth),
            min_size=1,
            max_size=30,
        )
    )
    words = []
    for pick in picks:
        # each letter is picked among those that do not cancel the one before
        ints = []
        for k in pick:
            allowed = [i for i in al._file_ints if not ints or i != -ints[-1]]
            ints.append(allowed[k % len(allowed)])
        words.append(Word(al, tuple(ints)))
    codes = np.array([_encode(al, w.data) for w in words], dtype=np.int64)
    assert codes.min() >= 0 and codes.max() < q**depth
    assert _decode(al, depth, codes) == words
    by_code = [words[i] for i in np.argsort(codes, kind="stable")]
    assert by_code == sorted(words, key=Word.sort_key)


def test_code_overflow_raises_before_allocating():
    """40 letters at depth 12 (within the depth cap) need codes up to
    40**12 > 2**63.  The transfers are zero, so nothing would be allocated
    even without the guard; refinement to depth 11 still works."""
    al = Alphabet("abcdefghijklmnopqrst" + "abcdefghijklmnopqrst".upper())
    assert al.size == 40
    sys40 = MatrixSystem(
        al, {a: 1 for a in al.letters}, {}, {a: np.eye(1) for a in al.letters}
    )
    f = shadow(sys40, al.word("a"), [1.0])
    assert refine(f, 11).support() == []
    with pytest.raises(ResourceLimitError):
        refine(f, 12)
    with pytest.raises(ResourceLimitError):
        MultiplicativeFunction(sys40, 12, {})
    with pytest.raises(ResourceLimitError):
        act(al.word("b" * 11), f)

    def sample(w):
        raise AssertionError("sampled past the code guard")

    with pytest.raises(ResourceLimitError):
        sample_then_refine(sys40, 12, sample, [f])


def _reduced(al, picks):
    """The word whose letter ``i`` is pick ``i`` among the letters that do
    not cancel the one before."""
    ints = []
    for k in picks:
        allowed = [i for i in al._file_ints if not ints or i != -ints[-1]]
        ints.append(allowed[k % len(allowed)])
    return tuple(ints)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([AB, ABC, SUB4]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_batch_matches_one_word_at_a_time(seed, al, depth, extra, data):
    """The batched evaluation against a letter-by-letter one, word by
    word: words of mixed lengths from the depth up, mostly unstored
    prefixes (the first function is sparse), a letter of dimension zero,
    and two functions of different depths in one batch, as induction
    makes them."""
    rng = np.random.default_rng(seed)
    dims = {a: int(rng.integers(1, 3)) for a in al.letters}
    dims[al.letters[int(rng.integers(al.size))]] = 0
    sys0 = gaussian_system(rng, al, dims, set())
    functions = [
        random_function(rng, sys0, depth, sparse=True),
        random_function(rng, sys0, depth + extra, sparse=False),
    ]
    words, which = [], []
    for k in data.draw(st.lists(st.integers(0, 1), max_size=30)):
        length = functions[k].depth + data.draw(st.integers(0, 4))
        picks = data.draw(
            st.lists(st.integers(0, al.size - 1), min_size=length, max_size=length)
        )
        words.append(_reduced(al, picks))
        which.append(k)
    X = _evaluate_batch(
        sys0, functions, *_digits(al, words), np.array(which, dtype=np.int64)
    )
    assert X.shape == (len(words), sys0.total_dim)
    for row, w, k in zip(X, words, which):
        last = al._from_int[w[-1]]
        want, bound = reference_value(functions[k], w)
        s = sys0._slices[last]
        assert np.linalg.norm(row[s] - want) <= 1e-12 * max(bound, 1e-300)
        assert not row[: s.start].any() and not row[s.stop :].any()


def test_batch_over_budget_raises_before_allocating(monkeypatch):
    """A batch whose words times the total dimension exceed the budget
    raises before its value array (16 bytes an entry) is allocated."""
    dims = {a: 3 for a in ABC.letters}
    sys0 = gaussian_system(np.random.default_rng(3), ABC, dims, set())
    f = shadow(sys0, ABC.word("a"), np.ones(3))
    digits, starts, lengths = _digits(ABC, [w.data for w in sphere(ABC, 5)][:1001])
    which = np.zeros(len(starts), dtype=np.int64)
    monkeypatch.setattr(multfunc, "PROPAGATION_BUDGET", 18 * 1000)
    X = _evaluate_batch(sys0, [f], digits, starts[:1000], lengths[:1000], which[:1000])
    assert X.shape == (1000, 18)
    refused = 16 * 18 * 1001
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="batch of 1001 words"):
            _evaluate_batch(sys0, [f], digits, starts, lengths, which)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < refused


STORE_REJECTS = {
    "codes dtype": (np.array([0, 8], dtype=np.int32), np.ones((2, 2), complex)),
    "values dtype": (np.array([0, 8], dtype=np.int64), np.ones((2, 2))),
    "values shape": (np.array([0, 8], dtype=np.int64), np.ones((2, 3), complex)),
    "codes shape": (np.array([[8]], dtype=np.int64), np.ones((1, 2), complex)),
    "code below range": (np.array([-4, 8], dtype=np.int64), np.ones((2, 2), complex)),
    "code above range": (np.array([0, 16], dtype=np.int64), np.ones((2, 2), complex)),
    "last digit": (np.array([0, 9], dtype=np.int64), np.ones((2, 2), complex)),
    "duplicate code": (np.array([8, 8], dtype=np.int64), np.ones((2, 2), complex)),
}


@pytest.mark.parametrize("case", sorted(STORE_REJECTS))
def test_store_rejects_a_corrupt_layer(case):
    """``_from_layer`` refuses a layer the package's producers could not
    have built: depth 2 over ``aAbB`` has codes ``0..15``, and the words
    ending at ``a`` (digit 0) have codes divisible by 4, such as ``aa``
    (0) and ``ba`` (8).  The rows are nonzero, so none is dropped before
    the code checks."""
    dims = {a: 2 for a in AB.letters}
    sys0 = gaussian_system(np.random.default_rng(4), AB, dims, set())
    good = MultiplicativeFunction._from_layer(
        sys0, 2, {0: (np.array([0, 8], dtype=np.int64), np.ones((2, 2), complex))}
    )
    assert good.support() == [AB.word("aa"), AB.word("ba")]
    with pytest.raises(InternalCheckError):
        MultiplicativeFunction._from_layer(sys0, 2, {0: STORE_REJECTS[case]})
