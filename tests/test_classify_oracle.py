"""Exact cone classification against the depth-limited search it replaced.

``GeneratorMap.classify`` stops expanding a source vertex once its image
is long enough that bounded cancellation fixes the verdict on its whole
cone.  The reference below is the earlier brute force: it walks every
source extension up to a length bound derived from the stretch factors,
with no cancellation argument, and is exponential in that bound.  Both
must agree on every (source vertex, target vertex) pair the frontier
computations ask about.
"""

from freemult import GeneratorMap, compute_Y, pruned_subtree
from freemult._kernel_py import (
    DISJOINT,
    INCLUDED,
    MIXED,
    apply_morphism,
    invert,
    multiply,
)
from freemult.words import Word, last_letter, sphere

from .conftest import AB
from .test_changegen import random_nielsen_map


def depth_limited_classify(gm: GeneratorMap, y: Word, z: Word) -> int:
    """Walk every reduced source word ``u`` extending ``y`` with ``|u| <=
    L * (|z| + L') + 2``, tracking ``g(u) = z^-1 * image(u)``; ``u`` lands in
    the target cone iff ``g(u)`` is empty or does not start with the inverse
    of ``z``'s last letter.  A branch is not expanded once ``g`` is longer
    than ``L`` letters per remaining level could erode."""
    images, m = gm._img_table, gm.source.rank
    max_step = gm.stretch_to_target
    limit = max(max_step * (len(z) + gm.stretch_to_source) + 2, len(y))
    bad = -z.data[-1]
    g0 = multiply(invert(z.data), apply_morphism(y.data, images, m))
    seen_in = False
    seen_out = False
    stack = [(g0, y.data[-1], len(y))]
    while stack:
        g, last, depth = stack.pop()
        if not g or g[0] != bad:
            seen_in = True
        else:
            seen_out = True
        if seen_in and seen_out:
            return MIXED
        if depth >= limit or len(g) > (limit - depth) * max_step:
            continue
        for letter in range(-m, m + 1):
            if letter == 0 or letter == -last:
                continue
            stack.append((multiply(g, images[letter + m]), letter, depth + 1))
    return INCLUDED if seen_in else DISJOINT


def memoized_keys(gm: GeneratorMap, radius: int) -> list[tuple[Word, Word, int]]:
    """Run every frontier computation for target cones of length up to
    ``radius``, classify each member against the one-step-deeper cones (the
    question that decides whether it is settled), build the pruned
    subtrees of the one-letter frontiers, and return the verdicts
    ``classify`` memoized."""
    for n in range(1, radius + 1):
        for z in sphere(AB, n):
            front = compute_Y(gm, z)
            for b in AB.letters:
                if b != AB.inverse(last_letter(z)):
                    for y in front.members:
                        gm.classify(y, z * AB.word(b))
            if n == 1:
                for y in front.members:
                    pruned_subtree(gm, y, str(z))
    return [
        (Word(AB, y), Word(AB, z), verdict)
        for (y, z), verdict in gm._classify_memo.items()
    ]


def check(gm: GeneratorMap, keys) -> None:
    assert keys
    for y, z, verdict in keys:
        assert depth_limited_classify(gm, y, z) == verdict, (gm, y, z)


def test_classify_matches_depth_limited_search(rng):
    # Stretch <= 2: every key for target cones of length 1 and 2.
    for _ in range(8):
        gm = random_nielsen_map(rng, max_len=2)
        check(gm, memoized_keys(gm, 2))
    # Stretch 3: the reference takes up to a second per two-letter cone, so
    # only the keys of one-letter cones are compared.
    found = 0
    while found < 3:
        gm = random_nielsen_map(rng)
        if gm.stretch_to_target == 3:
            check(gm, [k for k in memoized_keys(gm, 1) if len(k[1]) == 1])
            found += 1


def test_classify_matches_on_benchmark_map():
    gm = GeneratorMap(AB, AB, {"a": "ab", "b": "bab"})
    keys = memoized_keys(gm, 1)
    assert {v for _, _, v in keys} == {INCLUDED, MIXED, DISJOINT}
    check(gm, [k for k in keys if len(k[1]) == 1])
    check(gm, [k for k in keys if len(k[1]) == 2][:13])
