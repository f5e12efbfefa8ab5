"""Change of free generators and transport of systems across it.

A generator map sends each letter of a source alphabet to a word over a
target alphabet such that the images form a free basis of the target
group.  The two words of the same group element — one over each alphabet —
have comparable lengths, with stretch factors given by the longest image
in each direction.

The cone of a source vertex maps into, out of, or across a target cone.
Deciding which is the backbone of the frontier computation: for a target
vertex ``z``, the frontier ``Y(z)`` is the antichain of minimal source
vertices whose cones embed into the target cone at ``z``.  The decision is
exact: extending a source word cancels at most ``C = floor(L * L' / 2)``
letters of its image (Cooper's bounded cancellation), so a source vertex
whose image has at least ``|z| + C`` letters settles its whole cone.
Frontiers index the blocks of the transported system, and the transported
transfer matrices are propagation products along frontier suffixes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import (
    InputError,
    InternalCheckError,
    ResourceLimitError,
    ValidationError,
)
from .multfunc import MultiplicativeFunction, _evaluator, sample_then_refine
from .subgroup import automaton_from_generators
from .system import MatrixSystem, _assembled
from .tolerances import COMPAT_TOL
from .words import (
    Alphabet, FiniteSubtree, Word, _letter_table, children, drop_last, last_letter
)
from . import _kernel_py as _k

INCLUDED = _k.INCLUDED
MIXED = _k.MIXED
DISJOINT = _k.DISJOINT


class GeneratorMap:
    """A free-basis substitution from a source onto a target alphabet.

    ``images`` maps source letters to nonempty target words; inverse
    letters may be omitted and are filled in by inversion.  Validation
    checks the images generate the whole target group (fold of their rose
    has a single state) and computes the inverse substitution by Nielsen
    reduction; the two routes must agree.

    ``cancellation`` is the bounded-cancellation constant
    ``C = floor(L * L' / 2)``, with ``L = stretch_to_target`` and
    ``L' = stretch_to_source``: for a reduced source word ``u w``, at most
    ``C`` letters of ``expand(u)`` cancel in ``expand(u) * expand(w)``.
    Proof: the source words of the prefixes of ``expand(u w)`` form a path
    from the identity to ``u w`` with jumps of at most ``L'``, so one of
    them lies within ``L' / 2`` of ``u``; its image is a prefix of
    ``expand(u w)`` within ``L * L' / 2`` of ``expand(u)``.
    """

    __slots__ = (
        "source",
        "target",
        "images",
        "back_images",
        "stretch_to_target",
        "stretch_to_source",
        "cancellation",
        "_img_table",
        "_back_table",
        "_classify_memo",
        "_frontier_memo",
    )

    def __init__(
        self,
        source: Alphabet,
        target: Alphabet,
        images: Mapping[str, "Word | str"],
    ):
        if source.size != target.size:
            raise ValidationError(
                "source and target alphabets must have equal rank"
            )
        self.source = source
        self.target = target

        img: dict[str, Word] = {}
        for s, w in images.items():
            if s not in source:
                raise InputError(f"unknown source letter {s!r}")
            img[s] = target.word(w)
        full: dict[str, Word] = {}
        for s in source.letters:
            si = source.inverse(s)
            if s in img:
                full[s] = img[s]
                if si in img and img[si] != img[s].inverse():
                    raise ValidationError(
                        f"images of {s!r} and {si!r} are not inverse"
                    )
            elif si in img:
                full[s] = img[si].inverse()
            else:
                raise InputError(f"no image for letter {s!r} or its inverse")
        for s, w in full.items():
            if len(w) == 0:
                raise ValidationError(f"image of {s!r} is trivial")
        self.images = full

        # Route one: fold the rose of the images; a basis leaves one state.
        positives = _positive_letters(source)
        try:
            aut = automaton_from_generators(
                target, [full[s] for s in positives]
            )
            fold_ok = aut.index == 1
        except ValidationError:
            fold_ok = False

        # Route two: Nielsen-reduce the image tuple while tracking source
        # expressions; a basis reduces to single letters.
        back = _nielsen_back_images(source, target, full, positives)
        if (back is None) == fold_ok:
            raise InternalCheckError(
                "folding and Nielsen reduction disagree on the basis property"
            )
        if back is None:
            raise ValidationError(
                "images do not form a free basis of the target group"
            )
        self.back_images = back

        self.stretch_to_target = max(len(w) for w in full.values())
        self.stretch_to_source = max(len(w) for w in back.values())
        self.cancellation = self.stretch_to_target * self.stretch_to_source // 2

        self._img_table = _letter_table(source, full)
        self._back_table = _letter_table(target, back)
        self._classify_memo: dict[tuple, int] = {}
        self._frontier_memo: dict[str, YFrontier] = {}

        for a in target.letters:
            if self.expand(self.spell(target.word([a]))) != target.word([a]):
                raise InternalCheckError(
                    f"inverse substitution fails on letter {a!r}"
                )

    def expand(self, w: Word) -> Word:
        """Target word of a source word (apply the substitution)."""
        if w.alphabet != self.source:
            raise InputError("expand needs a source-alphabet word")
        return Word(
            self.target,
            _k.apply_morphism(w.data, self._img_table, self.source.rank),
        )

    def spell(self, w: Word) -> Word:
        """Source word of a target word (apply the inverse substitution)."""
        if w.alphabet != self.target:
            raise InputError("spell needs a target-alphabet word")
        return Word(
            self.source,
            _k.apply_morphism(w.data, self._back_table, self.target.rank),
        )

    def classify(self, y: Word, z: Word) -> int:
        """INCLUDED, DISJOINT, or MIXED position of the source cone at ``y``
        relative to the target cone at ``z``.

        Exact: the search expands a source vertex only while its image is
        shorter than ``len(z) + cancellation``; past that the first
        ``len(z)`` letters of the image are fixed on the vertex's cone.
        """
        if len(y) == 0 or len(z) == 0:
            raise ValidationError("cones are rooted at nontrivial vertices")
        key = (y.data, z.data)
        cached = self._classify_memo.get(key)
        if cached is not None:
            return cached
        res = _k.classify_cone(
            y.data, z.data, self._img_table, self.source.rank, self.cancellation
        )
        self._classify_memo[key] = res
        return res

    def __repr__(self) -> str:
        ims = ", ".join(
            f"{s}->{self.images[s]}" for s in _positive_letters(self.source)
        )
        return f"GeneratorMap({ims})"


def _positive_letters(al: Alphabet) -> list[str]:
    return [al._from_int[i] for i in range(1, al.rank + 1)]


def _nielsen_back_images(
    source: Alphabet,
    target: Alphabet,
    images: Mapping[str, Word],
    positives: list[str],
) -> dict[str, Word] | None:
    """Express each target letter as a source word, or ``None`` if the
    images are not a basis.

    Nielsen reduction on pairs ``(image word, source expression)``: as long
    as some product of two tuple entries is shorter than a factor, replace
    that factor; a generating tuple of the free group reduces this way to
    single letters in distinct inverse pairs.
    """
    pairs: list[tuple[Word, Word]] = [
        (images[s], source.word([s])) for s in positives
    ]

    def state_key(ps):
        # Total length first, then the sorted word keys: every applied move
        # strictly decreases this, so the loop terminates.
        return (
            sum(len(w) for w, _ in ps),
            sorted(w.sort_key() for w, _ in ps),
        )

    while True:
        if any(len(w) == 0 for w, _ in pairs):
            return None
        key = state_key(pairs)
        best = None
        n = len(pairs)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                wi, ei = pairs[i]
                for wj, ej in (
                    pairs[j],
                    (pairs[j][0].inverse(), pairs[j][1].inverse()),
                ):
                    for cand in ((wi * wj, ei * ej), (wj * wi, ej * ei)):
                        if len(cand[0]) > len(wi):
                            continue
                        trial = list(pairs)
                        trial[i] = cand
                        tkey = state_key(trial)
                        if tkey < key and (best is None or tkey < best[0]):
                            best = (tkey, trial)
        if best is None:
            break
        pairs = best[1]

    seen: dict[str, Word] = {}
    for w, e in pairs:
        if len(w) != 1:
            return None
        a = last_letter(w)
        ai = target.inverse(a)
        if a in seen or ai in seen:
            return None
        seen[a] = e
        seen[ai] = e.inverse()
    if set(seen) != set(target.letters):
        return None
    return seen


def source_depth_bound(gm: GeneratorMap, z: Word) -> int:
    """Longest source vertex a frontier search for ``z`` can reach.

    A cone is MIXED relative to ``z`` only while its root's image is
    shorter than ``len(z) + cancellation``, and a source word is at most
    ``stretch_to_source`` times longer than its image, so the children of
    MIXED vertices are no longer than this.
    """
    return gm.stretch_to_source * (len(z) + gm.cancellation)


def cone_included(gm: GeneratorMap, y: Word, z: Word) -> bool:
    """Whether the source cone at ``y`` lands inside the target cone at ``z``."""
    return gm.classify(y, z) == INCLUDED


class YFrontier:
    """The minimal source vertices whose cones embed into a target cone.

    ``members`` are in shortlex order.  A member is *settled* when its cone
    already embeds into a deeper cone ``C(z b)`` for some letter ``b``;
    unsettled members are the roots of pruned subtrees.
    """

    __slots__ = ("z", "members", "settled")

    def __init__(self, z: Word, members: tuple[Word, ...], settled: dict[Word, bool]):
        self.z = z
        self.members = members
        self.settled = settled

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"YFrontier({self.z}: {[str(m) for m in self.members]})"


def compute_Y(gm: GeneratorMap, z: Word) -> YFrontier:
    """Frontier of the target cone at ``z`` in the source tree.

    Breadth-first from the root's children: included vertices are members,
    disjoint ones are dropped, mixed ones are expanded.  No vertex is
    longer than ``source_depth_bound``; crossing it means the map is
    inconsistent.
    """
    if z.alphabet != gm.target:
        raise InputError("frontier needs a target-alphabet vertex")
    if len(z) == 0:
        raise ValidationError("frontiers are rooted at nontrivial vertices")
    bound = source_depth_bound(gm, z)
    members: list[Word] = []
    queue: list[Word] = list(children(gm.source.identity))
    while queue:
        y = queue.pop(0)
        if len(y) > bound:
            raise InternalCheckError(
                f"frontier search for {z} passed the depth bound {bound}"
            )
        res = gm.classify(y, z)
        if res == INCLUDED:
            members.append(y)
        elif res == MIXED:
            queue.extend(children(y))
    members.sort(key=Word.sort_key)
    settled = {}
    deeper = [
        z * gm.target.word([b])
        for b in gm.target.letters
        if b != gm.target.inverse(last_letter(z))
    ]
    for y in members:
        settled[y] = any(gm.classify(y, zb) == INCLUDED for zb in deeper)
    return YFrontier(z, tuple(members), settled)


def _letter_frontier(gm: GeneratorMap, a: str) -> YFrontier:
    """:func:`compute_Y` at the target letter ``a``, searched once per map."""
    front = gm._frontier_memo.get(a)
    if front is None:
        front = gm._frontier_memo[a] = compute_Y(gm, gm.target.word([a]))
    return front


def pruned_subtree(gm: GeneratorMap, w: Word, a: str) -> FiniteSubtree:
    """The complete source subtree hanging at a frontier member ``w`` of the
    target letter ``a``, pruned at the deeper frontiers.

    Vertices: the parent of ``w``, then all descendants of ``w`` up to and
    including the first ones whose cones embed into some deeper cone
    ``C(a b)``.
    """
    if a not in gm.target:
        raise InputError(f"unknown target letter {a!r}")
    za = gm.target.word([a])
    if gm.classify(w, za) != INCLUDED:
        raise ValidationError(f"{w} is not a frontier member of {a!r}")
    if len(w) > 1 and gm.classify(drop_last(w), za) == INCLUDED:
        raise ValidationError(f"{w} is not minimal over {a!r}")
    deeper = [
        za * gm.target.word([b])
        for b in gm.target.letters
        if b != gm.target.inverse(a)
    ]
    bound = max(source_depth_bound(gm, zb) for zb in deeper)
    verts = [drop_last(w)]
    queue = [w]
    while queue:
        y = queue.pop(0)
        if len(y) > bound:
            raise InternalCheckError(
                f"pruned subtree at {w} passed the depth bound {bound}"
            )
        verts.append(y)
        if any(gm.classify(y, zb) == INCLUDED for zb in deeper):
            continue
        queue.extend(children(y))
    tree = FiniteSubtree(gm.source, verts)
    if not tree.is_complete:
        raise InternalCheckError("pruned subtree came out incomplete")
    return tree


def _frontier_projection(
    gm: GeneratorMap, front: YFrontier, g: Word
) -> tuple[Word, Word]:
    """Split the source word of ``g`` as (frontier member, remaining suffix).

    ``g`` is a target-alphabet element whose cone embeds into the cone of
    the frontier's root; the member is the unique one on the source
    geodesic of ``g``.
    """
    s = gm.spell(g)
    for k in range(1, len(s) + 1):
        p = s.prefix(k)
        if gm.classify(p, front.z) == INCLUDED:
            if p not in front.settled:
                raise InternalCheckError(
                    f"projection of {g} hit {p}, which is not a frontier member"
                )
            suffix = Word(gm.source, s.data[k:])
            return p, suffix
    raise InternalCheckError(f"no frontier prefix found for {g}")


def transport_system(
    gm: GeneratorMap, sys: MatrixSystem, tol: float = COMPAT_TOL
) -> MatrixSystem:
    """Re-express a system over the source alphabet as one over the target
    alphabet.

    The space at a target letter is the direct sum, over its frontier
    members, of the source spaces at the members' final letters; forms are
    block-diagonal.  A transfer block propagates along the source suffix
    between frontier members, and is the identity when the suffix is
    empty.
    """
    if sys.alphabet != gm.source:
        raise InputError("transport needs a system over the source alphabet")
    al = gm.target
    fronts = {a: _letter_frontier(gm, a) for a in al.letters}
    members = {a: [(y, last_letter(y)) for y in fronts[a].members] for a in al.letters}

    def step(a: str, b: str, zrow: Word) -> tuple[Word, tuple[int, ...]]:
        g = al.word([a]) * gm.expand(zrow)
        member, suffix = _frontier_projection(gm, fronts[a], g)
        return member, suffix.data

    return _assembled(sys, al, members, step, "transport", tol)


def intertwine_changegen(
    gm: GeneratorMap,
    sys: MatrixSystem,
    f: MultiplicativeFunction,
    transported: MatrixSystem | None = None,
    depth: int | None = None,
) -> MultiplicativeFunction:
    """Carry a multiplicative function over the source alphabet to one over
    the target alphabet, preserving norms and the translation action.

    The value of the output at a target word ``x a``, in the block of a
    frontier member ``y`` of ``a``, is the input evaluated at the source
    word of ``x * expand(y)``.  Spelling is a homomorphism and undoes
    ``expand``, so that word is ``spell(x) * y``; ``spell(x)`` is built
    once per prefix ``x`` from the one of ``x`` without its last letter,
    and each source prefix is carried once per call.  The output is
    multiplicative over the transported system, so it is sampled on the
    smallest sphere the input determines and refined.
    """
    if f.system is not sys and not f.system.close_to(sys):
        raise InputError("function does not live over the given system")
    if transported is None:
        transported = transport_system(gm, sys)
    al = gm.target
    n_out = depth if depth is not None else max(2, f.depth * gm.stretch_to_target)
    blocks = {
        a: [(sys.dims[last_letter(y)], y.data) for y in _letter_frontier(gm, a).members]
        for a in al.letters
    }
    back, rank = gm._back_table, al.rank
    spelled: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}

    def spell(x: tuple[int, ...]) -> tuple[int, ...]:
        s = spelled.get(x)
        if s is None:
            s = spelled[x] = _k.multiply(spell(x[:-1]), back[x[-1] + rank])
        return s

    value = _evaluator(f)

    def sample(xa: Word) -> np.ndarray | None:
        a = last_letter(xa)
        head = spell(xa.data[:-1])
        vec = np.zeros(transported.dims[a], dtype=complex)
        pos = 0
        for d, y in blocks[a]:
            s = _k.multiply(head, y)
            if len(s) < f.depth:
                return None
            vec[pos : pos + d] = value(s)
            pos += d
        return vec

    return sample_then_refine(transported, n_out, sample, f.depth)
