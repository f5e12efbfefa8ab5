"""Finite-index subgroups: coset automata, Schreier subtrees, factorization.

A finite-index subgroup is represented by its coset automaton: one state
per right coset of the subgroup, the base state for the subgroup itself,
each letter acting as a permutation of the states.  The automaton is
either given by letter permutations or folded from a generating set.

The shortlex representatives of the states form a prefix-closed
fundamental domain ``D``; walking its boundary yields a free basis of the
subgroup (one generator per non-tree transition), the subgroup alphabet.
Every group element factors uniquely as a subgroup element times a member
of ``D``; ``decompose_left`` computes that factorization together with the
subgroup-alphabet spelling of the subgroup part.
"""

from __future__ import annotations

from numbers import Integral
from typing import Iterable, Mapping, Sequence

from . import _kernel_py as _k
from .errors import InputError, InternalCheckError, ValidationError
from .words import (
    Alphabet, FiniteSubtree, Word, _letter_table, cone_contains, drop_last, last_letter
)


class CosetAutomaton:
    """Letters acting as permutations of coset states; base state ``0``."""

    __slots__ = ("alphabet", "size", "_delta")

    def __init__(
        self,
        alphabet: Alphabet,
        transitions: Mapping[str, Sequence[int]],
        size: int | None = None,
    ):
        self.alphabet = alphabet
        perms: dict[str, tuple[int, ...]] = {}
        for s, p in transitions.items():
            if s not in alphabet:
                raise InputError(f"unknown letter {s!r} in transitions")
            if not isinstance(p, (list, tuple)) or not all(map(_is_int, p)):
                raise InputError(f"transitions of {s!r} must be a list of integers")
            perms[s] = tuple(int(v) for v in p)
        lengths = {len(p) for p in perms.values()}
        if size is None:
            if len(lengths) != 1:
                raise InputError("transition tables must share one length")
            size = lengths.pop()
        if not _is_int(size) or size < 1:
            raise InputError(f"automaton size must be a positive integer, got {size!r}")
        if lengths and lengths != {size}:
            raise InputError("transition tables must match the declared size")
        self.size = size

        delta: dict[str, tuple[int, ...]] = {}
        for a in alphabet.letters:
            inv = alphabet.inverse(a)
            if a in perms:
                p = perms[a]
            elif inv in perms:
                p = _inverse_perm(perms[inv], size)
            else:
                raise InputError(f"no transitions for letter {a!r} or its inverse")
            if sorted(p) != list(range(size)):
                raise ValidationError(f"letter {a!r} does not act as a permutation")
            delta[a] = p
        for a in alphabet.letters:
            if _inverse_perm(delta[a], size) != delta[alphabet.inverse(a)]:
                raise ValidationError(
                    f"letters {a!r} and its inverse do not act inversely"
                )
        self._delta = delta

        reached = {0}
        frontier = [0]
        while frontier:
            s = frontier.pop()
            for a in alphabet.letters:
                t = delta[a][s]
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        if len(reached) != size:
            raise ValidationError("coset automaton is not connected from the base")

    @property
    def index(self) -> int:
        return self.size

    def step(self, state: int, letter: str) -> int:
        return self._delta[letter][state]

    def run(self, state: int, word: Word) -> int:
        fi = self.alphabet._from_int
        for i in word.data:
            state = self._delta[fi[i]][state]
        return state

    def contains(self, word: Word) -> bool:
        """Membership of the group element in the subgroup."""
        return self.run(0, word) == 0

    def __repr__(self) -> str:
        return f"CosetAutomaton(index={self.size})"


def _is_int(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _inverse_perm(p: Sequence[int], size: int) -> tuple[int, ...]:
    out = [0] * size
    for i, v in enumerate(p):
        if not 0 <= v < size:
            raise ValidationError("transition target out of range")
        out[v] = i
    return tuple(out)


def automaton_from_generators(
    alphabet: Alphabet, generators: Iterable[Word]
) -> CosetAutomaton:
    """Fold the rose of the generators into a coset automaton.

    Fails with a validation error when the folded graph is incomplete,
    i.e. the generated subgroup has infinite index.
    """
    edges: list[tuple[int, int, int]] = []  # (vertex, letter int, vertex)
    count = 1  # vertex 0 is the base
    for g in generators:
        if isinstance(g, str):
            g = alphabet.word(g)
        elif g.alphabet != alphabet:
            raise InputError("generator over a different alphabet")
        if len(g) == 0:
            continue
        cur = 0
        for pos, c in enumerate(g.data):
            nxt = 0 if pos == len(g.data) - 1 else count
            if nxt != 0:
                count += 1
            edges.append((cur, c, nxt))
            edges.append((nxt, -c, cur))
            cur = nxt

    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    changed = True
    while changed:
        changed = False
        seen: dict[tuple[int, int], int] = {}
        for u, c, v in edges:
            ru, rv = find(u), find(v)
            key = (ru, c)
            other = seen.get(key)
            if other is None:
                seen[key] = rv
            else:
                ro = find(other)
                if ro != rv:
                    parent[max(ro, rv)] = min(ro, rv)
                    changed = True

    delta: dict[tuple[int, int], int] = {}
    for u, c, v in edges:
        delta[(find(u), c)] = find(v)

    for (u, c) in list(delta):
        for s in alphabet._file_ints:
            if (u, s) not in delta:
                raise ValidationError(
                    "folded graph is incomplete: the subgroup has infinite index"
                )

    # Canonical state numbering by breadth-first search in letter file order.
    base = find(0)
    order = {base: 0}
    queue = [base]
    while queue:
        u = queue.pop(0)
        for s in alphabet._file_ints:
            v = delta[(u, s)]
            if v not in order:
                order[v] = len(order)
                queue.append(v)
    size = len(order)

    transitions: dict[str, list[int]] = {a: [0] * size for a in alphabet.letters}
    for (u, c), v in delta.items():
        if u in order and v in order:
            transitions[alphabet._from_int[c]][order[u]] = order[v]
    return CosetAutomaton(alphabet, transitions, size)


class FundamentalSubtree:
    """Shortlex fundamental domain of a coset automaton with its Schreier
    basis and boundary data.

    ``reps[s]`` is the representative word of state ``s``; the domain ``D``
    is prefix-closed.  Each non-tree transition contributes a subgroup
    generator; the subgroup alphabet names them ``g1, G1, g2, ...`` with
    uppercase inverses.  For each subgroup letter, ``contact`` is the
    unique vertex of (letter) * D at distance one from ``D`` and
    ``contact_letter`` its final letter.
    """

    __slots__ = (
        "automaton",
        "reps",
        "subgroup_alphabet",
        "gamma_of",
        "symbol_of",
        "contact",
        "contact_letter",
        "_rep_set",
        "_gamma_table",
    )

    def __init__(self, automaton: CosetAutomaton):
        al = automaton.alphabet
        reps: list[Word | None] = [None] * automaton.size
        reps[0] = al.identity
        queue = [0]
        while queue:
            s = queue.pop(0)
            u = reps[s]
            for a in al.letters:
                t = automaton.step(s, a)
                if reps[t] is None:
                    reps[t] = u * al.word([a])
                    queue.append(t)
        self.automaton = automaton
        self.reps = tuple(reps)  # BFS gives shortlex-minimal representatives
        self._rep_set = {w: s for s, w in enumerate(self.reps)}
        for w in self.reps:
            if len(w) > 0 and drop_last(w) not in self._rep_set:
                raise InternalCheckError("fundamental domain is not prefix-closed")

        # Schreier generators from non-tree transitions, deduplicated.
        gammas: list[Word] = []
        gamma_set: set[Word] = set()
        for s in range(automaton.size):
            u = self.reps[s]
            for a in al.letters:
                t = automaton.step(s, a)
                g = u * al.word([a]) * self.reps[t].inverse()
                if len(g) == 0 or g in gamma_set:
                    continue
                gamma_set.add(g)
                gi = g.inverse()
                if gi in gamma_set:
                    continue
                gammas.append(g)
        expected = 1 + automaton.size * (al.rank - 1)
        if len(gammas) != expected:
            raise InternalCheckError(
                f"Schreier basis has {len(gammas)} generators, expected {expected}"
            )

        symbols: list[str] = []
        gamma_of: dict[str, Word] = {}
        for k, g in enumerate(gammas, start=1):
            pos, neg = f"g{k}", f"G{k}"
            symbols.extend([pos, neg])
            gamma_of[pos] = g
            gamma_of[neg] = g.inverse()
        if len(symbols) == 2:
            raise ValidationError(
                "subgroup has rank one; systems need rank at least two"
            )
        inv_map = {f"g{k}": f"G{k}" for k in range(1, len(gammas) + 1)}
        self.subgroup_alphabet = Alphabet(symbols, inv_map)
        self.gamma_of = gamma_of
        self.symbol_of = {g: s for s, g in gamma_of.items()}
        self._gamma_table = _letter_table(self.subgroup_alphabet, gamma_of)

        contact: dict[str, Word] = {}
        contact_letter: dict[str, str] = {}
        for sym, g in gamma_of.items():
            hits = []
            for u in self.reps:
                v = g * u
                if v not in self._rep_set and len(v) > 0 and drop_last(v) in self._rep_set:
                    hits.append(v)
            if len(hits) != 1:
                raise InternalCheckError(
                    f"expected one contact vertex for {sym}, found {len(hits)}"
                )
            x = hits[0]
            for u in self.reps:
                if not cone_contains(x, g * u):
                    raise InternalCheckError(
                        f"translated domain of {sym} leaves the cone at its contact"
                    )
            contact[sym] = x
            contact_letter[sym] = last_letter(x)
        self.contact = contact
        self.contact_letter = contact_letter

    def state_of(self, x: Word) -> int:
        return self.automaton.run(0, x)

    def in_domain(self, x: Word) -> bool:
        return x in self._rep_set

    def expand(self, w: Word) -> Word:
        """Group word of a subgroup-alphabet word."""
        if w.alphabet != self.subgroup_alphabet:
            raise InputError("word over a different subgroup alphabet")
        return Word(
            self.automaton.alphabet,
            _k.apply_morphism(w.data, self._gamma_table, w.alphabet.rank),
        )

    def __repr__(self) -> str:
        return (
            f"FundamentalSubtree(index={self.automaton.size}, "
            f"rank={self.subgroup_alphabet.rank})"
        )


def schreier_subtree(automaton: CosetAutomaton) -> FundamentalSubtree:
    """Shortlex fundamental domain with Schreier basis and boundary data."""
    return FundamentalSubtree(automaton)


def complete_D(fs: FundamentalSubtree) -> FiniteSubtree:
    """The domain together with all contact vertices: a complete subtree
    whose terminals are exactly the contacts and whose interior is the
    domain."""
    al = fs.automaton.alphabet
    verts = set(fs.reps) | set(fs.contact.values())
    tree = FiniteSubtree(al, verts)
    if not tree.is_complete:
        raise InternalCheckError("augmented domain is not a complete subtree")
    if tree.terminals != frozenset(fs.contact.values()):
        raise InternalCheckError("terminals of the augmented domain are off")
    if tree.interior != frozenset(fs.reps):
        raise InternalCheckError("interior of the augmented domain is off")
    return tree


def decompose_left(fs: FundamentalSubtree, x: Word) -> tuple[Word, Word, Word]:
    """Factor ``x = gamma * u`` with ``gamma`` in the subgroup, ``u`` in the
    domain.

    Returns ``(spelling, gamma, u)`` where ``spelling`` is the word over
    the subgroup alphabet evaluating to ``gamma``.
    """
    aut = fs.automaton
    al = aut.alphabet
    if x.alphabet != al:
        raise InputError("word over a different alphabet")
    delta, letter, reps = aut._delta, al._from_int, fs.reps
    u = reps[aut.run(0, x)]
    gamma = _k.multiply(x.data, _k.invert(u.data))

    syms: list[str] = []
    r = ()
    state = 0
    for i in gamma:
        nxt = delta[letter[i]][state]
        cand = _k.multiply(r, (i,))
        target = reps[nxt].data
        if cand != target:
            g1 = Word(al, _k.multiply(cand, _k.invert(target)))
            sym = fs.symbol_of.get(g1)
            if sym is None:
                raise InternalCheckError(
                    f"non-tree step produced an unknown generator {g1}"
                )
            syms.append(sym)
        r = target
        state = nxt
    if r or state != 0:
        raise InternalCheckError("subgroup element did not return to the base")
    spelling = fs.subgroup_alphabet.word(syms)
    if fs.expand(spelling).data != gamma:
        raise InternalCheckError("spelling does not evaluate back to the element")
    return spelling, Word(al, gamma), u
