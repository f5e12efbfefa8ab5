"""Restriction and induction across a finite-index subgroup.

A fundamental subtree tiles the ambient tree by subgroup translates.
Restriction reads an ambient system off at the contact vertices where
translated tiles meet, producing a system over the subgroup alphabet;
induction goes the other way, spreading a subgroup system over blocks
indexed by ``(domain vertex, subgroup letter)`` pairs.  Both directions
carry multiplicative functions along and preserve compatibility, norms,
and inner products, which is what the numeric checks here pin down.

Restriction is a pull-back along the substitution ``c -> gamma_c``, with
each subgroup letter's contact vertex as its only member word: the same
pull-back a change of generators makes with its frontiers (see
``changegen``).  Its function sampler builds ``expand(y)`` once per prefix
``y``.  Induction is not a substitution and keeps its own block step.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InputError, InternalCheckError, ValidationError
from .multfunc import MultiplicativeFunction, _pull_back_function, sample_then_refine
from .subgroup import FundamentalSubtree, decompose_left
from .system import MatrixSystem, _assembled, _pull_back_system
from .tolerances import COMPAT_TOL
from .words import FiniteSubtree, Word, ball, drop_last, first_letter, last_letter, sphere


def restrict_system(
    fs: FundamentalSubtree, sys: MatrixSystem, tol: float = COMPAT_TOL
) -> MatrixSystem:
    """Pull an ambient system back to the subgroup alphabet.

    The space at a subgroup letter is the ambient space at its contact
    vertex's final letter.  A transfer block is the product of ambient
    transfers along the path from one contact vertex, through the
    translated domain, to the next: a pull-back along ``gamma`` with the
    contact vertex as each letter's only member.
    """
    al = fs.automaton.alphabet
    if sys.alphabet != al:
        raise InputError("restriction needs a system over the ambient alphabet")
    sub = fs.subgroup_alphabet
    members = {c: [fs.contact[c].data] for c in sub.letters}
    return _pull_back_system(sys, sub, fs._gamma_table, members, "restriction", tol)


def restrict_function(
    fs: FundamentalSubtree,
    sys: MatrixSystem,
    f: MultiplicativeFunction,
    restricted: MatrixSystem | None = None,
    depth: int | None = None,
) -> MultiplicativeFunction:
    """Carry an ambient multiplicative function to the subgroup alphabet.

    The value at a subgroup word ``y b``, with ``b`` its final letter, is
    the input evaluated at ``expand(y)`` times the contact vertex of
    ``b``; ``expand(y)`` is built once per prefix ``y``.  The output is
    multiplicative over the restricted system, so it is sampled on the
    smallest sphere the input determines, the input words of that sphere
    evaluated in one batch, and refined.  Raises ``InputError`` when
    ``depth`` is given and is not a positive integer.
    """
    if f.system is not sys and not f.system.close_to(sys):
        raise InputError("function does not live over the given system")
    if restricted is None:
        restricted = restrict_system(fs, sys)
    n_out = depth if depth is not None else f.depth
    members = {c: [fs.contact[c].data] for c in fs.subgroup_alphabet.letters}
    return _pull_back_function(restricted, n_out, fs._gamma_table, members, f)


def coset_pairs(fs: FundamentalSubtree, a: str) -> list[tuple[Word, str]]:
    """Induction block index for an ambient letter: the pairs ``(u, c)``
    of a domain vertex and a subgroup letter whose ``u^-1 gamma_c``
    starts with the letter.

    Every ``(u, c)`` pair lands in exactly one letter's list, so the
    lists partition ``domain x subgroup alphabet``.  Ordered by the
    domain vertex (shortlex), then the subgroup letter.
    """
    al = fs.automaton.alphabet
    if a not in al:
        raise InputError(f"unknown ambient letter {a!r}")
    pairs = []
    for u in sorted(fs.reps, key=Word.sort_key):
        ui = u.inverse()
        for c in fs.subgroup_alphabet.letters:
            if first_letter(ui * fs.gamma_of[c]) == a:
                pairs.append((u, c))
    return pairs


def induce_system(
    fs: FundamentalSubtree, subsys: MatrixSystem, tol: float = COMPAT_TOL
) -> MatrixSystem:
    """Spread a subgroup system over the ambient alphabet.

    The space at an ambient letter is the direct sum of subgroup spaces
    over its coset pairs.  A transfer block either copies a pair whose
    domain vertex absorbs the step, or applies the subgroup transfer
    named by the Schreier generator the step emits: when ``w = v a^-1``
    leaves the domain, that generator is ``w u^-1``, with ``u`` the
    domain vertex of ``w``'s coset.
    """
    sub = fs.subgroup_alphabet
    if subsys.alphabet != sub:
        raise InputError("induction needs a system over the subgroup alphabet")
    al = fs.automaton.alphabet
    members = {a: [((u, c), c) for u, c in coset_pairs(fs, a)] for a in al.letters}

    def step(a: str, b: str, row: tuple[Word, str]) -> tuple[tuple, tuple[int, ...]]:
        v, drow = row
        w = v * al.word([a]).inverse()
        if fs.in_domain(w):
            return (w, drow), ()
        u = fs.reps[fs.state_of(w)]
        emitted = fs.symbol_of.get(w * u.inverse())
        if emitted is None:
            raise InternalCheckError(f"step {v} -> {w} emitted no Schreier generator")
        c = sub.inverse(emitted)
        if c == sub.inverse(drow):
            raise InternalCheckError("emitted generator inverts the row letter")
        return (u, c), (sub._to_int[drow],)

    return _assembled(subsys, al, members, step, "induction", tol)


def _tile_word(fs: FundamentalSubtree, x: Word) -> Word:
    """Subgroup word of the subgroup part of ``x = gamma * u``."""
    spelling, _, _ = decompose_left(fs, x)
    return spelling


def induce_function(
    fs: FundamentalSubtree,
    subsys: MatrixSystem,
    family: Mapping[Word, MultiplicativeFunction],
    induced: MatrixSystem | None = None,
    depth: int | None = None,
) -> MultiplicativeFunction:
    """Assemble an ambient multiplicative function from one subgroup
    function per domain vertex.

    The block of the output at ``x a`` for a coset pair ``(u, c)`` picks
    the family member at the domain vertex ``v`` with ``v x u^-1`` in
    the subgroup, and evaluates it at the subgroup word of
    ``v x u^-1 gamma_c``.  The squared norm of the output is the sum of
    the members' squared norms.  The output is sampled on the smallest
    sphere the family determines, its words evaluated in one batch per
    distinct member system, and refined.  Raises ``InputError`` when
    ``depth`` is given and is not a positive integer.
    """
    al = fs.automaton.alphabet
    sub = fs.subgroup_alphabet
    if subsys.alphabet != sub:
        raise InputError("induction needs a system over the subgroup alphabet")
    if set(family) != set(fs.reps):
        raise InputError("family must have exactly one function per domain vertex")
    for g in family.values():
        if g.system is not subsys and not g.system.close_to(subsys):
            raise InputError("family member does not live over the given system")
    if induced is None:
        induced = induce_system(fs, subsys)
    P = {a: coset_pairs(fs, a) for a in al.letters}

    n_max = max(g.depth for g in family.values())
    stretch = max(len(g) for g in fs.gamma_of.values())
    d_max = max(len(u) for u in fs.reps)
    n_out = (
        depth
        if depth is not None
        else stretch * (n_max + 1) + 2 * d_max + 1
    )
    members = list(family)
    index = {v: k for k, v in enumerate(members)}

    def sample(xa: Word) -> list[tuple[tuple[int, ...], int]] | None:
        x = drop_last(xa)
        out = []
        for u, c in P[last_letter(xa)]:
            z = x * u.inverse()
            v = fs.reps[fs.state_of(z.inverse())]
            h = v * z
            if fs.state_of(h) != 0:
                raise InternalCheckError(
                    f"tile shift {v} for {xa} left the subgroup"
                )
            w = _tile_word(fs, h * fs.gamma_of[c])
            if len(w) < family[v].depth:
                return None
            if last_letter(w) != c:
                raise InternalCheckError(
                    f"sample word for ({u}, {c}) at {xa} ends at "
                    f"{last_letter(w)!r}"
                )
            out.append((w.data, index[v]))
        return out

    return sample_then_refine(
        induced, n_out, sample, [family[v] for v in members]
    )


def truncation_subtree(
    fs: FundamentalSubtree,
    member: Word,
    depth: int,
    cover: int | None = None,
) -> FiniteSubtree:
    """The subgroup-tree footprint of the depth-``depth`` truncation of
    the ambient tree, shifted to one domain vertex.

    Interior vertices are the tile words of ``member * w`` over the
    ambient ball; terminals are the tile words of the induction samples
    ``member * x * u^-1 * gamma_c`` that stay in the subgroup, for ``x``
    on the sphere and ``(u, c)`` a coset pair of an outgoing letter.
    The two routes must agree on which vertices are terminal.
    """
    al = fs.automaton.alphabet
    if not fs.in_domain(member):
        raise InputError(f"{member} is not a domain vertex")
    if depth < 1:
        raise InputError("depth must be at least one")

    interior = {_tile_word(fs, member * w) for w in ball(al.identity, depth)}

    pairs = {a: coset_pairs(fs, a) for a in al.letters}
    terminals = set()
    for x in sphere(al, depth):
        banned = al.inverse(last_letter(x))
        for a in al.letters:
            if a == banned:
                continue
            for u, c in pairs[a]:
                lam = member * x * u.inverse()
                if fs.state_of(lam) != 0:
                    continue
                terminals.add(_tile_word(fs, lam * fs.gamma_of[c]))

    tree = FiniteSubtree(fs.subgroup_alphabet, interior | terminals)
    if not tree.is_complete:
        raise InternalCheckError("truncation footprint is not complete")
    if tree.terminals != frozenset(terminals):
        raise InternalCheckError(
            "induction samples do not match the footprint's terminals"
        )
    if cover is not None and not tree.contains_ball(
        fs.subgroup_alphabet.identity, cover
    ):
        raise ValidationError(
            f"truncation footprint misses the radius-{cover} ball"
        )
    return tree
