"""Multiplicative vector-valued functions on the tree of a free group.

A function of depth ``N`` is determined by one vector in ``V_(last letter
of x)`` per word ``x`` of length ``N``; values at longer words follow by
applying the transfer matrices along the word, and the function is left
unspecified closer to the root.  Functions are stored sparsely: words
whose vector is zero are omitted.

The group acts by left translation: ``act(x, f)`` is the function ``z ->
f(x^-1 z)`` represented at depth ``N + |x|``.  The inner product of two
functions at common depth ``D`` is ``sum_{|w| = D} f(w)* B_(last letter)
g(w)``, conjugate-linear in the first argument; compatibility of the
system makes it independent of the choice of ``D``.

Propagation is batched: the words of one depth are grouped by their last
letter with their values stacked as rows, so one depth step costs one
matrix product per admissible letter pair.  A function carried to another
system (by a change of generators, a restriction or an induction) is
multiplicative over that system, so ``sample_then_refine`` samples it on
the smallest sphere the input determines and propagates from there.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import InputError, ResourceLimitError, ValidationError
from .system import MatrixSystem
from .words import FiniteSubtree, Word, last_letter, sphere

# Refinement depths beyond this fail fast; spheres grow geometrically.
DEPTH_CAP = 12


def _check_depth(depth: int, depth_cap: int | None) -> None:
    cap = DEPTH_CAP if depth_cap is None else depth_cap
    if depth > cap:
        raise ResourceLimitError(
            f"requested depth {depth} exceeds the cap {cap}; "
            f"the sphere has on the order of q**{depth} vertices"
        )


class MultiplicativeFunction:
    """A depth-``N`` multiplicative function over a matrix system."""

    __slots__ = ("system", "depth", "values")

    def __init__(
        self,
        system: MatrixSystem,
        depth: int,
        values: Mapping[Word, np.ndarray],
    ):
        if depth < 1:
            raise InputError("depth must be at least one")
        self.system = system
        self.depth = depth
        al, dims = system.alphabet, system.dims
        vals: dict[Word, np.ndarray] = {}
        # Checks run once per value, so each takes its cheapest exact form:
        # count_nonzero costs a quarter of ndarray.any on a short vector.
        for x, v in values.items():
            if x.alphabet != al:
                raise InputError("support word over a different alphabet")
            if len(x.data) != depth:
                raise InputError(
                    f"support word {x} has length {len(x)}, expected {depth}"
                )
            vec = np.asarray(v, dtype=complex).reshape(-1)
            d = dims[last_letter(x)]
            if vec.shape != (d,):
                raise InputError(
                    f"value at {x} has shape {vec.shape}, expected ({d},)"
                )
            if np.count_nonzero(vec):
                vals[x] = vec
        self.values = vals

    @property
    def alphabet(self):
        return self.system.alphabet

    def support(self) -> list[Word]:
        return sorted(self.values, key=Word.sort_key)

    def __repr__(self) -> str:
        return (
            f"MultiplicativeFunction(depth={self.depth}, "
            f"support={len(self.values)})"
        )


def shadow(system: MatrixSystem, x: Word, v: np.ndarray) -> MultiplicativeFunction:
    """The depth-``|x|`` function supported on the single word ``x``."""
    if len(x) < 1:
        raise InputError("a shadow needs a nontrivial word")
    return MultiplicativeFunction(system, len(x), {x: v})


def _layer(values: Mapping[Word, np.ndarray]) -> dict:
    """Group the words of one depth by last letter (as an integer) into
    ``(word data tuples, values stacked as rows)``."""
    groups: dict[int, tuple[list, list]] = {}
    for x, v in values.items():
        keys, rows = groups.setdefault(x.data[-1], ([], []))
        keys.append(x.data)
        rows.append(v)
    return {t: (keys, np.stack(rows)) for t, (keys, rows) in groups.items()}


def _step(sysm: MatrixSystem, layer: dict, allowed=None) -> dict:
    """Push a layer one letter outward: each word gains every admissible
    next letter (only those in ``allowed`` when given), its rows times
    ``H(c, t).T``.  Rows that come out zero are dropped."""
    al = sysm.alphabet
    fi = al._from_int
    letters = al._file_ints if allowed is None else allowed
    grown: dict[int, tuple[list, list]] = {}
    for t, (keys, V) in layer.items():
        for c in letters:
            if c == -t:
                continue
            m = sysm._H.get((fi[c], fi[t]))
            if m is None:
                continue
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


def refine(
    f: MultiplicativeFunction, depth: int, depth_cap: int | None = None
) -> MultiplicativeFunction:
    """Re-express ``f`` at a larger depth by pushing values outward."""
    if depth < f.depth:
        raise ValidationError("cannot refine to a smaller depth")
    if depth == f.depth:
        return f
    _check_depth(depth, depth_cap)
    layer = _layer(f.values)
    for _ in range(depth - f.depth):
        layer = _step(f.system, layer)
    al = f.alphabet
    values = {
        Word(al, k): row for keys, V in layer.values() for k, row in zip(keys, V)
    }
    return MultiplicativeFunction(f.system, depth, values)


def sample_then_refine(
    system: MatrixSystem,
    depth: int,
    sample,
    input_depth: int,
    depth_cap: int | None = None,
) -> MultiplicativeFunction:
    """The depth-``depth`` function over ``system`` with value
    ``sample(w)`` at each word ``w``, for a ``sample`` that is
    multiplicative over ``system``.

    ``sample`` returns ``None`` at a word whose value its input (of depth
    ``input_depth``) does not determine yet.  The sphere is sampled at the
    smallest depth where every value is determined, and that function is
    refined over ``system``, which reproduces the samples at every deeper
    word.  Raises ``ValidationError`` when no depth up to ``depth`` is
    determined.
    """
    _check_depth(depth, depth_cap)
    for n in range(1, depth + 1):
        values: dict[Word, np.ndarray] = {}
        for w in sphere(system.alphabet, n):
            v = sample(w)
            if v is None:
                break
            values[w] = v
        else:
            return refine(MultiplicativeFunction(system, n, values), depth, depth_cap)
    raise ValidationError(
        f"output depth {depth} is too small for input depth {input_depth}"
    )


def evaluate(f: MultiplicativeFunction, y: Word) -> np.ndarray:
    """Value of ``f`` at a word of length at least the depth."""
    if y.alphabet != f.alphabet:
        raise InputError("word over a different alphabet")
    if len(y) < f.depth:
        raise ValidationError(
            f"value at {y} (length {len(y)}) is not determined at depth {f.depth}"
        )
    al = f.alphabet
    prefix = y.prefix(f.depth)
    v = f.values.get(prefix)
    if v is None:
        return np.zeros(f.system.dims[last_letter(y)], dtype=complex)
    prev = al._from_int[y.data[f.depth - 1]]
    for k in range(f.depth, len(y)):
        cur = al._from_int[y.data[k]]
        v = f.system.H(cur, prev) @ v
        prev = cur
    return v


def _same_system(f: MultiplicativeFunction, g: MultiplicativeFunction) -> bool:
    return f.system is g.system or f.system.close_to(g.system)


def inner_product(f: MultiplicativeFunction, g: MultiplicativeFunction) -> complex:
    """Inner product at common depth, conjugate-linear in ``f``."""
    if not _same_system(f, g):
        raise InputError("functions live over different systems")
    d = max(f.depth, g.depth)
    fr = refine(f, d)
    gr = refine(g, d)
    total = 0.0 + 0.0j
    for x, v in fr.values.items():
        w = gr.values.get(x)
        if w is not None:
            total += v.conj() @ f.system.B(last_letter(x)) @ w
    return complex(total)


def norm2(f: MultiplicativeFunction) -> float:
    return max(inner_product(f, f).real, 0.0)


def act(
    x: Word, f: MultiplicativeFunction, depth_cap: int | None = None
) -> MultiplicativeFunction:
    """Left translation: the function ``z -> f(x^-1 z)`` at depth ``N + |x|``.

    Output-sensitive: for ``z = x w`` with exactly ``k`` letters of ``x``
    cancelling, ``|w| = N + 2k`` and ``w`` starts with the first ``k``
    letters of ``x^-1`` (its letter ``k`` differs from that of ``x^-1``
    unless ``k = |x|``).  Each shell ``k`` propagates from the supporting
    words along exactly those extensions, and ``z`` is read off as the
    first ``|x| - k`` letters of ``x`` followed by the rest of ``w``.
    """
    if x.alphabet != f.alphabet:
        raise InputError("word over a different alphabet")
    if len(x) == 0:
        return f
    n, m = f.depth, len(x)
    _check_depth(n + m, depth_cap)
    sysm = f.system
    al = f.alphabet
    u = x.inverse().data
    out: dict[Word, np.ndarray] = {}
    for k in range(m + 1):
        lead = min(k, n)
        seeds = {
            p: v
            for p, v in f.values.items()
            if p.data[:lead] == u[:lead] and (k >= n or k == m or p.data[k] != u[k])
        }
        if not seeds:
            continue
        layer = _layer(seeds)
        for i in range(n, n + 2 * k):
            if i < k:
                allowed = (u[i],)
            elif i == k and k < m:
                allowed = tuple(c for c in al._file_ints if c != u[k])
            else:
                allowed = None
            layer = _step(sysm, layer, allowed)
        head = x.data[: m - k]
        for keys, V in layer.values():
            for w, row in zip(keys, V):
                out[Word(al, head + w[k:])] = row
    return MultiplicativeFunction(sysm, n + m, out)


def norm_via_subtree(f: MultiplicativeFunction, tree: FiniteSubtree) -> float:
    """Squared norm as the terminal sum over a complete subtree containing
    the ball of the function's depth around the identity."""
    if tree.alphabet != f.alphabet:
        raise InputError("subtree over a different alphabet")
    if not tree.is_complete:
        raise ValidationError("norm needs a complete subtree")
    if not tree.contains_ball(f.alphabet.identity, f.depth):
        raise ValidationError(
            "subtree must contain the ball of the function's depth"
        )
    total = 0.0
    for t in tree.terminals:
        v = evaluate(f, t)
        total += float((v.conj() @ f.system.B(last_letter(t)) @ v).real)
    return total


def matrix_coefficient(
    x: Word, f: MultiplicativeFunction, g: MultiplicativeFunction
) -> complex:
    """Pairing ``<act(x, f), g>`` of the translated function against ``g``."""
    return inner_product(act(x, f), g)


def functions_close(
    f: MultiplicativeFunction, g: MultiplicativeFunction, tol: float = 1e-9
) -> bool:
    """Equality after refining to a common depth, within ``tol`` per value.

    The shallower function is refined, not only evaluated on the deeper
    one's support: its values off that support must vanish too.
    """
    if not _same_system(f, g):
        return False
    d = max(f.depth, g.depth)
    fr = refine(f, d)
    gr = refine(g, d)
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
