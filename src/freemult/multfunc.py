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

Storage is the layout propagation works in.  The stored words are grouped
by last letter; each group is a sorted ``int64`` array of word codes and a
``(n, dim V_letter)`` complex array of values, one row per code, both
read-only.  The code of a word reads its letters as base-``2r`` digits,
each digit the letter's index in the alphabet's file order, so ``code(h s)
= code(h) (2r)^|s| + code(s)``, the suffix of length ``k`` is the code mod
``(2r)^k``, and numeric order on one sphere is shortlex order.  A depth
whose codes would not fit in ``int64`` (``(2r)^N >= 2^63``) raises
``ResourceLimitError`` before anything is allocated.  So does a step whose
size exceeds ``PROPAGATION_BUDGET`` complex entries: a propagation step's
product, or a sphere that ``sample_then_refine`` would enumerate, counted
as its words times the system's total dimension.  The size of a step, not
the depth, is bounded, since the sphere of a given depth grows with the
alphabet: a subgroup of index ``n`` in ``F_r`` has ``2 + 2n(r - 1)``
letters.

The public constructor checks every word and value it is given and packs
them into arrays; refinement, translation and the transports hand their
arrays to a private constructor that validates each array once.
``values`` is a read-only ``Word``-keyed view of the same data, decoded on
first use (its length needs no decoding); no operation here reads it.

Propagation is batched: one depth step costs one matrix product per last
letter, with its column block of the system's block matrix; a child's code
is its parent's times ``2r`` plus the new digit, and zero rows ride along
until the layer is stored.  A function carried to another system (by a
change of generators, a restriction or an induction) is multiplicative
over that system, so ``sample_then_refine`` samples it on the smallest
sphere the input determines and propagates from there.  Evaluation past
the depth, by ``evaluate``, ``norm_via_subtree`` and those samplers,
carries each prefix once per call: a stored prefix is found by binary
search and the value at every longer prefix is kept for the rest of the
call.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import InputError, InternalCheckError, ResourceLimitError, ValidationError
from .system import MatrixSystem
from .tolerances import FUNCTIONS_CLOSE_TOL
from .words import Alphabet, FiniteSubtree, Word, last_letter, sphere

# Complex entries one propagation step or sampled sphere may hold; a larger
# one fails fast (2**24 entries are 256 MiB).
PROPAGATION_BUDGET = 2**24

_NO_CODES = np.zeros(0, dtype=np.int64)


def _check_codes(alphabet: Alphabet, depth: int) -> None:
    q = alphabet.size
    if depth >= 63 or q**depth >= 2**63:
        raise ResourceLimitError(
            f"words of length {depth} over {q} letters have codes up to "
            f"{q}**{depth}, beyond int64"
        )


def _check_budget(system: MatrixSystem, rows: int, what: str) -> None:
    entries = rows * system.total_dim
    if entries > PROPAGATION_BUDGET:
        raise ResourceLimitError(
            f"{what} of {rows} words over total dimension {system.total_dim} "
            f"needs {entries} entries, beyond the budget of {PROPAGATION_BUDGET}"
        )


def _encode(alphabet: Alphabet, data: tuple[int, ...]) -> int:
    """Code of the word with the given signed letters."""
    q, order = alphabet.size, alphabet._order
    code = 0
    for i in data:
        code = code * q + order[i]
    return code


def _decode(alphabet: Alphabet, depth: int, codes: np.ndarray) -> list[Word]:
    """The words of length ``depth`` with the given codes."""
    q = alphabet.size
    powers = q ** np.arange(depth - 1, -1, -1, dtype=np.int64)
    digits = codes[:, None] // powers % q
    ints = np.array(alphabet._file_ints)[digits].tolist()
    return [Word(alphabet, tuple(row)) for row in ints]


def _pack(alphabet: Alphabet, pairs) -> dict:
    """Group ``(word, vector)`` pairs by last letter into ``(codes, rows)``
    arrays."""
    groups: dict[int, tuple[list, list]] = {}
    for x, v in pairs:
        codes, rows = groups.setdefault(alphabet._order[x.data[-1]], ([], []))
        codes.append(_encode(alphabet, x.data))
        rows.append(v)
    return {
        t: (np.array(codes, dtype=np.int64), np.array(rows, dtype=complex))
        for t, (codes, rows) in groups.items()
    }


class _WordValues(Mapping):
    """Read-only ``Word``-keyed view of a function's stored values in
    shortlex order, decoded on first use."""

    __slots__ = ("_alphabet", "_depth", "_groups", "_table")

    def __init__(self, alphabet: Alphabet, depth: int, groups: dict):
        self._alphabet, self._depth, self._groups = alphabet, depth, groups
        self._table: dict[Word, np.ndarray] | None = None

    def _words(self) -> dict[Word, np.ndarray]:
        if self._table is None:
            pairs = sorted(
                (c, row)
                for codes, V in self._groups.values()
                for c, row in zip(codes.tolist(), V)
            )
            codes = np.array([c for c, _ in pairs], dtype=np.int64)
            words = _decode(self._alphabet, self._depth, codes)
            self._table = dict(zip(words, (row for _, row in pairs)))
        return self._table

    def __getitem__(self, x: Word) -> np.ndarray:
        return self._words()[x]

    def __iter__(self):
        return iter(self._words())

    def __len__(self) -> int:
        return sum(len(codes) for codes, _ in self._groups.values())


class MultiplicativeFunction:
    """A depth-``N`` multiplicative function over a matrix system."""

    __slots__ = ("system", "depth", "_groups", "values")

    def __init__(
        self,
        system: MatrixSystem,
        depth: int,
        values: Mapping[Word, np.ndarray],
    ):
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise InputError(f"depth must be a positive integer, got {depth!r}")
        al, dims = system.alphabet, system.dims
        _check_codes(al, depth)
        checked = []
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
            checked.append((x, vec))
        self._store(system, depth, _pack(al, checked))

    @classmethod
    def _from_layer(
        cls, system: MatrixSystem, depth: int, layer: dict
    ) -> "MultiplicativeFunction":
        """The function with the given ``{last digit: (codes, values)}``
        arrays, as the package's own producers build them."""
        _check_codes(system.alphabet, depth)
        out = cls.__new__(cls)
        out._store(system, depth, layer)
        return out

    def _store(self, system: MatrixSystem, depth: int, layer: dict) -> None:
        """Check each array pair once, drop zero rows (propagation keeps
        them), sort by code and store read-only."""
        al = system.alphabet
        q, top = al.size, al.size**depth
        groups = {}
        for t, (codes, V) in layer.items():
            d = system.dims[al.letters[t]]
            if (
                codes.dtype != np.int64
                or V.dtype != complex
                or codes.ndim != 1
                or V.shape != (len(codes), d)
            ):
                raise InternalCheckError(
                    f"letter {al.letters[t]!r}: codes of shape {codes.shape} "
                    f"against values of shape {V.shape}, expected (n, {d})"
                )
            keep = V.any(axis=1)
            if not keep.all():
                codes, V = codes[keep], V[keep]
            if not len(codes):
                continue
            order = np.argsort(codes)
            codes, V = codes[order], V[order]
            if (
                codes[0] < 0
                or codes[-1] >= top
                or np.any(codes % q != t)
                or np.any(codes[1:] == codes[:-1])
            ):
                raise InternalCheckError(
                    f"letter {al.letters[t]!r}: codes are not distinct words "
                    f"of length {depth} ending in it"
                )
            codes.flags.writeable = False
            V.flags.writeable = False
            groups[t] = (codes, V)
        self.system = system
        self.depth = depth
        self._groups = groups
        self.values = _WordValues(al, depth, groups)

    def _group(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Codes and values stored at last digit ``t`` (empty when none)."""
        g = self._groups.get(t)
        if g is None:
            d = self.system.dims[self.alphabet.letters[t]]
            return _NO_CODES, np.zeros((0, d), dtype=complex)
        return g

    @property
    def alphabet(self):
        return self.system.alphabet

    def support(self) -> list[Word]:
        return list(self.values)

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


def _step(sysm: MatrixSystem, layer: dict, allowed=None) -> dict:
    """Push a layer one letter outward: each word (code ``p``, last digit
    ``t``) gains every admissible next digit ``c`` (only those in
    ``allowed`` when given) as the word of code ``p * 2r + c``, its rows
    times ``H(c, t).T``: the columns of ``c`` in one product per ``t``
    with the column block of ``t``.  Zero rows are kept (their
    descendants are zero too) for ``_store`` to drop.  The products hold
    the layer's rows times the total dimension entries, which bounds the
    next layer too; over ``PROPAGATION_BUDGET`` that raises before any
    product is built."""
    _check_budget(sysm, sum(len(codes) for codes, _ in layer.values()), "step")
    al = sysm.alphabet
    letters, sl = al.letters, sysm._slices
    q = len(letters)
    nxt = range(q) if allowed is None else allowed
    stored = sysm.stored_pairs()
    grown: dict[int, list] = {}
    for t, (codes, V) in layer.items():
        a = letters[t]
        head = codes * q
        W = V @ sysm._H[:, sl[a]].T
        for c in nxt:
            b = letters[c]
            if (b, a) in stored:
                grown.setdefault(c, []).append((head + c, W[:, sl[b]]))
    return _join(grown)


def _join(parts: dict) -> dict:
    """Concatenate the ``(codes, values)`` pieces collected per digit."""
    return {
        t: (np.concatenate([k for k, _ in ps]), np.concatenate([V for _, V in ps]))
        for t, ps in parts.items()
    }


def refine(f: MultiplicativeFunction, depth: int) -> MultiplicativeFunction:
    """Re-express ``f`` at a larger depth by pushing values outward.

    Raises ``ResourceLimitError`` before any step when the codes of
    ``depth`` overflow ``int64``, and at the first step whose product
    exceeds ``PROPAGATION_BUDGET``, before it is built.
    """
    if depth < f.depth:
        raise ValidationError("cannot refine to a smaller depth")
    if depth == f.depth:
        return f
    _check_codes(f.alphabet, depth)
    layer = f._groups
    for _ in range(depth - f.depth):
        layer = _step(f.system, layer)
    return MultiplicativeFunction._from_layer(f.system, depth, layer)


def sample_then_refine(
    system: MatrixSystem,
    depth: int,
    sample,
    input_depth: int,
) -> MultiplicativeFunction:
    """The depth-``depth`` function over ``system`` with value
    ``sample(w)`` at each word ``w``, for a ``sample`` that is
    multiplicative over ``system``.

    ``sample`` returns ``None`` at a word whose value its input (of depth
    ``input_depth``) does not determine yet.  The sphere is sampled at the
    smallest depth where every value is determined, and that function is
    refined over ``system``, which reproduces the samples at every deeper
    word.  Raises ``ValidationError`` when no depth up to ``depth`` is
    determined.  Raises ``ResourceLimitError`` before any sampling when the
    codes of ``depth`` overflow ``int64``, before enumerating a sphere
    whose words times the total dimension exceed ``PROPAGATION_BUDGET``,
    and as ``refine`` does.
    """
    al = system.alphabet
    _check_codes(al, depth)
    for n in range(1, depth + 1):
        _check_budget(system, al.size * (al.size - 1) ** (n - 1), f"sphere {n}")
        samples = []
        for w in sphere(al, n):
            v = sample(w)
            if v is None:
                break
            samples.append((w, v))
        else:
            f = MultiplicativeFunction._from_layer(system, n, _pack(al, samples))
            return refine(f, depth)
    raise ValidationError(
        f"output depth {depth} is too small for input depth {input_depth}"
    )


def _evaluator(f: MultiplicativeFunction):
    """``value(data)``: the value of ``f`` at the word with signed letters
    ``data``, of length at least the depth.

    A word of the depth is looked up by binary search; a longer word is
    ``H(last, prev)`` times the value at its prefix.  Each prefix is carried
    once: the values are kept in a memo that lives as long as the returned
    function, which callers hold for one call.  A prefix of the depth that
    is not stored leaves the value zero without any product.
    """
    al, sysm, n = f.alphabet, f.system, f.depth
    letter, order = al._from_int, al._order
    memo: dict[tuple[int, ...], np.ndarray | None] = {}

    def stored(data: tuple[int, ...]) -> np.ndarray | None:
        codes, V = f._group(order[data[-1]])
        code = _encode(al, data)
        i = int(np.searchsorted(codes, code))
        return V[i] if i < len(codes) and codes[i] == code else None

    def value(data: tuple[int, ...]) -> np.ndarray:
        k = len(data)
        while k > n and data[:k] not in memo:
            k -= 1
        v = memo[data[:k]] if k > n else stored(data[:n])
        for j in range(k, len(data)):
            if v is not None:
                v = sysm.H(letter[data[j]], letter[data[j - 1]]) @ v
            memo[data[: j + 1]] = v
        if v is None:
            return np.zeros(sysm.dims[letter[data[-1]]], dtype=complex)
        return v

    return value


def evaluate(f: MultiplicativeFunction, y: Word) -> np.ndarray:
    """Value of ``f`` at a word of length at least the depth."""
    if y.alphabet != f.alphabet:
        raise InputError("word over a different alphabet")
    if len(y) < f.depth:
        raise ValidationError(
            f"value at {y} (length {len(y)}) is not determined at depth {f.depth}"
        )
    return _evaluator(f)(y.data)


def _same_system(f: MultiplicativeFunction, g: MultiplicativeFunction) -> bool:
    return f.system is g.system or f.system.close_to(g.system)


def _common(f: MultiplicativeFunction, g: MultiplicativeFunction):
    """Both functions at their common depth, and per last digit the row
    indices of the words they both store."""
    d = max(f.depth, g.depth)
    fr, gr = refine(f, d), refine(g, d)
    matches = {}
    for t in fr._groups.keys() | gr._groups.keys():
        _, i, j = np.intersect1d(
            fr._group(t)[0], gr._group(t)[0], assume_unique=True, return_indices=True
        )
        matches[t] = (i, j)
    return fr, gr, matches


def inner_product(f: MultiplicativeFunction, g: MultiplicativeFunction) -> complex:
    """Inner product at common depth, conjugate-linear in ``f``."""
    if not _same_system(f, g):
        raise InputError("functions live over different systems")
    fr, gr, matches = _common(f, g)
    letters = f.alphabet.letters
    total = 0.0 + 0.0j
    for t, (i, j) in matches.items():
        if len(i):
            V, W = fr._group(t)[1][i], gr._group(t)[1][j]
            total += np.sum((V.conj() @ f.system.B(letters[t])) * W)
    return complex(total)


def norm2(f: MultiplicativeFunction) -> float:
    return max(inner_product(f, f).real, 0.0)


def act(x: Word, f: MultiplicativeFunction) -> MultiplicativeFunction:
    """Left translation: the function ``z -> f(x^-1 z)`` at depth ``N + |x|``.

    Output-sensitive: for ``z = x w`` with exactly ``k`` letters of ``x``
    cancelling, ``|w| = N + 2k`` and ``w`` starts with the first ``k``
    letters of ``x^-1`` (its letter ``k`` differs from that of ``x^-1``
    unless ``k = |x|``).  Each shell ``k`` propagates from the supporting
    words along exactly those extensions, and ``z`` is read off as the
    first ``|x| - k`` letters of ``x`` followed by the rest of ``w``.  The
    walk tracks the code of ``w`` without its first ``k`` letters (those
    of ``x^-1``), which stays below ``(2r)^(N + k)``.

    Raises ``ResourceLimitError`` before any step when the codes of depth
    ``N + |x|`` overflow ``int64``, and at the first step whose product
    exceeds ``PROPAGATION_BUDGET``, before it is built.
    """
    if x.alphabet != f.alphabet:
        raise InputError("word over a different alphabet")
    if len(x) == 0:
        return f
    n, m = f.depth, len(x)
    al = f.alphabet
    _check_codes(al, n + m)
    sysm = f.system
    q = al.size
    xi = x.inverse().data
    u = [al._order[i] for i in xi]
    out: dict[int, list] = {}
    for k in range(m + 1):
        lead = min(k, n)
        rest = q ** (n - lead)
        want = _encode(al, xi[:lead])
        layer = {}
        for t, (codes, V) in f._groups.items():
            hit = codes // rest == want
            if k < min(n, m):
                hit &= codes // q ** (n - 1 - k) % q != u[k]
            if hit.any():
                layer[t] = (codes[hit] % rest, V[hit])
        if not layer:
            continue
        for i in range(n, n + 2 * k):
            if i < k:
                # the new letter is letter i of x^-1, so the code stays 0
                layer = _step(sysm, layer, (u[i],))
                layer = {c: (codes * 0, V) for c, (codes, V) in layer.items()}
            elif i == k and k < m:
                layer = _step(sysm, layer, [c for c in range(q) if c != u[k]])
            else:
                layer = _step(sysm, layer)
        head = _encode(al, x.data[: m - k]) * q ** (n + k)
        for c, (codes, V) in layer.items():
            out.setdefault(c, []).append((codes + head, V))
    return MultiplicativeFunction._from_layer(sysm, n + m, _join(out))


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
    value = _evaluator(f)
    total = 0.0
    for t in tree.terminals:
        v = value(t.data)
        total += float((v.conj() @ f.system.B(last_letter(t)) @ v).real)
    return total


def matrix_coefficient(
    x: Word, f: MultiplicativeFunction, g: MultiplicativeFunction
) -> complex:
    """Pairing ``<act(x, f), g>`` of the translated function against ``g``."""
    return inner_product(act(x, f), g)


def functions_close(
    f: MultiplicativeFunction,
    g: MultiplicativeFunction,
    tol: float = FUNCTIONS_CLOSE_TOL,
) -> bool:
    """Equality after refining to a common depth, within ``tol`` per value.

    The shallower function is refined, not only evaluated on the deeper
    one's support: its values off that support must vanish too.
    """
    if not _same_system(f, g):
        return False
    fr, gr, matches = _common(f, g)
    for t, (i, j) in matches.items():
        V, W = fr._group(t)[1], gr._group(t)[1]
        for gap in (V[i] - W[j], np.delete(V, i, axis=0), np.delete(W, j, axis=0)):
            if len(gap) and np.linalg.norm(gap, axis=1).max() > tol:
                return False
    return True
