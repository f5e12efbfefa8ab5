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
product, a sphere that ``sample_then_refine`` would enumerate or a batch
of words to evaluate, counted as its words times the system's total
dimension.  The size of a step, not the depth, is bounded, since the
sphere of a given depth grows with the alphabet: a subgroup of index ``n``
in ``F_r`` has ``2 + 2n(r - 1)`` letters.

The public constructor checks every word and value it is given and packs
them into arrays; refinement, translation and the transports hand their
arrays to a private constructor that validates each array once.
``values`` is a read-only ``Word``-keyed view of the same data, decoded on
first use (its length needs no decoding); no operation here reads it.

Propagation is batched: one depth step fills one product array, a row
block per last letter times that letter's column block of the system's
block matrix, and reads the children at each next digit off it as runs of
adjacent row blocks; a child's code is its parent's times ``2r`` plus the
new digit, and zero rows ride along until the layer is stored.  A
function carried to another system (by a change of generators, a
restriction or an induction) is multiplicative over that system, so
``sample_then_refine`` samples it on the smallest sphere the input
determines and propagates from there.  Evaluation past the depth, by
``evaluate``, ``norm_via_subtree`` and those samplers, is one batch over
every word a call needs: the words' stored prefixes are found by binary
search, one per function and last letter, and all rows are carried at
once, one product with the block matrix per letter past the depth, each
row masked to the block of its next letter.  A sampler evaluates only the
sphere it keeps, once its input determines every value there.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import InputError, InternalCheckError, ResourceLimitError, ValidationError
from .system import MatrixSystem
from .tolerances import FUNCTIONS_CLOSE_TOL
from .words import Alphabet, FiniteSubtree, Word, last_letter, sphere
from . import _kernel_py as _k

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


def _check_depth(depth, what: str = "depth") -> None:
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise InputError(f"{what} must be a positive integer, got {depth!r}")


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
        _check_depth(depth)
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
            codes, V = codes.take(order), V.take(order, axis=0)
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
    times ``H(c, t).T``.

    The step fills one product array ``W``, a row block per group ``t``:
    its rows times the column block of ``t``.  The children at ``c`` are
    the columns of ``c`` in the blocks of the groups ``t`` with ``(c, t)``
    stored, read off as runs of adjacent blocks, one concatenation per
    digit.  Zero rows are kept (their descendants are zero too) for
    ``_store`` to drop.  ``W`` holds the layer's rows times the total
    dimension entries, which bounds the next layer too; over
    ``PROPAGATION_BUDGET`` that raises before ``W`` is allocated."""
    rows = sum(len(codes) for codes, _ in layer.values())
    _check_budget(sysm, rows, "step")
    letters, sl = sysm.alphabet.letters, sysm._slices
    q = len(letters)
    W = np.empty((rows, sysm.total_dim), dtype=complex)
    heads = np.empty(rows, dtype=np.int64)
    blocks, lo = [], 0
    for t, (codes, V) in layer.items():
        hi = lo + len(codes)
        np.multiply(codes, q, out=heads[lo:hi])
        np.matmul(V, sysm._H[:, sl[letters[t]]].T, out=W[lo:hi])
        blocks.append((letters[t], lo, hi))
        lo = hi
    stored = sysm.stored_pairs()
    out = {}
    for c in range(q) if allowed is None else allowed:
        b = letters[c]
        runs: list[list[int]] = []
        for a, lo, hi in blocks:
            if (b, a) not in stored:
                continue
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        if runs:
            out[c] = (
                np.concatenate([heads[lo:hi] for lo, hi in runs]) + c,
                np.concatenate([W[lo:hi, sl[b]] for lo, hi in runs]),
            )
    return out


def _join(parts: dict) -> dict:
    """Concatenate the ``(codes, values)`` pieces collected per digit."""
    return {
        t: (np.concatenate([k for k, _ in ps]), np.concatenate([V for _, V in ps]))
        for t, ps in parts.items()
    }


def refine(f: MultiplicativeFunction, depth: int) -> MultiplicativeFunction:
    """Re-express ``f`` at a larger depth by pushing values outward.

    Raises ``InputError`` when ``depth`` is not a positive integer,
    ``ResourceLimitError`` before any step when the codes of ``depth``
    overflow ``int64``, and at the first step whose product exceeds
    ``PROPAGATION_BUDGET``, before it is built.
    """
    _check_depth(depth)
    if depth < f.depth:
        raise ValidationError("cannot refine to a smaller depth")
    if depth == f.depth:
        return f
    _check_codes(f.alphabet, depth)
    layer = f._groups
    for _ in range(depth - f.depth):
        layer = _step(f.system, layer)
    return MultiplicativeFunction._from_layer(f.system, depth, layer)


def _digits(alphabet: Alphabet, words) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One digit array holding ``words`` (tuples of signed letters) end to
    end, and each word's start and length in it."""
    r = alphabet.rank
    lut = np.empty(2 * r + 1, dtype=np.int64)
    for i, t in alphabet._order.items():
        lut[i + r] = t
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    ints = np.fromiter(
        chain.from_iterable(words), dtype=np.int64, count=int(lengths.sum())
    )
    return lut[ints + r], np.cumsum(lengths) - lengths, lengths


def _evaluate_batch(
    system: MatrixSystem,
    functions,
    digits: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    which: np.ndarray,
) -> np.ndarray:
    """Values of functions over ``system`` at many words in one pass.

    Row ``r`` is the value of ``functions[which[r]]`` at the word of
    ``lengths[r]`` digits from ``digits[starts[r]]``, at least that
    function's depth, in the block coordinates of ``system``: the
    coordinates of the word's last letter hold the value and the others
    are zero.

    Each word's stored prefix is found by one binary search per function
    and last digit; an unstored prefix leaves a zero row.  The rows that
    carry further are ordered by the letters they have left, most first,
    so the rows still carrying at step ``s`` are the leading ones: each
    step is one product of them with ``H.T``, each row then masked to the
    coordinates of its next letter.  There are as many steps as the
    largest excess of a word's length over its depth.  Raises
    ``ResourceLimitError`` before allocating anything when the words times
    the total dimension exceed ``PROPAGATION_BUDGET``.
    """
    _check_budget(system, len(starts), "batch")
    al = system.alphabet
    q, letters, sl = al.size, al.letters, system._slices
    depths = np.array([f.depth for f in functions], dtype=np.int64).take(which)
    left = lengths - depths
    if (left < 0).any():
        raise InternalCheckError("a sample word is shorter than its function's depth")
    # A prefix's code reads its digits in base q: digit j of a word weighs
    # q**(depth - 1 - j), and 0 past the depth.
    top = int(depths.max(initial=0))
    weights = np.array(
        [[q ** (n - 1 - j) if j < n else 0 for j in range(top)]
         for n in range(top + 1)],
        dtype=np.int64,
    ).take(depths, axis=0)
    span = np.minimum(starts[:, None] + np.arange(top), len(digits) - 1)
    codes = (digits.take(span) * weights).sum(axis=1)
    # Rows in order of function and last digit of the prefix, each pair a run.
    key = which * q + digits.take(starts + depths - 1)
    order = np.argsort(key, kind="stable")
    heads = np.flatnonzero(np.diff(key.take(order), prepend=-1))
    X = np.zeros((len(starts), system.total_dim), dtype=complex)
    runs = zip(heads.tolist(), heads[1:].tolist() + [len(key)])
    for (lo, hi), k in zip(runs, key.take(order.take(heads)).tolist()):
        group = functions[k // q]._groups.get(k % q)
        if group is None:
            continue
        stored, V = group
        rows = order[lo:hi]
        c = codes.take(rows)
        i = stored.searchsorted(c)
        hit = stored.take(i, mode="clip") == c
        X[rows[hit], sl[letters[k % q]]] = V.take(i[hit], axis=0)

    steps = int(left.max(initial=0))
    if not steps:
        return X
    # The rows that carry, by the letters left to carry, most first.
    carry = np.argsort(-left, kind="stable")[: np.count_nonzero(left)]
    Y, left = X.take(carry, axis=0), left.take(carry)
    nxt = (starts + depths).take(carry)
    # Row c of ``mask`` is 1 on the coordinates of digit c and 0 elsewhere.
    owner = np.repeat(np.arange(q), [system.dims[a] for a in letters])
    mask = (owner == np.arange(q)[:, None]).astype(complex)
    HT = system._H.T
    # alive[s]: the rows with more than s letters left to carry
    alive = np.searchsorted(-left, -np.arange(steps)).tolist()
    for s, m in enumerate(alive):
        np.multiply(
            Y[:m] @ HT, mask.take(digits.take(nxt[:m] + s), axis=0), out=Y[:m]
        )
    X[carry] = Y
    return X


def _sampled_layer(system: MatrixSystem, n: int, functions, found: dict) -> dict:
    """The layer of a sampled sphere of depth ``n``.  ``found`` holds, per
    last digit, the sphere's words in order, each with its blocks'
    ``(source word, function index)``; the words at one digit must have
    the same number of blocks.

    The source words are evaluated in one batch per distinct system of
    the functions.  A digit's values are assembled from block columns:
    column ``j`` holds block ``j`` of each of its words, which must all
    end at one source letter.
    """
    al = system.alphabet
    source = functions[0].system
    pairs = [b for words in found.values() for _, blocks in words for b in blocks]
    _check_budget(source, len(pairs), "batch")
    src = list(map(itemgetter(0), pairs))
    which = np.fromiter(map(itemgetter(1), pairs), dtype=np.int64, count=len(pairs))
    digits, starts, lengths = _digits(source.alphabet, src)
    ends = digits.take(starts + lengths - 1)
    systems = list({id(f.system): f.system for f in functions}.values())
    batch = np.array([systems.index(f.system) for f in functions]).take(which)
    X = np.empty((len(src), source.total_dim), dtype=complex)
    for b, sysm in enumerate(systems):
        rows = np.flatnonzero(batch == b)
        X[rows] = _evaluate_batch(
            sysm, functions, digits, *(a.take(rows) for a in (starts, lengths, which))
        )

    outs = [w.data for words in found.values() for w, _ in words]
    out_digits, _, _ = _digits(al, outs)
    powers = al.size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = out_digits.reshape(-1, n) @ powers
    src_letters, slices = source.alphabet.letters, source._slices
    layer, lo, first = {}, 0, 0
    for t, words in found.items():
        width = len(words[0][1])
        if any(len(blocks) != width for _, blocks in words):
            raise InternalCheckError(
                f"samples ending at {al.letters[t]!r} have different numbers of blocks"
            )
        hi = lo + width * len(words)
        E = ends[lo:hi].reshape(len(words), width)
        if (E != E[0]).any():
            raise InternalCheckError(
                f"a block of the samples ending at {al.letters[t]!r} "
                f"does not end at one letter"
            )
        cols = [
            X[j:hi:width, slices[src_letters[e]]]
            for j, e in zip(range(lo, lo + width), E[0].tolist())
        ]
        layer[t] = (codes[first : first + len(words)], np.concatenate(cols, axis=1))
        lo, first = hi, first + len(words)
    return layer


def sample_then_refine(
    system: MatrixSystem,
    depth: int,
    sample,
    functions,
) -> MultiplicativeFunction:
    """The depth-``depth`` function over ``system`` whose value at each
    word ``w`` is read off ``functions`` as ``sample(w)`` says, for a
    sample that is multiplicative over ``system``.

    ``sample(w)`` lists, for each block of the value at ``w`` in order,
    the source word (a tuple of signed letters ending at the block's
    letter) and the index in ``functions`` of the function that block
    reads.  It returns ``None`` at a word whose value the functions do not
    determine yet.  The functions share one alphabet and dimensions.  The
    sphere is sampled at the smallest depth where every value is
    determined; its source words are evaluated in one batch (one per
    distinct system of the functions), and that function is refined over
    ``system``, which reproduces the samples at every deeper word.

    Raises ``InputError`` when ``depth`` is not a positive integer and
    ``ValidationError`` when no depth up to ``depth`` is determined.
    Raises ``ResourceLimitError`` before any sampling when the codes of
    ``depth`` overflow ``int64``, before enumerating a sphere whose words
    times the total dimension exceed ``PROPAGATION_BUDGET``, before
    evaluating a batch whose source words times the source total
    dimension exceed it, and as ``refine`` does.
    """
    _check_depth(depth, "output depth")
    al = system.alphabet
    _check_codes(al, depth)
    for n in range(1, depth + 1):
        _check_budget(system, al.size * (al.size - 1) ** (n - 1), f"sphere {n}")
        found: dict[int, list] = {}
        for w in sphere(al, n):
            blocks = sample(w)
            if blocks is None:
                break
            found.setdefault(al._order[w.data[-1]], []).append((w, blocks))
        else:
            layer = _sampled_layer(system, n, functions, found)
            f = MultiplicativeFunction._from_layer(system, n, layer)
            return refine(f, depth)
    raise ValidationError(
        f"output depth {depth} is too small for input depth "
        f"{max(f.depth for f in functions)}"
    )


def _pull_back_function(
    system: MatrixSystem,
    depth: int,
    image,
    members,
    f: MultiplicativeFunction,
) -> MultiplicativeFunction:
    """The depth-``depth`` function over ``system``, pulled back from ``f``
    along a letter substitution, by ``sample_then_refine``.

    ``image`` and ``members`` are the tables ``system`` was pulled back
    along (see ``system._pull_back_system``).  The value at ``x t``, in the
    block of a member ``y`` of ``t``, is ``f`` at ``image(x) y``;
    ``image(x)`` is built once per prefix ``x`` from the one of ``x``
    without its last letter.
    """
    rank, letter = system.alphabet.rank, f.system.alphabet._from_int
    heads: dict[tuple[int, ...], tuple[int, ...]] = {(): ()}

    def head(x: tuple[int, ...]) -> tuple[int, ...]:
        h = heads.get(x)
        if h is None:
            h = heads[x] = _k.multiply(head(x[:-1]), image[x[-1] + rank])
        return h

    def sample(xt: Word) -> list[tuple[tuple[int, ...], int]] | None:
        h = head(xt.data[:-1])
        out = []
        for y in members[last_letter(xt)]:
            s = _k.multiply(h, y)
            if len(s) < f.depth:
                return None
            if s[-1] != y[-1]:
                raise InternalCheckError(
                    f"sample for {xt} ends at {letter[s[-1]]!r}, "
                    f"not at the block's letter {letter[y[-1]]!r}"
                )
            out.append((s, 0))
        return out

    return sample_then_refine(system, depth, sample, [f])


def evaluate(f: MultiplicativeFunction, y: Word) -> np.ndarray:
    """Value of ``f`` at a word of length at least the depth."""
    if y.alphabet != f.alphabet:
        raise InputError("word over a different alphabet")
    if len(y) < f.depth:
        raise ValidationError(
            f"value at {y} (length {len(y)}) is not determined at depth {f.depth}"
        )
    X = _evaluate_batch(
        f.system, [f], *_digits(f.alphabet, [y.data]), np.zeros(1, dtype=np.int64)
    )
    return X[0, f.system._slices[last_letter(y)]]


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
    the ball of the function's depth around the identity.

    The terminals are evaluated in one batch, so this raises
    ``ResourceLimitError`` when they times the total dimension exceed
    ``PROPAGATION_BUDGET``."""
    if tree.alphabet != f.alphabet:
        raise InputError("subtree over a different alphabet")
    if not tree.is_complete:
        raise ValidationError("norm needs a complete subtree")
    if not tree.contains_ball(f.alphabet.identity, f.depth):
        raise ValidationError(
            "subtree must contain the ball of the function's depth"
        )
    words = [t.data for t in tree.terminals]
    which = np.zeros(len(words), dtype=np.int64)
    X = _evaluate_batch(f.system, [f], *_digits(f.alphabet, words), which)
    # each row is zero off its last letter's coordinates, and B is block diagonal
    return float(np.sum((X.conj() @ f.system._B) * X).real)


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
