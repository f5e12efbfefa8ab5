"""Reduced words over a symmetric alphabet and finite subtrees of its tree.

A symmetric alphabet carries a fixed-point-free involution pairing each
letter with its inverse.  Reduced words in the letters are the vertices of
a regular tree rooted at the identity; the cone at a nontrivial vertex
consists of all words having it as a prefix.

Internally a word is a tuple of nonzero signed integers, ``-i`` inverse to
``+i``.  Hot paths (reduction, multiplication, the cone classification used
by generator changes) live in the word kernel ``_kernel_py``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from . import _kernel_py as _k
from .errors import InputError, InternalCheckError, ValidationError


def kernel_backend() -> str:
    """Name of the word kernel; the pure-Python one is the only one."""
    return "python"


class Alphabet:
    """A finite symmetric alphabet.

    >>> A = Alphabet("aAbB")
    >>> A.inverse("a"), A.inverse("B")
    ('A', 'b')
    >>> A.size, A.degree
    (4, 4)

    Symbols are paired by the explicit ``involution`` mapping or, by
    default, by matching lower/upper case of the same character.
    """

    __slots__ = ("letters", "_inv_sym", "_to_int", "_from_int", "_file_ints", "_order")

    def __init__(
        self,
        symbols: Iterable[str],
        involution: Mapping[str, str] | None = None,
    ):
        letters = tuple(symbols)
        if len(set(letters)) != len(letters):
            raise InputError(f"duplicate symbols in alphabet {letters!r}")
        if len(letters) % 2 != 0 or len(letters) < 4:
            raise InputError(
                f"alphabet needs an even number >= 4 of letters, got {len(letters)}"
            )
        for s in letters:
            if not isinstance(s, str) or not s:
                raise InputError(f"alphabet symbols must be nonempty strings: {s!r}")

        if involution is None:
            inv = {}
            for s in letters:
                t = s.swapcase()
                if t == s or t not in letters:
                    raise InputError(
                        f"no case-paired inverse for {s!r}; pass an explicit involution"
                    )
                inv[s] = t
        else:
            inv = dict(involution)
            for s, t in list(inv.items()):
                inv.setdefault(t, s)
        if set(inv) != set(letters):
            raise InputError("involution must cover every letter exactly")
        for s in letters:
            t = inv[s]
            if t == s:
                raise InputError(f"involution fixes {s!r}; inverses must be distinct")
            if inv[t] != s:
                raise InputError(f"involution not of order two at {s!r}")

        to_int: dict[str, int] = {}
        from_int: dict[int, str] = {}
        n = 0
        for s in letters:
            if s in to_int:
                continue
            n += 1
            to_int[s] = n
            to_int[inv[s]] = -n
            from_int[n] = s
            from_int[-n] = inv[s]
        self.letters = letters
        self._inv_sym = inv
        self._to_int = to_int
        self._from_int = from_int
        self._file_ints = tuple(to_int[s] for s in letters)
        self._order = {to_int[s]: i for i, s in enumerate(letters)}

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def degree(self) -> int:
        """Degree of every vertex of the tree (= number of letters)."""
        return len(self.letters)

    @property
    def rank(self) -> int:
        return len(self.letters) // 2

    def inverse(self, symbol: str) -> str:
        try:
            return self._inv_sym[symbol]
        except KeyError:
            raise InputError(f"unknown letter {symbol!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._inv_sym

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Alphabet)
            and self.letters == other.letters
            and self._inv_sym == other._inv_sym
        )

    def __hash__(self) -> int:
        return hash((self.letters, tuple(sorted(self._inv_sym.items()))))

    def __repr__(self) -> str:
        return f"Alphabet({list(self.letters)!r})"

    @property
    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, spec: "str | Sequence[str] | Word") -> "Word":
        """Build a reduced word from a string or a sequence of symbols.

        A string is split into single characters, so it is only accepted
        when every symbol of the alphabet is a single character.

        >>> A = Alphabet("aAbB")
        >>> A.word("abA")
        Word('abA')
        >>> A.word(["a", "A"])
        Word('')
        """
        if isinstance(spec, Word):
            if spec.alphabet != self:
                raise InputError("word belongs to a different alphabet")
            return spec
        if isinstance(spec, str):
            if any(len(s) != 1 for s in self.letters):
                raise InputError(
                    "string form needs single-character symbols; pass a list"
                )
            parts: Sequence[str] = tuple(spec)
        else:
            parts = tuple(spec)
        try:
            ints = [self._to_int[s] for s in parts]
        except KeyError as exc:
            raise InputError(f"unknown letter {exc.args[0]!r}") from None
        return Word(self, _k.reduce_word(ints))


class Word:
    """An element of the free group as a reduced word; immutable, hashable.

    >>> A = Alphabet("aAbB")
    >>> x = A.word("ab") * A.word("Ba")
    >>> x, len(x), x.inverse()
    (Word('aa'), 2, Word('AA'))
    """

    __slots__ = ("alphabet", "data")

    def __init__(self, alphabet: Alphabet, data: tuple[int, ...]):
        self.alphabet = alphabet
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Word)
            and self.data == other.data
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        # CPython hashes -1 and -2 alike; the doubled letters hash apart.
        return hash(tuple([2 * i for i in self.data]))

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise InputError("cannot multiply words over different alphabets")
        return Word(self.alphabet, _k.multiply(self.data, other.data))

    def inverse(self) -> "Word":
        return Word(self.alphabet, _k.invert(self.data))

    def __invert__(self) -> "Word":
        return self.inverse()

    def letters(self) -> tuple[str, ...]:
        fi = self.alphabet._from_int
        return tuple(fi[i] for i in self.data)

    def __str__(self) -> str:
        if not self.data:
            return "e"
        syms = self.letters()
        if all(len(s) == 1 for s in syms):
            return "".join(syms)
        return "·".join(syms)

    def __repr__(self) -> str:
        return f"Word('{'' if not self.data else self.__str__()}')"

    def sort_key(self) -> tuple:
        """Shortlex key: length first, then alphabet file order."""
        order = self.alphabet._order
        return (len(self.data), tuple(order[i] for i in self.data))

    def starts_with(self, prefix: "Word") -> bool:
        return self.data[: len(prefix.data)] == prefix.data

    def prefix(self, n: int) -> "Word":
        return Word(self.alphabet, self.data[:n])


def last_letter(x: Word) -> str:
    """Final letter of a nontrivial word; the type of the vertex."""
    if not x.data:
        raise ValidationError("the trivial word has no last letter")
    return x.alphabet._from_int[x.data[-1]]


def first_letter(x: Word) -> str:
    if not x.data:
        raise ValidationError("the trivial word has no first letter")
    return x.alphabet._from_int[x.data[0]]


def drop_last(x: Word) -> Word:
    """Parent vertex in the tree (the word without its final letter)."""
    if not x.data:
        raise ValidationError("the trivial word has no parent")
    return Word(x.alphabet, x.data[:-1])


def cone_contains(z: Word, y: Word) -> bool:
    """Whether ``y`` lies in the cone at ``z`` (``z`` a prefix of ``y``).

    The cone at the trivial word is the whole tree.

    >>> A = Alphabet("aAbB")
    >>> cone_contains(A.word("ab"), A.word("abA"))
    True
    >>> cone_contains(A.word("ab"), A.word("a"))
    False
    """
    return y.starts_with(z)


def translate_cone(x: Word, y: Word) -> Word | None:
    """Root of the translate by ``x`` of the cone at ``y``, if it is a cone.

    The translate is again a cone exactly when ``y`` does not lie on the
    path from the trivial word to ``x.inverse()``; in that case it is the
    cone at ``x * y``.  Returns ``None`` otherwise.
    """
    if not y.data:
        raise ValidationError("cones are rooted at nontrivial vertices")
    xi = x.inverse()
    if xi.starts_with(y):
        return None
    return x * y


def geodesic(x: Word, y: Word) -> list[Word]:
    """Vertices of the tree path from ``x`` to ``y``, inclusive.

    >>> A = Alphabet("aAbB")
    >>> [str(v) for v in geodesic(A.word("ab"), A.word("aB"))]
    ['ab', 'a', 'aB']
    """
    w = x.inverse() * y
    return [x * Word(x.alphabet, w.data[:k]) for k in range(len(w.data) + 1)]


def children(x: Word) -> Iterator[Word]:
    """The ``degree - 1`` children of a nontrivial vertex (all neighbours
    farther from the root); for the trivial word, all ``degree`` neighbours."""
    al = x.alphabet
    banned = -x.data[-1] if x.data else 0
    for s in al._file_ints:
        if s != banned:
            yield Word(al, x.data + (s,))


def _letter_table(al: Alphabet, images: Mapping[str, Word]) -> tuple:
    """Kernel substitution table of ``apply_morphism``: slot ``i + rank``
    holds the image data of the letter numbered ``i`` (slot ``rank`` is
    unused)."""
    m = al.rank
    return tuple(
        images[al._from_int[i]].data if i else () for i in range(-m, m + 1)
    )


def sphere(alphabet: Alphabet, radius: int) -> list[Word]:
    """All words of the given length, in shortlex order.

    >>> A = Alphabet("aAbB")
    >>> [str(w) for w in sphere(A, 1)]
    ['a', 'A', 'b', 'B']
    """
    if radius < 0:
        raise InputError("radius must be nonnegative")
    layer = [()]
    for _ in range(radius):
        nxt = []
        for w in layer:
            banned = -w[-1] if w else 0
            for s in alphabet._file_ints:
                if s != banned:
                    nxt.append(w + (s,))
        layer = nxt
    return [Word(alphabet, w) for w in layer]


def ball(center: Word, radius: int) -> "FiniteSubtree":
    """The subtree of all vertices within ``radius`` of ``center``."""
    if radius < 0:
        raise InputError("radius must be nonnegative")
    al = center.alphabet
    verts = []
    for k in range(radius + 1):
        for w in sphere(al, k):
            verts.append(center * w)
    return FiniteSubtree(al, verts)


def _neighbours(v: Word) -> Iterator[Word]:
    al = v.alphabet
    for s in al._file_ints:
        yield Word(al, _k.multiply(v.data, (s,)))


class FiniteSubtree:
    """A finite connected set of vertices of the tree.

    ``complete`` means every vertex is either terminal (degree one in the
    subtree, or an isolated root) or has full degree in the subtree.
    """

    __slots__ = ("alphabet", "vertices", "_terminals", "_complete")

    def __init__(self, alphabet: Alphabet, vertices: Iterable[Word]):
        vs = frozenset(vertices)
        if not vs:
            raise ValidationError("a subtree needs at least one vertex")
        for v in vs:
            if v.alphabet != alphabet:
                raise InputError("vertex from a different alphabet")
        self.alphabet = alphabet
        self.vertices = vs
        self._terminals: frozenset[Word] | None = None
        self._complete: bool | None = None
        self._check_connected()

    def _check_connected(self) -> None:
        # Each edge inside the set is counted once, at the vertex whose
        # parent (``drop_last``) is the other end, and a forest on n
        # vertices is one tree iff it has n - 1 edges.
        data = {v.data for v in self.vertices}
        edges = sum(1 for w in data if w and w[:-1] in data)
        if edges != len(data) - 1:
            raise ValidationError(
                f"vertex set is not connected: it has {len(data) - edges} pieces"
            )

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, v: Word) -> bool:
        return v in self.vertices

    def __iter__(self) -> Iterator[Word]:
        return iter(sorted(self.vertices, key=Word.sort_key))

    def degree_in(self, v: Word) -> int:
        return sum(1 for u in _neighbours(v) if u in self.vertices)

    @property
    def terminals(self) -> frozenset[Word]:
        """Vertices of subtree-degree at most one (the boundary)."""
        if self._terminals is None:
            if len(self.vertices) == 1:
                self._terminals = frozenset(self.vertices)
            else:
                self._terminals = frozenset(
                    v for v in self.vertices if self.degree_in(v) <= 1
                )
        return self._terminals

    @property
    def interior(self) -> frozenset[Word]:
        return self.vertices - self.terminals

    @property
    def is_complete(self) -> bool:
        """Every vertex is terminal or of full degree."""
        if self._complete is None:
            deg = self.alphabet.degree
            self._complete = all(
                self.degree_in(v) in (0, 1, deg) for v in self.vertices
            )
        return self._complete

    def contains_ball(self, center: Word, radius: int) -> bool:
        return all(v in self.vertices for v in ball(center, radius))


def complete_subtree_of(alphabet: Alphabet, vertices: Iterable[Word]) -> FiniteSubtree:
    """Validate a vertex set as a complete finite subtree."""
    t = FiniteSubtree(alphabet, vertices)
    if not t.is_complete:
        raise ValidationError("subtree is not complete: some vertex has partial degree")
    return t


def based_root(t: FiniteSubtree) -> tuple[Word, Word]:
    """The based root pair of a complete subtree missing the identity.

    Requires the identity to lie outside the subtree.  Returns ``(x_bar,
    x)`` where ``x`` is the vertex of the subtree closest to the identity
    and ``x_bar``, its parent, is the unique outside neighbour through
    which every path to the identity leaves.
    """
    if not t.is_complete:
        raise ValidationError("based root needs a complete subtree")
    e = t.alphabet.identity
    if e in t.vertices:
        raise ValidationError("based root needs the identity outside the subtree")
    x = min(t.vertices, key=Word.sort_key)
    xb = drop_last(x)
    # Connectivity without the identity forces a unique closest vertex with
    # everything else below it; anything less is a bug upstream.
    for v in t.vertices:
        if not v.starts_with(x):
            raise InternalCheckError("subtree has two branches toward the identity")
    if xb in t.vertices:
        raise InternalCheckError("parent of the closest vertex is inside the subtree")
    return xb, x
