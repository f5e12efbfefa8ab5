"""Independent checks and input generators for the benchmark.

Everything here is plain numpy and string handling.  None of it calls the
package's numerical routes (normalization, decomposition, evaluation,
inner products, frontier search): the checks recompute each claimed
property by a different method, and the input generators make compatible
and certified-irreducible systems without the code under test.

A check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import numpy as np

from freemult import Alphabet, MatrixSystem, MultiplicativeFunction, Word

# ------------------------------------------------------------------ systems


def admissible_pairs(al: Alphabet):
    """``(target, source)`` letter pairs that can follow one another."""
    for a in al.letters:
        for b in al.letters:
            if b != al.inverse(a):
                yield b, a


def random_system(rng: np.random.Generator, al: Alphabet, dims: dict) -> MatrixSystem:
    """Complex Gaussian transfer matrices and identity forms."""
    H = {}
    for b, a in admissible_pairs(al):
        m = rng.standard_normal((dims[b], dims[a])) + 1j * rng.standard_normal(
            (dims[b], dims[a])
        )
        H[(b, a)] = m / np.sqrt(dims[b] * (al.size - 1))
    B = {a: np.eye(dims[a], dtype=complex) for a in al.letters}
    return MatrixSystem(al, dict(dims), H, B)


def random_dims(rng: np.random.Generator, al: Alphabet, max_dim: int) -> dict:
    return {a: int(rng.integers(1, max_dim + 1)) for a in al.letters}


def _offsets(sys: MatrixSystem) -> tuple[dict, int]:
    offsets, n = {}, 0
    for a in sys.alphabet.letters:
        offsets[a] = n
        n += sys.dims[a] ** 2
    return offsets, n


def kron_operator(sys: MatrixSystem) -> np.ndarray:
    """The transfer operator ``X_a -> sum_b H(b,a)* X_b H(b,a)`` on
    row-major vectorized complex matrices, assembled from Kronecker
    products (not from the package's Hermitian coordinates)."""
    al = sys.alphabet
    offsets, n = _offsets(sys)
    m = np.zeros((n, n), dtype=complex)
    for b, a in admissible_pairs(al):
        if sys.dims[a] == 0 or sys.dims[b] == 0:
            continue
        h = sys.H(b, a)
        oa, ob = offsets[a], offsets[b]
        m[oa : oa + sys.dims[a] ** 2, ob : ob + sys.dims[b] ** 2] += np.kron(
            h.conj().T, h.T
        )
    return m


def kron_rho(sys: MatrixSystem) -> float:
    """Spectral radius of the transfer operator from dense eigenvalues."""
    return float(np.abs(np.linalg.eigvals(kron_operator(sys))).max())


def defect(sys: MatrixSystem) -> float:
    """``max_a || B_a - sum_b H(b,a)* B_b H(b,a) ||_2``."""
    worst = 0.0
    for a in sys.alphabet.letters:
        if sys.dims[a] == 0:
            continue
        acc = np.zeros((sys.dims[a], sys.dims[a]), dtype=complex)
        for b in sys.alphabet.letters:
            if b != sys.alphabet.inverse(a) and sys.dims[b]:
                h = sys.H(b, a)
                acc += h.conj().T @ sys.B(b) @ h
        worst = max(worst, float(np.linalg.norm(sys.B(a) - acc, 2)))
    return worst


def normalized(sys: MatrixSystem) -> MatrixSystem | None:
    """A compatible rescaling of ``sys`` with positive-definite forms, from
    the leading eigenvector of the Kronecker operator; ``None`` when that
    eigenvector is not positive definite."""
    offsets, _ = _offsets(sys)
    evals, evecs = np.linalg.eig(kron_operator(sys))
    k = int(np.argmax(np.abs(evals)))
    rho = float(abs(evals[k]))
    v = evecs[:, k]
    forms = {}
    for a in sys.alphabet.letters:
        d = sys.dims[a]
        forms[a] = v[offsets[a] : offsets[a] + d * d].reshape(d, d)
    total = sum(np.trace(x) for x in forms.values())
    for a, x in forms.items():
        x = x / total
        forms[a] = (x + x.conj().T) / 2
    for x in forms.values():
        if x.size and np.linalg.eigvalsh(x)[0] <= 1e-6 * np.linalg.norm(x, 2):
            return None
    H = {(b, a): sys.H(b, a) / np.sqrt(rho) for b, a in admissible_pairs(sys.alphabet)}
    out = MatrixSystem(sys.alphabet, dict(sys.dims), H, forms)
    return out if defect(out) <= 1e-10 else None


def random_compatible(
    rng: np.random.Generator, al: Alphabet, max_dim: int
) -> MatrixSystem:
    for _ in range(50):
        out = normalized(random_system(rng, al, random_dims(rng, al, max_dim)))
        if out is not None:
            return out
    raise RuntimeError("no positive-definite compatible sample in 50 draws")


def block_sum(pieces: list[MatrixSystem]) -> MatrixSystem:
    """Block-diagonal direct sum."""
    al = pieces[0].alphabet
    dims = {a: sum(p.dims[a] for p in pieces) for a in al.letters}

    def blockdiag(blocks, rows, cols):
        m = np.zeros((rows, cols), dtype=complex)
        r = c = 0
        for x in blocks:
            m[r : r + x.shape[0], c : c + x.shape[1]] = x
            r += x.shape[0]
            c += x.shape[1]
        return m

    H = {
        (b, a): blockdiag([p.H(b, a) for p in pieces], dims[b], dims[a])
        for b, a in admissible_pairs(al)
    }
    B = {a: blockdiag([p.B(a) for p in pieces], dims[a], dims[a]) for a in al.letters}
    return MatrixSystem(al, dims, H, B)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def disguise(rng: np.random.Generator, sys: MatrixSystem) -> MatrixSystem:
    """Conjugate by random letterwise unitaries."""
    al = sys.alphabet
    U = {a: random_unitary(rng, sys.dims[a]) for a in al.letters}
    H = {(b, a): U[b] @ sys.H(b, a) @ U[a].conj().T for b, a in admissible_pairs(al)}
    B = {a: U[a] @ sys.B(a) @ U[a].conj().T for a in al.letters}
    B = {a: (x + x.conj().T) / 2 for a, x in B.items()}
    return MatrixSystem(al, dict(sys.dims), H, B)


def residual(comp: MatrixSystem, host: MatrixSystem, emb) -> float:
    """Worst ``|| H_host(b,a) E_a - E_b H_comp(b,a) ||_2``."""
    worst = 0.0
    for b, a in admissible_pairs(comp.alphabet):
        lhs = host.H(b, a) @ emb[a]
        if lhs.size:
            worst = max(worst, float(np.linalg.norm(lhs - emb[b] @ comp.H(b, a), 2)))
    return worst


def unspanned_letters(host: MatrixSystem, embs) -> list[str]:
    """Letters ``a`` at which the embeddings ``E_a`` of the components,
    side by side, have rank below ``host.dims[a]``: there the components
    do not fill the host space."""
    short = []
    for a in host.alphabet.letters:
        if not host.dims[a]:
            continue
        s = np.linalg.svd(np.hstack([e[a] for e in embs]), compute_uv=False)
        if s.size < host.dims[a] or not s[host.dims[a] - 1] > 1e-8 * s[0]:
            short.append(a)
    return short


# ------------------------------------------------------- irreducibility


def _span(mats: list[np.ndarray], rtol: float = 1e-9) -> list[np.ndarray]:
    """An orthonormal basis (as matrices) of the span of ``mats``."""
    shape = mats[0].shape
    cols = np.array([m.ravel() for m in mats]).T
    if not cols.size:
        return []
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return []
    rank = int((s > rtol * s[0]).sum())
    return [u[:, k].reshape(shape) for k in range(rank)]


def _path_spans(sys: MatrixSystem, a: str, into: bool) -> dict[str, list[np.ndarray]]:
    """Spans of transfer products along admissible letter paths that start
    at ``a`` (``into=False``: maps V_a -> V_c) or end at ``a``
    (``into=True``: maps V_c -> V_a), the empty path included."""
    al = sys.alphabet
    live = [c for c in al.letters if sys.dims[c]]
    spans = {c: [] for c in live}
    spans[a] = [np.eye(sys.dims[a], dtype=complex)]
    changed = True
    while changed:
        changed = False
        for b, c in admissible_pairs(al):
            if b not in spans or c not in spans:
                continue
            h = sys.H(b, c)
            if into:  # path c -> b -> ... -> a
                src, dst, new = b, c, [m @ h for m in spans[b]]
            else:  # path a -> ... -> c -> b
                src, dst, new = c, b, [h @ m for m in spans[c]]
            if not spans[src]:
                continue
            grown = _span(spans[dst] + new)
            if len(grown) > len(spans[dst]):
                spans[dst] = grown
                changed = True
    return spans


def certified_irreducible(sys: MatrixSystem) -> bool:
    """Burnside-type certificate of irreducibility over the complex numbers.

    With ``a`` a letter of nonzero dimension, the system is irreducible
    exactly when the closure of ``V_a`` is everything, no nonzero vector
    at any letter is killed by every path into ``a``, and the loop algebra
    at ``a`` is all of ``End(V_a)`` (dimension ``d_a^2``).
    """
    a = next(c for c in sys.alphabet.letters if sys.dims[c])
    out_spans = _path_spans(sys, a, into=False)
    if len(out_spans[a]) != sys.dims[a] ** 2:
        return False
    in_spans = _path_spans(sys, a, into=True)
    for c, mats in out_spans.items():
        d = sys.dims[c]
        if not mats or np.linalg.matrix_rank(np.hstack(mats), tol=1e-9) != d:
            return False
        back = in_spans[c]
        if not back or np.linalg.matrix_rank(np.vstack(back), tol=1e-9) != d:
            return False
    return True


# ------------------------------------------------------------ words


def random_word(rng: np.random.Generator, al: Alphabet, length: int) -> Word:
    syms: list[str] = []
    while len(syms) < length:
        c = al.letters[int(rng.integers(al.size))]
        if syms and c == al.inverse(syms[-1]):
            continue
        syms.append(c)
    return al.word(syms)


def words_of_length(al: Alphabet, n: int) -> list[tuple[str, ...]]:
    """Reduced letter tuples of length ``n``."""
    layer: list[tuple[str, ...]] = [()]
    for _ in range(n):
        layer = [
            w + (c,) for w in layer for c in al.letters if not w or c != al.inverse(w[-1])
        ]
    return layer


def free_reduce(al: Alphabet, letters) -> tuple[str, ...]:
    out: list[str] = []
    for c in letters:
        if out and out[-1] == al.inverse(c):
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def substitute(al: Alphabet, images: dict[str, str], word) -> tuple[str, ...]:
    """Free reduction of the concatenated images of ``word``'s letters;
    ``images`` names the positive letters, inverses are derived."""
    full = dict(images)
    for s, w in images.items():
        full[al.inverse(s)] = "".join(al.inverse(c) for c in reversed(w))
    return free_reduce(al, [c for s in word for c in full[s]])


def frontier_problems(
    al: Alphabet, images: dict[str, str], fronts: dict[str, tuple[Word, ...]]
) -> list[str]:
    """Check frontier sets of a generator change by substitution alone.

    With ``L`` two more than the longest member: every source word of
    length at most ``L`` has at most one member as a prefix, every word of
    length ``L`` has exactly one, and the substituted word begins with that
    member's target letter.  No member's parent has every descendant up to
    length ``L`` substituting into the member's letter (minimality).
    """
    owner: dict[tuple[str, ...], str] = {}
    problems: list[str] = []
    for a, members in fronts.items():
        for y in members:
            key = y.letters()
            if key in owner:
                problems.append(f"{y} is a member for both {owner[key]} and {a}")
            owner[key] = a
    if not owner:
        return ["all frontiers are empty"]
    top = max(len(k) for k in owner) + 2
    first: dict[tuple[str, ...], str | None] = {}
    for n in range(1, top + 1):
        for w in words_of_length(al, n):
            img = substitute(al, images, w)
            first[w] = img[0] if img else None
            hits = [w[:k] for k in range(1, n + 1) if w[:k] in owner]
            if len(hits) > 1 or (n == top and len(hits) != 1):
                problems.append(f"{''.join(w)} has {len(hits)} frontier prefixes")
                continue
            if hits and first[w] != owner[hits[0]]:
                problems.append(
                    f"{''.join(w)} lies below member {''.join(hits[0])} of "
                    f"{owner[hits[0]]} but substitutes to {''.join(img)}"
                )
    for y, a in owner.items():
        parent = y[:-1]
        if not parent:
            continue
        below = [w for w, c in first.items() if w[: len(parent)] == parent]
        if all(first[w] == a for w in below):
            problems.append(f"parent of member {''.join(y)} of {a} already lands in {a}")
    return problems


# -------------------------------------------------------- functions


def random_function(
    rng: np.random.Generator, sys: MatrixSystem, depth: int, support: int | None = None
) -> MultiplicativeFunction:
    """Random complex values on the whole sphere of ``depth``, or on
    ``support`` words of it chosen at random."""
    words = [sys.alphabet.word(w) for w in words_of_length(sys.alphabet, depth)]
    if support is not None:
        pick = rng.choice(len(words), size=support, replace=False)
        words = [words[int(k)] for k in sorted(pick)]
    values = {}
    for w in words:
        d = sys.dims[w.letters()[-1]]
        values[w] = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultiplicativeFunction(sys, depth, values)


def pairing(f: MultiplicativeFunction, g: MultiplicativeFunction) -> complex:
    """``sum_w f(w)* B g(w)`` for two functions of equal depth over the same
    (compatible) system."""
    if f.depth != g.depth:
        raise ValueError("pairing needs equal depths")
    sys = f.system
    total = 0.0 + 0.0j
    for w, v in f.values.items():
        u = g.values.get(w)
        if u is not None:
            total += v.conj() @ sys.B(w.letters()[-1]) @ u
    return complex(total)


def value_at(f: MultiplicativeFunction, letters: tuple[str, ...]) -> np.ndarray:
    """Value of ``f`` at a reduced word at least as long as its depth, by
    propagating the stored value along the remaining letters."""
    al = f.system.alphabet
    head = al.word(letters[: f.depth])
    v = f.values.get(head)
    if v is None:
        return np.zeros(f.system.dims[letters[-1]], dtype=complex)
    for prev, cur in zip(letters[f.depth - 1 :], letters[f.depth :]):
        v = f.system.H(cur, prev) @ v
    return v


def gap(got: complex, want: complex, scale: float) -> float:
    return abs(got - want) / max(scale, 1e-300)
