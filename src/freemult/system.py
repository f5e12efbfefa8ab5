"""Matrix systems: one vector space per letter, one transfer matrix per
admissible letter pair, one Hermitian form per letter.

A system assigns a complex space ``V_a`` of dimension ``dims[a]`` to each
letter, a matrix ``H[b, a] : V_a -> V_b`` to each ordered pair with
``a * b != e`` (the pair ``(inverse(a), a)`` is forced to zero), and a
positive semidefinite Hermitian matrix ``B[a]`` on each ``V_a``.  The
system is compatible when every ``B_a`` equals the sum of the pullbacks of
the ``B_b`` along the outgoing matrices; ``compatibility_defect`` measures
the worst deviation in spectral norm.

Forms follow the convention that the pairing is conjugate-linear in the
first argument: ``<v, w>_a = v* B_a w``.

Block layout.  Each letter owns one coordinate range of ``C^total_dim``,
in alphabet order.  ``H`` is stored as one read-only square matrix with
``H[b, a]`` at the rows of ``b`` and the columns of ``a`` (zero blocks at
inverse and absent pairs), ``B`` as one read-only block-diagonal matrix, and
``H(b, a)`` and ``B(a)`` are views of their blocks.  A letterwise family (a
form tuple, subspace bases, a ``SystemMap``) is a block-diagonal matrix, so
a transfer step is the diagonal of ``H* X H`` and restriction, quotient and
conjugation are one compression ``Q* H Q``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, InternalCheckError, ValidationError
from .tolerances import (
    CLOSE_TOL,
    CONJUGATE_RESIDUAL_FLOOR,
    CONJUGATE_RESIDUAL_SLACK,
    FORM_HERMITIAN_RTOL,
    INVARIANT_TOL,
    KEPT_DEFECT_FLOOR,
    KEPT_DEFECT_SLACK,
    PSD_TOL,
    RANK_RTOL,
    UNITARY_TOL,
)
from .words import Alphabet


def _as_matrix(value, rows: int, cols: int, what: str) -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.shape != (rows, cols):
        raise InputError(f"{what}: expected shape {(rows, cols)}, got {m.shape}")
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _excess(
    resid: np.ndarray,
    tol: float,
    measure: Callable[[], float],
    scale: Callable[[], float] = lambda: 1.0,
) -> float | None:
    """``measure()`` when it exceeds ``tol * max(1, scale())``, else None.

    ``measure`` is the 2-norm of ``resid``, or the largest 2-norm of blocks
    of ``resid`` each divided by at least one, so the Frobenius norm of the
    whole of ``resid`` bounds it.  When that norm is at most ``tol / 2``
    neither ``measure`` nor ``scale`` runs (they take SVDs); the half
    absorbs the rounding of both norms, which may put a computed 2-norm an
    ulp above the computed Frobenius norm.  Otherwise the comparison is made
    as written, so every decision and every reported value is the one the
    SVD-based test gives.
    """
    if np.linalg.norm(resid) <= tol / 2:
        return None
    value = measure()
    return None if value <= tol * max(1.0, scale()) else value


def _is_hermitian(m: np.ndarray, tol: float) -> bool:
    """Whether ``||m - m*||_2 <= tol * max(1, ||m||_2)``."""
    skew = m - m.conj().T
    return _excess(skew, tol, lambda: _snorm(skew), lambda: _snorm(m)) is None


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """Positive semidefiniteness up to a relative eigenvalue tolerance."""
    if m.size == 0:
        return True
    if not _is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh(_hermitian_part(m))
    scale = max(1.0, float(w[-1]))
    return bool(w[0] >= -tol * scale)


def _checked_form(m: np.ndarray, a: str) -> np.ndarray:
    """The Hermitian part of a form, after checking it is Hermitian and
    positive semidefinite."""
    if not _is_hermitian(m, FORM_HERMITIAN_RTOL):
        raise ValidationError(f"B[{a!r}] is not Hermitian")
    m = _hermitian_part(m)
    if not is_psd(m):
        raise ValidationError(f"B[{a!r}] is not positive semidefinite")
    return m


def _layout(alphabet: Alphabet, dims: Mapping[str, int]) -> dict[str, slice]:
    """Coordinate range of each letter's space, in alphabet order."""
    out, pos = {}, 0
    for a in alphabet.letters:
        out[a] = slice(pos, pos + dims[a])
        pos += dims[a]
    return out


def _blockdiag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal matrix of possibly rectangular blocks."""
    rows = sum(m.shape[0] for m in blocks)
    cols = sum(m.shape[1] for m in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for m in blocks:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


class MatrixSystem:
    """Immutable container for ``(dims, H, B)`` over a symmetric alphabet.

    ``H`` maps ``(target, source)`` letter pairs to matrices; omitted pairs
    are zero.  Zero-dimensional letters are allowed and their matrices are
    empty.
    """

    __slots__ = (
        "alphabet", "dims", "_H", "_B", "_slices", "_stored", "_same", "_norms"
    )

    def __init__(
        self,
        alphabet: Alphabet,
        dims: Mapping[str, int],
        H: Mapping[tuple[str, str], np.ndarray],
        B: Mapping[str, np.ndarray],
    ):
        if set(dims) != set(alphabet.letters):
            raise InputError("dims must assign every letter a dimension")
        for a, d in dims.items():
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise InputError(f"dims[{a!r}] must be a nonnegative integer")
        sl = _layout(alphabet, dims)
        n = sum(dims.values())

        h = np.zeros((n, n), dtype=complex)
        for (b, a), m in H.items():
            if a not in alphabet or b not in alphabet:
                raise InputError(f"H[{b!r}, {a!r}]: unknown letter")
            mm = _as_matrix(m, dims[b], dims[a], f"H[{b!r}, {a!r}]")
            if b == alphabet.inverse(a) and np.any(mm != 0):
                raise ValidationError(
                    f"H[{b!r}, {a!r}] must vanish: the pair composes to the identity"
                )
            h[sl[b], sl[a]] = mm
        forms = np.zeros((n, n), dtype=complex)
        for a in alphabet.letters:
            if a not in B:
                raise InputError(f"B[{a!r}] missing")
            m = _as_matrix(B[a], dims[a], dims[a], f"B[{a!r}]")
            forms[sl[a], sl[a]] = _checked_form(m, a)
        self._set(alphabet, dims, h, forms)

    def _set(
        self, alphabet: Alphabet, dims: Mapping[str, int], H: np.ndarray, B: np.ndarray
    ) -> None:
        self.alphabet, self.dims = alphabet, dict(dims)
        self._slices = sl = _layout(alphabet, dims)
        H.flags.writeable = False
        B.flags.writeable = False
        self._H, self._B = H, B
        letters = alphabet.letters
        self._stored = dict.fromkeys(
            (b, a) for a in letters for b in letters if H[sl[b], sl[a]].any()
        )
        # Where row and column coordinates belong to the same letter.
        owner = np.repeat(np.arange(len(letters)), [dims[a] for a in letters])
        self._same = owner[:, None] == owner[None, :]
        self._norms: dict[tuple[str, str], float] | None = None

    @classmethod
    def _unchecked(
        cls,
        alphabet: Alphabet,
        dims: Mapping[str, int],
        H: np.ndarray,
        B: np.ndarray,
    ) -> "MatrixSystem":
        """A system derived from a validated one, built from its block
        matrices without the checks.

        The caller guarantees what ``__init__`` checks: ``H`` is a complex
        matrix in the block layout of ``dims`` with zero blocks at inverse
        pairs, and ``B`` is block diagonal with Hermitian positive
        semidefinite complex blocks.  Both arrays are kept, made read-only.
        """
        out = cls.__new__(cls)
        out._set(alphabet, dims, H, B)
        return out

    @classmethod
    def _from_blocks(
        cls,
        alphabet: Alphabet,
        dims: Mapping[str, int],
        H: np.ndarray,
        B: np.ndarray,
    ) -> "MatrixSystem":
        """:meth:`_unchecked` after the form checks of ``__init__``; the
        caller guarantees the rest."""
        B = np.array(B, dtype=complex)
        for a, s in _layout(alphabet, dims).items():
            B[s, s] = _checked_form(B[s, s], a)
        return cls._unchecked(alphabet, dims, H, B)

    def H(self, b: str, a: str) -> np.ndarray:
        """Transfer matrix ``V_a -> V_b`` (a read-only view; zero when
        absent)."""
        return self._H[self._slices[b], self._slices[a]]

    def B(self, a: str) -> np.ndarray:
        s = self._slices[a]
        return self._B[s, s]

    def pairs(self) -> Iterable[tuple[str, str]]:
        """All admissible ordered pairs ``(target, source)``."""
        inv = self.alphabet.inverse
        for a in self.alphabet.letters:
            for b in self.alphabet.letters:
                if b != inv(a):
                    yield (b, a)

    def stored_pairs(self) -> Iterable[tuple[str, str]]:
        """The pairs with a nonzero transfer matrix, in the order of
        :meth:`pairs`."""
        return self._stored.keys()

    def _block_norms(self) -> dict[tuple[str, str], float]:
        """The 2-norm of each stored transfer matrix, taken on first use."""
        if self._norms is None:
            self._norms = {
                (b, a): float(np.linalg.norm(self.H(b, a), 2)) for b, a in self._stored
            }
        return self._norms

    @property
    def total_dim(self) -> int:
        return self._H.shape[0]

    def scale_H(self, factor: complex) -> "MatrixSystem":
        # the forms are this system's own, already checked
        return MatrixSystem._unchecked(
            self.alphabet, self.dims, factor * self._H, self._B
        )

    def with_forms(self, B: Mapping[str, np.ndarray]) -> "MatrixSystem":
        H = {(b, a): self.H(b, a) for b, a in self._stored}
        return MatrixSystem(self.alphabet, self.dims, H, B)

    def close_to(self, other: "MatrixSystem", tol: float = CLOSE_TOL) -> bool:
        if self.alphabet != other.alphabet or self.dims != other.dims:
            return False
        sl = self._slices
        dh, db = self._H - other._H, self._B - other._B
        if any(np.linalg.norm(dh[sl[b], sl[a]]) > tol for b, a in self.pairs()):
            return False
        return all(np.linalg.norm(db[s, s]) <= tol for s in sl.values())

    def __repr__(self) -> str:
        d = ", ".join(f"{a}:{self.dims[a]}" for a in self.alphabet.letters)
        return f"MatrixSystem({d})"


def _snorm(x: np.ndarray) -> float:
    """Spectral norm, zero for an empty array; for a block-diagonal array
    the largest norm of a block."""
    return 0.0 if x.size == 0 else float(np.linalg.norm(x, 2))


def _transfer(sys: MatrixSystem, x: np.ndarray) -> np.ndarray:
    """One transfer step on a block-diagonal form array: the diagonal
    blocks of ``H* x H``."""
    return np.where(sys._same, sys._H.conj().T @ x @ sys._H, 0)


def apply_transfer(
    sys: MatrixSystem, forms: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One transfer step ``(X_a)_a -> (sum_b H(b,a)* X_b H(b,a))_a``: pull
    each form back along the outgoing matrices."""
    img = _transfer(sys, _blockdiag([forms[a] for a in sys.alphabet.letters]))
    return {a: img[s, s] for a, s in sys._slices.items()}


def compatibility_defect(sys: MatrixSystem) -> float:
    """Worst-case spectral-norm gap in the compatibility identity.

    ``max_a || B_a - sum_b H(b,a)* B_b H(b,a) ||_2``; zero exactly when the
    forms reproduce themselves under one transfer step.
    """
    return _snorm(sys._B - _transfer(sys, sys._B))


def _check_compatibility_kept(
    source: MatrixSystem, out: MatrixSystem, tol: float, what: str
) -> None:
    """Raise when ``out`` is incompatible although ``source`` is compatible
    within ``tol``.  The source is only measured when the output fails."""
    d = compatibility_defect(out)
    bound = max(tol, KEPT_DEFECT_FLOOR) * KEPT_DEFECT_SLACK
    if d > bound and compatibility_defect(source) <= tol:
        raise InternalCheckError(f"{what} broke compatibility: defect {d:.3e}")


def _carry(
    sys: MatrixSystem, start: str, path: Sequence[int], x: np.ndarray
) -> tuple[np.ndarray, str]:
    """Carry ``x`` from the space at ``start`` along a path of signed letter
    ints, one transfer ``H(cur, prev)`` per letter.  Returns the image and
    the letter the path ends at."""
    letter = sys.alphabet._from_int
    prev = start
    for i in path:
        cur = letter[i]
        x = sys.H(cur, prev) @ x
        prev = cur
    return x, prev


def _assembled(
    source: MatrixSystem,
    alphabet: Alphabet,
    members: Mapping[str, Sequence[tuple[Hashable, str]]],
    step: Callable[[str, str, Hashable], tuple[Hashable, Sequence[int]]],
    what: str,
    tol: float,
) -> MatrixSystem:
    """A system over ``alphabet`` built from blocks of ``source``.

    ``members[t]`` lists ``(key, source letter)`` pairs; the space at ``t``
    is the direct sum of their source spaces, in list order, and the form
    is the block diagonal of their source forms.  For each admissible pair
    ``(b, a)`` and each member ``r`` of ``b``, ``step(a, b, r)`` names the
    member ``k`` of ``a`` feeding ``r`` and a path of signed source letters;
    the block from ``k`` to ``r`` carries ``k``'s space along the path,
    which must end at ``r``'s source letter (an empty path is the
    identity).  ``what`` names the construction in error messages; the
    output must stay compatible when ``source`` is, within ``tol``.
    """
    slots: dict[str, dict[Hashable, tuple[int, str]]] = {}
    dims, pos = {}, 0
    for t in alphabet.letters:
        slots[t] = {}
        for key, c in members[t]:
            slots[t][key] = (pos, c)
            pos += source.dims[c]
        dims[t] = sum(source.dims[c] for _, c in members[t])
    B = _blockdiag([source.B(c) for t in alphabet.letters for _, c in members[t]])
    H = np.zeros((pos, pos), dtype=complex)
    for a in alphabet.letters:
        for b in alphabet.letters:
            if b == alphabet.inverse(a):
                continue
            for r, (o_r, c_r) in slots[b].items():
                k, path = step(a, b, r)
                if k not in slots[a]:
                    raise InternalCheckError(
                        f"{what} block ({b}, {a}) at {r} names {k}, "
                        f"which is not a member of {a!r}"
                    )
                o_k, c_k = slots[a][k]
                d_k = source.dims[c_k]
                block, end = _carry(source, c_k, path, np.eye(d_k, dtype=complex))
                if end != c_r:
                    raise InternalCheckError(
                        f"{what} path for ({b}, {a}) at {r} ends at {end!r}, "
                        f"not {c_r!r}"
                    )
                H[o_r : o_r + source.dims[c_r], o_k : o_k + d_k] = block
    # the forms are copies of the source's own, already checked
    out = MatrixSystem._unchecked(alphabet, dims, H, B)
    _check_compatibility_kept(source, out, tol, what)
    return out


class Subsystem:
    """A per-letter family of subspaces, stored as orthonormal column bases.

    ``basis[a]`` has shape ``(dims[a], k_a)``; ``k_a = 0`` gives an empty
    matrix.  Invariance under the system's transfer matrices is a property
    measured by :func:`invariance_defect`, not enforced here.
    """

    __slots__ = ("alphabet", "basis")

    def __init__(self, alphabet: Alphabet, basis: Mapping[str, np.ndarray]):
        self.alphabet = alphabet
        bb = {}
        for a in alphabet.letters:
            if a not in basis:
                raise InputError(f"subsystem misses letter {a!r}")
            m = np.asarray(basis[a], dtype=complex)
            if m.ndim != 2:
                raise InputError(f"subsystem basis for {a!r} must be a matrix")
            bb[a] = m
        self.basis = bb

    @classmethod
    def from_spanning(
        cls, alphabet: Alphabet, spans: Mapping[str, np.ndarray]
    ) -> "Subsystem":
        """Orthonormalize arbitrary spanning columns letterwise."""
        return cls(
            alphabet, {a: orthonormal_columns(spans[a]) for a in alphabet.letters}
        )

    def dims(self) -> dict[str, int]:
        return {a: self.basis[a].shape[1] for a in self.alphabet.letters}

    @property
    def total_dim(self) -> int:
        return sum(m.shape[1] for m in self.basis.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def is_full(self, sys: MatrixSystem) -> bool:
        return all(
            self.basis[a].shape[1] == sys.dims[a] for a in self.alphabet.letters
        )

    def __repr__(self) -> str:
        d = ", ".join(f"{a}:{m.shape[1]}" for a, m in self.basis.items())
        return f"Subsystem({d})"


def orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at ``RANK_RTOL`` of
    the largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise InputError("expected a matrix")
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    return u[:, :r]


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the kernel, rank cut at ``RANK_RTOL`` of the
    largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m)
    if s[0] == 0.0:
        return np.eye(m.shape[1], dtype=complex)
    r = int(np.sum(s > RANK_RTOL * s[0]))
    return vh[r:].conj().T


def orthogonal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of ``span(basis)`` in C^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    return null_space(basis.conj().T)


def invariance_defect(sys: MatrixSystem, sub: Subsystem) -> float:
    """Worst ``|| (1 - P_b) H(b,a) W_a ||_2 / max(1, ||H(b,a)||_2)`` over
    the stored pairs, for the subspace bases ``W`` and the orthogonal
    projections ``P`` onto them."""
    return _worst_invariance(sys, sub, _invariance_residual(sys, sub))


def _invariance_residual(sys: MatrixSystem, sub: Subsystem) -> np.ndarray:
    """The blocks ``(1 - P_b) H(b,a) W_a``, at the rows of ``b`` and the
    columns of ``sub`` at ``a``; zero at the pairs that are not stored."""
    w = _blockdiag([sub.basis[a] for a in sys.alphabet.letters])
    img = sys._H @ w
    return img - w @ (w.conj().T @ img)


def _worst_invariance(sys: MatrixSystem, sub: Subsystem, resid: np.ndarray) -> float:
    rows, cols = sys._slices, _layout(sys.alphabet, sub.dims())
    worst = 0.0
    for (b, a), norm in sys._block_norms().items():
        r = resid[rows[b], cols[a]]
        if r.size:
            worst = max(worst, float(np.linalg.norm(r, 2)) / max(1.0, norm))
    return worst


def _invariance_excess(sys: MatrixSystem, sub: Subsystem, tol: float) -> float | None:
    """:func:`invariance_defect` when it exceeds ``tol``, else None; the
    block SVDs run only when the residual's Frobenius norm exceeds
    ``tol / 2``."""
    resid = _invariance_residual(sys, sub)
    return _excess(resid, tol, lambda: _worst_invariance(sys, sub, resid))


def _compressed(
    sys: MatrixSystem,
    basis: Mapping[str, np.ndarray],
    forms: np.ndarray | None = None,
) -> MatrixSystem:
    """The system ``Q* H Q`` with forms ``Q* B Q`` for the block-diagonal
    ``Q`` of letterwise column bases; the block-diagonal ``forms`` replaces
    the system's own forms before the compression."""
    letters = sys.alphabet.letters
    q = _blockdiag([basis[a] for a in letters])
    f = sys._B if forms is None else forms
    qh = q.conj().T
    dims = {a: basis[a].shape[1] for a in letters}
    return MatrixSystem._from_blocks(sys.alphabet, dims, qh @ sys._H @ q, qh @ f @ q)


def _require_invariant(sys: MatrixSystem, sub: Subsystem, tol: float) -> None:
    defect = _invariance_excess(sys, sub, tol)
    if defect is not None:
        raise ValidationError(
            f"subsystem is not invariant within tolerance: defect {defect:.3e}"
        )


def restrict_to_subsystem(
    sys: MatrixSystem, sub: Subsystem, tol: float = INVARIANT_TOL
) -> tuple[MatrixSystem, "SystemMap"]:
    """Compress the system onto an invariant subsystem.

    Returns the restricted system in the orthonormal coordinates of the
    subspaces together with the embedding map back into the ambient system.
    """
    _require_invariant(sys, sub, tol)
    return _compressed(sys, sub.basis), SystemMap(sys.alphabet, sub.basis)


def quotient_system(
    sys: MatrixSystem, sub: Subsystem, tol: float = INVARIANT_TOL
) -> tuple[MatrixSystem, "SystemMap"]:
    """Quotient by an invariant subsystem, realized on the orthogonal
    complements.

    The quotient transfer matrices are the compressions to the
    complements; the carried forms are the compressed forms, which equal
    the true quotient forms exactly when the subsystem is null for ``B``.
    Returns the quotient and the projection map from the ambient system.
    """
    _require_invariant(sys, sub, tol)
    q = {
        a: orthogonal_complement(sub.basis[a], sys.dims[a])
        for a in sys.alphabet.letters
    }
    proj = SystemMap(sys.alphabet, {a: q[a].conj().T for a in q})
    return _compressed(sys, q), proj


def direct_sum(s1: MatrixSystem, s2: MatrixSystem) -> MatrixSystem:
    """Blockwise direct sum of two systems over the same alphabet."""
    if s1.alphabet != s2.alphabet:
        raise InputError("direct sum needs a common alphabet")
    al = s1.alphabet
    dims = {a: s1.dims[a] + s2.dims[a] for a in al.letters}
    # Embeddings of the summands: V_a is (V1_a, V2_a).
    e1 = _blockdiag([np.eye(dims[a], s1.dims[a]) for a in al.letters])
    e2 = _blockdiag([np.eye(dims[a], s2.dims[a], -s1.dims[a]) for a in al.letters])
    H = e1 @ s1._H @ e1.T + e2 @ s2._H @ e2.T
    B = e1 @ s1._B @ e1.T + e2 @ s2._B @ e2.T
    return MatrixSystem._from_blocks(al, dims, H, B)


class SystemMap:
    """A letterwise linear map between systems over the same alphabet."""

    __slots__ = ("alphabet", "blocks")

    def __init__(self, alphabet: Alphabet, blocks: Mapping[str, np.ndarray]):
        self.alphabet = alphabet
        bb = {}
        for a in alphabet.letters:
            if a not in blocks:
                raise InputError(f"map misses letter {a!r}")
            m = np.asarray(blocks[a], dtype=complex)
            if m.ndim != 2:
                raise InputError(f"map block for {a!r} must be a matrix")
            bb[a] = m
        self.blocks = bb

    def __getitem__(self, a: str) -> np.ndarray:
        return self.blocks[a]

    def compose(self, inner: "SystemMap") -> "SystemMap":
        """``self`` after ``inner``."""
        return SystemMap(
            self.alphabet,
            {a: self.blocks[a] @ inner.blocks[a] for a in self.alphabet.letters},
        )

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        for a, m in self.blocks.items():
            if m.shape[0] != m.shape[1]:
                return False
            if m.size and np.linalg.norm(
                m.conj().T @ m - np.eye(m.shape[1]), 2
            ) > tol:
                return False
        return True


def map_residual(
    source: MatrixSystem, target: MatrixSystem, J: SystemMap
) -> float:
    """Worst intertwining gap ``|| H_target(b,a) J_a - J_b H_source(b,a) ||_2``.

    Zero exactly when ``J`` carries every transfer step of the source to
    the corresponding step of the target.
    """
    if source.alphabet != target.alphabet:
        raise InputError("systems live over different alphabets")
    for a in source.alphabet.letters:
        m = J[a]
        if m.shape != (target.dims[a], source.dims[a]):
            raise InputError(
                f"map block for {a!r} has shape {m.shape}, expected "
                f"{(target.dims[a], source.dims[a])}"
            )
    return _worst_gap(source, target, _intertwining_gap(source, target, J))


def _intertwining_gap(
    source: MatrixSystem, target: MatrixSystem, J: SystemMap
) -> np.ndarray:
    """The blocks ``H_target(b,a) J_a - J_b H_source(b,a)``, at the rows of
    ``b`` in ``target`` and the columns of ``a`` in ``source``; zero at the
    inverse pairs."""
    j = _blockdiag([J[a] for a in source.alphabet.letters])
    return target._H @ j - j @ source._H


def _worst_gap(source: MatrixSystem, target: MatrixSystem, gap: np.ndarray) -> float:
    rows, cols = target._slices, source._slices
    return max(
        (
            float(np.linalg.norm(gap[rows[b], cols[a]], 2))
            for b, a in source.pairs()
            if target.dims[b] and source.dims[a]
        ),
        default=0.0,
    )


def _intertwining_excess(
    source: MatrixSystem,
    target: MatrixSystem,
    J: SystemMap,
    tol: float,
    scale: Callable[[], float],
) -> float | None:
    """:func:`map_residual` when it exceeds ``tol * max(1, scale())``, else
    None; the block SVDs and ``scale`` run only when the Frobenius norm of
    the whole gap exceeds ``tol / 2``."""
    gap = _intertwining_gap(source, target, J)
    return _excess(gap, tol, lambda: _worst_gap(source, target, gap), scale)


def conjugate(
    sys: MatrixSystem, J: SystemMap, tol: float = UNITARY_TOL
) -> MatrixSystem:
    """Transport a system along letterwise unitaries.

    ``H'(b,a) = J_b H(b,a) J_a*`` and ``B'_a = J_a B_a J_a*``; the result
    is equivalent to the input with intertwiner ``J``.
    """
    if not J.is_unitary(tol):
        raise ValidationError("conjugation needs letterwise unitary blocks")
    for a in sys.alphabet.letters:
        if J[a].shape != (sys.dims[a], sys.dims[a]):
            raise InputError(f"unitary block for {a!r} has the wrong shape")
    out = _compressed(sys, {a: J[a].conj().T for a in sys.alphabet.letters})
    resid = map_residual(sys, out, J)
    if resid > max(tol, CONJUGATE_RESIDUAL_FLOOR) * CONJUGATE_RESIDUAL_SLACK:
        raise InternalCheckError(f"conjugation intertwining residual {resid:.3e}")
    return out
