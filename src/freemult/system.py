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
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import InputError, InternalCheckError, ValidationError
from .words import Alphabet

# Relative cutoff below which singular values count as zero.
RANK_RTOL = 1e-8


def _as_matrix(value, rows: int, cols: int, what: str) -> np.ndarray:
    m = np.asarray(value, dtype=complex)
    if m.shape != (rows, cols):
        raise InputError(f"{what}: expected shape {(rows, cols)}, got {m.shape}")
    return m


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def is_psd(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Positive semidefiniteness up to a relative eigenvalue tolerance."""
    if m.size == 0:
        return True
    if np.linalg.norm(m - m.conj().T, 2) > tol * max(1.0, np.linalg.norm(m, 2)):
        return False
    w = np.linalg.eigvalsh(_hermitian_part(m))
    scale = max(1.0, float(w[-1]))
    return bool(w[0] >= -tol * scale)


class MatrixSystem:
    """Immutable container for ``(dims, H, B)`` over a symmetric alphabet.

    ``H`` maps ``(target, source)`` letter pairs to matrices; omitted pairs
    are zero.  Zero-dimensional letters are allowed and their matrices are
    empty.
    """

    __slots__ = ("alphabet", "dims", "_H", "_B")

    def __init__(
        self,
        alphabet: Alphabet,
        dims: Mapping[str, int],
        H: Mapping[tuple[str, str], np.ndarray],
        B: Mapping[str, np.ndarray],
    ):
        self.alphabet = alphabet
        if set(dims) != set(alphabet.letters):
            raise InputError("dims must assign every letter a dimension")
        for a, d in dims.items():
            if not isinstance(d, int) or d < 0:
                raise InputError(f"dims[{a!r}] must be a nonnegative integer")
        self.dims = dict(dims)

        h: dict[tuple[str, str], np.ndarray] = {}
        for (b, a), m in H.items():
            if a not in alphabet or b not in alphabet:
                raise InputError(f"H[{b!r}, {a!r}]: unknown letter")
            if b == alphabet.inverse(a):
                mm = _as_matrix(m, dims[b], dims[a], f"H[{b!r}, {a!r}]")
                if np.any(mm != 0):
                    raise ValidationError(
                        f"H[{b!r}, {a!r}] must vanish: the pair composes to the identity"
                    )
                continue
            mm = _as_matrix(m, dims[b], dims[a], f"H[{b!r}, {a!r}]")
            if np.any(mm != 0):
                h[(b, a)] = mm
        self._H = h

        bb: dict[str, np.ndarray] = {}
        for a in alphabet.letters:
            if a not in B:
                raise InputError(f"B[{a!r}] missing")
            m = _as_matrix(B[a], dims[a], dims[a], f"B[{a!r}]")
            if m.size and np.linalg.norm(m - m.conj().T, 2) > 1e-12 * max(
                1.0, np.linalg.norm(m, 2)
            ):
                raise ValidationError(f"B[{a!r}] is not Hermitian")
            m = _hermitian_part(m)
            if not is_psd(m):
                raise ValidationError(f"B[{a!r}] is not positive semidefinite")
            bb[a] = m
        self._B = bb

    @classmethod
    def _unchecked(
        cls,
        alphabet: Alphabet,
        dims: Mapping[str, int],
        H: Mapping[tuple[str, str], np.ndarray],
        B: Mapping[str, np.ndarray],
    ) -> "MatrixSystem":
        """A system derived from a validated one, built without the checks.

        The caller guarantees what ``__init__`` checks: ``H`` holds only
        nonzero complex matrices of the right shapes at admissible pairs,
        and every ``B[a]`` is a Hermitian positive semidefinite complex
        matrix.
        """
        out = cls.__new__(cls)
        out.alphabet, out.dims, out._H, out._B = alphabet, dict(dims), dict(H), dict(B)
        return out

    def H(self, b: str, a: str) -> np.ndarray:
        """Transfer matrix ``V_a -> V_b`` (zero matrix when absent)."""
        m = self._H.get((b, a))
        if m is None:
            return np.zeros((self.dims[b], self.dims[a]), dtype=complex)
        return m

    def B(self, a: str) -> np.ndarray:
        return self._B[a]

    def pairs(self) -> Iterable[tuple[str, str]]:
        """All admissible ordered pairs ``(target, source)``."""
        inv = self.alphabet.inverse
        for a in self.alphabet.letters:
            for b in self.alphabet.letters:
                if b != inv(a):
                    yield (b, a)

    def stored_pairs(self) -> Iterable[tuple[str, str]]:
        return self._H.keys()

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def scale_H(self, factor: complex) -> "MatrixSystem":
        return MatrixSystem(
            self.alphabet,
            self.dims,
            {k: factor * m for k, m in self._H.items()},
            self._B,
        )

    def with_forms(self, B: Mapping[str, np.ndarray]) -> "MatrixSystem":
        return MatrixSystem(self.alphabet, self.dims, self._H, B)

    def close_to(self, other: "MatrixSystem", tol: float = 1e-9) -> bool:
        if self.alphabet != other.alphabet or self.dims != other.dims:
            return False
        for b, a in self.pairs():
            if np.linalg.norm(self.H(b, a) - other.H(b, a)) > tol:
                return False
        return all(
            np.linalg.norm(self.B(a) - other.B(a)) <= tol
            for a in self.alphabet.letters
        )

    def __repr__(self) -> str:
        d = ", ".join(f"{a}:{self.dims[a]}" for a in self.alphabet.letters)
        return f"MatrixSystem({d})"


def apply_transfer(
    sys: MatrixSystem, forms: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One transfer step ``(X_a)_a -> (sum_b H(b,a)* X_b H(b,a))_a``: pull
    each form back along the outgoing matrices."""
    out = {
        a: np.zeros((sys.dims[a], sys.dims[a]), dtype=complex)
        for a in sys.alphabet.letters
    }
    for (b, a), m in sys._H.items():
        out[a] += m.conj().T @ np.asarray(forms[b], dtype=complex) @ m
    return out


def compatibility_defect(sys: MatrixSystem) -> float:
    """Worst-case spectral-norm gap in the compatibility identity.

    ``max_a || B_a - sum_b H(b,a)* B_b H(b,a) ||_2``; zero exactly when the
    forms reproduce themselves under one transfer step.
    """
    img = apply_transfer(sys, sys._B)
    return max(
        (
            float(np.linalg.norm(sys.B(a) - img[a], 2))
            for a in sys.alphabet.letters
            if sys.dims[a]
        ),
        default=0.0,
    )


class Subsystem:
    """A per-letter family of subspaces, stored as orthonormal column bases.

    ``basis[a]`` has shape ``(dims[a], k_a)``; ``k_a = 0`` gives an empty
    matrix.  Invariance under the system's transfer matrices is a property
    checked by :func:`is_invariant_subsystem`, not enforced here.
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


def orthonormal_columns(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span, rank cut at a relative
    singular-value threshold."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise InputError("expected a matrix")
    if m.shape[1] == 0 or m.shape[0] == 0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[0], 0), dtype=complex)
    r = int(np.sum(s > rtol * s[0]))
    return u[:, :r]


def null_space(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the kernel, rank cut at a relative threshold."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] == 0 or m.shape[1] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m)
    if s[0] == 0.0:
        return np.eye(m.shape[1], dtype=complex)
    r = int(np.sum(s > rtol * s[0]))
    return vh[r:].conj().T


def orthogonal_complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of ``span(basis)`` in C^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    return null_space(basis.conj().T)


def is_invariant_subsystem(
    sys: MatrixSystem, sub: Subsystem, tol: float = 1e-9
) -> bool:
    """Whether each ``H(b, a)`` maps the subspace at ``a`` into the one at
    ``b``, up to ``tol`` relative to the matrix norms."""
    return invariance_defect(sys, sub) <= tol


def invariance_defect(sys: MatrixSystem, sub: Subsystem) -> float:
    worst = 0.0
    for (b, a), m in sys._H.items():
        w = sub.basis[a]
        if w.shape[1] == 0 or m.shape[0] == 0:
            continue
        img = m @ w
        q = sub.basis[b]
        resid = img - q @ (q.conj().T @ img)
        scale = max(1.0, float(np.linalg.norm(m, 2)))
        worst = max(worst, float(np.linalg.norm(resid, 2)) / scale)
    return worst


def restrict_to_subsystem(
    sys: MatrixSystem, sub: Subsystem, tol: float = 1e-8
) -> tuple[MatrixSystem, "SystemMap"]:
    """Compress the system onto an invariant subsystem.

    Returns the restricted system in the orthonormal coordinates of the
    subspaces together with the embedding map back into the ambient system.
    """
    if invariance_defect(sys, sub) > tol:
        raise ValidationError("subsystem is not invariant within tolerance")
    dims = sub.dims()
    H = {}
    for (b, a), m in sys._H.items():
        H[(b, a)] = sub.basis[b].conj().T @ m @ sub.basis[a]
    B = {a: sub.basis[a].conj().T @ sys.B(a) @ sub.basis[a] for a in dims}
    restricted = MatrixSystem(sys.alphabet, dims, H, B)
    emb = SystemMap(sys.alphabet, {a: sub.basis[a] for a in dims})
    return restricted, emb


def quotient_system(
    sys: MatrixSystem, sub: Subsystem, tol: float = 1e-8
) -> tuple[MatrixSystem, "SystemMap"]:
    """Quotient by an invariant subsystem, realized on the orthogonal
    complements.

    The quotient transfer matrices are the compressions to the
    complements; the carried forms are the compressed forms, which equal
    the true quotient forms exactly when the subsystem is null for ``B``.
    Returns the quotient and the projection map from the ambient system.
    """
    if invariance_defect(sys, sub) > tol:
        raise ValidationError("subsystem is not invariant within tolerance")
    q = {
        a: orthogonal_complement(sub.basis[a], sys.dims[a])
        for a in sys.alphabet.letters
    }
    dims = {a: q[a].shape[1] for a in q}
    H = {}
    for (b, a), m in sys._H.items():
        H[(b, a)] = q[b].conj().T @ m @ q[a]
    B = {a: q[a].conj().T @ sys.B(a) @ q[a] for a in dims}
    quot = MatrixSystem(sys.alphabet, dims, H, B)
    proj = SystemMap(sys.alphabet, {a: q[a].conj().T for a in q})
    return quot, proj


def direct_sum(s1: MatrixSystem, s2: MatrixSystem) -> MatrixSystem:
    """Blockwise direct sum of two systems over the same alphabet."""
    if s1.alphabet != s2.alphabet:
        raise InputError("direct sum needs a common alphabet")
    al = s1.alphabet
    dims = {a: s1.dims[a] + s2.dims[a] for a in al.letters}
    H = {}
    for b, a in s1.pairs():
        m1, m2 = s1.H(b, a), s2.H(b, a)
        if np.any(m1) or np.any(m2):
            m = np.zeros((dims[b], dims[a]), dtype=complex)
            m[: s1.dims[b], : s1.dims[a]] = m1
            m[s1.dims[b] :, s1.dims[a] :] = m2
            H[(b, a)] = m
    B = {}
    for a in al.letters:
        m = np.zeros((dims[a], dims[a]), dtype=complex)
        m[: s1.dims[a], : s1.dims[a]] = s1.B(a)
        m[s1.dims[a] :, s1.dims[a] :] = s2.B(a)
        B[a] = m
    return MatrixSystem(al, dims, H, B)


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

    def is_unitary(self, tol: float = 1e-9) -> bool:
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
    worst = 0.0
    for b, a in source.pairs():
        lhs = target.H(b, a) @ J[a]
        rhs = J[b] @ source.H(b, a)
        if lhs.size:
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


def conjugate(sys: MatrixSystem, J: SystemMap, tol: float = 1e-9) -> MatrixSystem:
    """Transport a system along letterwise unitaries.

    ``H'(b,a) = J_b H(b,a) J_a*`` and ``B'_a = J_a B_a J_a*``; the result
    is equivalent to the input with intertwiner ``J``.
    """
    if not J.is_unitary(tol):
        raise ValidationError("conjugation needs letterwise unitary blocks")
    for a in sys.alphabet.letters:
        if J[a].shape != (sys.dims[a], sys.dims[a]):
            raise InputError(f"unitary block for {a!r} has the wrong shape")
    H = {
        (b, a): J[b] @ m @ J[a].conj().T for (b, a), m in sys._H.items()
    }
    B = {a: J[a] @ sys.B(a) @ J[a].conj().T for a in sys.alphabet.letters}
    out = MatrixSystem(sys.alphabet, dict(sys.dims), H, B)
    resid = map_residual(sys, out, J)
    if resid > max(tol, 1e-9) * 10:
        raise InternalCheckError(f"conjugation intertwining residual {resid:.3e}")
    return out
