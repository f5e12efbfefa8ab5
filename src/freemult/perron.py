"""Transfer operator on Hermitian form tuples and its leading eigenpair.

The transfer operator sends a tuple of Hermitian matrices ``(X_a)_a`` to
``(sum_b H(b,a)* X_b H(b,a))_a`` (:func:`apply_transfer`).  It preserves the
cone of positive semidefinite tuples, so its spectral radius is attained on
that cone; the leading eigenpair drives the normalization of a system to a
compatible one.

:func:`pf_eigenpair` first runs a power iteration inside the cone, from the
identity tuple and through :func:`apply_transfer` alone.  For a positive
definite iterate ``X`` the Collatz–Wielandt bracket
``alpha = min_a lambda_min(X_a^{-1/2} T(X)_a X_a^{-1/2})`` and
``beta = max_a lambda_max(...)`` satisfies ``alpha <= rho <= beta``, so once
it closes to a relative width of ``_BRACKET_RTOL`` the spectral radius is
certified, and ``X`` is an eigentuple up to a residual of half the width,
relative to ``|X|``.  When the bracket cannot close — the eigentuple lies
on the boundary of the cone (an iterate turns singular), the operator is
nilpotent, the peripheral spectrum holds more than ``rho``, or
``_CONE_ITERATIONS`` pass first — the dense eigensolver on
:func:`transfer_matrix` decides.

Vectorization uses the real basis of Hermitian matrices (diagonal units,
symmetric and antisymmetric off-diagonal units), making the operator a
real matrix on ``sum_a dims[a]^2`` coordinates.  The dense matrix is built
blockwise, one ``kron(H*, H^T)`` per stored pair mapped to these
coordinates by fixed index arrays.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .errors import InputError, NumericError, ValidationError
from .system import MatrixSystem, apply_transfer, compatibility_defect, is_psd

FormTuple = dict[str, np.ndarray]

# Relative width of the Collatz–Wielandt bracket that certifies rho.
_BRACKET_RTOL = 1e-12
# Cone iterations allowed before the dense eigensolver takes over.
_CONE_ITERATIONS = 1000
# An iterate form whose smallest eigenvalue is at most this share of its
# largest counts as singular: the eigentuple is on the boundary of the cone
# and the bracket cannot close.
_DEFINITE_RTOL = 1e-12
# Eigenvalue tolerance of the positivity check on a candidate eigentuple.
_PSD_TOL = 1e-7
# Floor of the relative eigen-residual accepted for a candidate eigentuple.
_RESIDUAL_FLOOR = 1e-10
# Floor of the eigen-residual accepted from the averaged power iteration.
_AVERAGED_RESIDUAL_FLOOR = 1e-9
# Real eigenvalues this close below rho (relative) count as leading.
_LEADING_GAP = 1e-12
# Eigenvectors with a smaller total trace cannot be scaled into the cone.
_TRACE_FLOOR = 1e-12
# An iterate this small relative to its predecessor has vanished.
_VANISH_RTOL = 1e-14
# Guards the residual against a zero scale.
_TINY = 1e-300
# Normalization may leave a compatibility defect of 100 * max(tol, this).
_DEFECT_FLOOR = 1e-9


def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat positions of the diagonal, the upper and the lower
    triangle of a ``d x d`` matrix; ``upper[k]`` and ``lower[k]`` mirror."""
    i, j = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), i * d + j, j * d + i


class _HermitianLayout:
    """Real coordinates on tuples of Hermitian matrices.

    Letter ``a`` owns ``dims[a]**2`` coordinates from ``offsets[a]``: the
    diagonal first, then the real and imaginary part of each upper entry,
    interleaved.
    """

    def __init__(self, sys: MatrixSystem):
        self.letters = sys.alphabet.letters
        self.dims = {a: sys.dims[a] for a in self.letters}
        self.offsets = {}
        self.index = {}
        n = 0
        for a in self.letters:
            self.offsets[a] = n
            self.index[a] = _hermitian_index(self.dims[a])
            n += self.dims[a] ** 2
        self.size = n

    def to_vector(self, forms: Mapping[str, np.ndarray]) -> np.ndarray:
        v = np.zeros(self.size)
        for a in self.letters:
            d, o = self.dims[a], self.offsets[a]
            diag, up, _ = self.index[a]
            x = np.asarray(forms[a]).reshape(-1)
            v[o : o + d] = x[diag].real
            v[o + d : o + d * d : 2] = x[up].real
            v[o + d + 1 : o + d * d : 2] = x[up].imag
        return v

    def from_vector(self, v: np.ndarray) -> FormTuple:
        out: FormTuple = {}
        for a in self.letters:
            d, o = self.dims[a], self.offsets[a]
            diag, up, lo = self.index[a]
            x = np.zeros(d * d, dtype=complex)
            re = v[o + d : o + d * d : 2]
            im = v[o + d + 1 : o + d * d : 2]
            x[diag] = v[o : o + d]
            x[up] = re + 1j * im
            x[lo] = re - 1j * im
            out[a] = x.reshape(d, d)
        return out


def transfer_matrix(sys: MatrixSystem) -> tuple[np.ndarray, _HermitianLayout]:
    """The transfer operator as a dense real matrix in Hermitian coordinates."""
    layout = _HermitianLayout(sys)
    m = np.zeros((layout.size, layout.size))
    for b, a in sys.stored_pairs():
        h = sys.H(b, a)
        # vec(H* X H) = kron(H*, H^T) vec(X) on row-major vectorizations.
        k = np.kron(h.conj().T, h.T)
        db, da = sys.dims[b], sys.dims[a]
        # Columns: the images of the Hermitian basis elements of V_b.
        diag, up, lo = layout.index[b]
        cols = np.empty((da * da, db * db), dtype=complex)
        cols[:, :db] = k[:, diag]
        cols[:, db::2] = k[:, up] + k[:, lo]
        cols[:, db + 1 :: 2] = 1j * (k[:, up] - k[:, lo])
        # Rows: the Hermitian coordinates of V_a, read off those images.
        diag, up, _ = layout.index[a]
        oa, ob = layout.offsets[a], layout.offsets[b]
        block = m[oa : oa + da * da, ob : ob + db * db]
        block[:da] += cols[diag].real
        block[da::2] += cols[up].real
        block[da + 1 :: 2] += cols[up].imag
    return m, layout


def _identity_tuple(sys: MatrixSystem) -> FormTuple:
    return {a: np.eye(sys.dims[a], dtype=complex) for a in sys.alphabet.letters}


def _trace_sum(forms: FormTuple) -> float:
    return float(sum(np.trace(x).real for x in forms.values()))


def _normalize_trace(forms: FormTuple) -> FormTuple:
    t = _trace_sum(forms)
    if t <= 0:
        raise NumericError("form tuple has nonpositive total trace")
    return {a: x / t for a, x in forms.items()}


def _symmetrize(forms: FormTuple) -> FormTuple:
    return {a: (x + x.conj().T) / 2 for a, x in forms.items()}


def _snorm(x: np.ndarray) -> float:
    return 0.0 if x.size == 0 else float(np.linalg.norm(x, 2))


def _residual(sys: MatrixSystem, rho: float, forms: FormTuple) -> float:
    img = apply_transfer(sys, forms)
    num = max(
        _snorm(img[a] - rho * forms[a]) for a in sys.alphabet.letters
    )
    scale = max(_snorm(forms[a]) for a in forms)
    return num / max(scale, _TINY)


def _psd_tuple(forms: FormTuple, tol: float = 1e-9) -> bool:
    scale = max(_snorm(x) for x in forms.values())
    if scale == 0.0:
        return False
    return all(is_psd(x / scale, tol) for x in forms.values())


def _cone_eigenpair(
    sys: MatrixSystem, tol: float
) -> tuple[float, FormTuple] | None:
    """Power iteration in the positive semidefinite cone, stopped by the
    Collatz–Wielandt bracket; ``None`` when it cannot certify a pair."""
    letters = [a for a in sys.alphabet.letters if sys.dims[a] > 0]
    x = _identity_tuple(sys)
    for _ in range(_CONE_ITERATIONS):
        y = apply_transfer(sys, x)
        lo, hi = np.inf, 0.0
        for a in letters:
            w, v = np.linalg.eigh(x[a])
            if w[0] <= _DEFINITE_RTOL * w[-1]:
                return None
            # s* y s is unitarily similar to x^{-1/2} y x^{-1/2}.
            s = v / np.sqrt(w)
            e = np.linalg.eigvalsh(s.conj().T @ y[a] @ s)
            lo, hi = min(lo, e[0]), max(hi, e[-1])
        if hi - lo <= _BRACKET_RTOL * hi:
            rho = (lo + hi) / 2
            if rho <= tol:
                # The dense path reports such radii as zero.
                return None
            forms = _normalize_trace(_symmetrize(x))
            if _psd_tuple(forms, _PSD_TOL) and _residual(
                sys, rho, forms
            ) <= max(tol, _RESIDUAL_FLOOR) * max(1.0, rho):
                return float(rho), forms
            return None
        t = _trace_sum(y)
        if not t > 0:
            return None
        x = {a: m / t for a, m in y.items()}
    return None


def _nilpotent_eigentuple(
    sys: MatrixSystem, mat: np.ndarray, layout: _HermitianLayout
) -> FormTuple:
    # With spectral radius zero the operator is nilpotent; the last nonzero
    # iterate of the identity tuple is positive semidefinite and killed by
    # the next step, hence an eigenvector for eigenvalue zero.
    v = layout.to_vector(_identity_tuple(sys))
    prev = v
    for _ in range(layout.size + 1):
        nxt = mat @ prev
        if np.linalg.norm(nxt) <= _VANISH_RTOL * max(1.0, np.linalg.norm(prev)):
            return _symmetrize(layout.from_vector(prev))
        prev = nxt
    raise NumericError("transfer operator looked nilpotent but never vanished")


def _dense_eigenpair(sys: MatrixSystem, tol: float) -> tuple[float, FormTuple]:
    mat, layout = transfer_matrix(sys)
    evals, evecs = np.linalg.eig(mat)
    rho = float(np.max(np.abs(evals))) if evals.size else 0.0

    if rho <= tol:
        forms = _normalize_trace(_nilpotent_eigentuple(sys, mat, layout))
        return 0.0, forms

    # Real eigenvalues near the spectral radius, best first.
    order = np.argsort(-evals.real)
    for k in order:
        lam = evals[k]
        if abs(lam.imag) > tol * max(1.0, rho):
            continue
        if lam.real < rho - max(tol, _LEADING_GAP) * max(1.0, rho):
            break
        vec = evecs[:, k]
        real_part = vec.real if np.linalg.norm(vec.real) >= np.linalg.norm(
            vec.imag
        ) else vec.imag
        forms = _symmetrize(layout.from_vector(real_part))
        t = _trace_sum(forms)
        if abs(t) < _TRACE_FLOOR:
            continue
        forms = {a: x / t for a, x in forms.items()}
        if not _psd_tuple(forms, _PSD_TOL):
            continue
        forms = _normalize_trace(forms)
        if _residual(sys, lam.real, forms) <= max(tol, _RESIDUAL_FLOOR) * max(
            1.0, rho
        ):
            return float(lam.real), forms

    # Defective or numerically clustered peripheral spectrum: averaged power
    # iteration from the identity tuple stays in the cone and converges to a
    # leading eigenvector.
    v = layout.to_vector(_identity_tuple(sys))
    v /= np.linalg.norm(v)
    acc = np.zeros_like(v)
    lam_est = rho
    for it in range(1, 20001):
        w = mat @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        lam_est = nw
        v = w / nw
        acc += v
        if it % 50 == 0:
            cand = acc / np.linalg.norm(acc)
            forms = _symmetrize(layout.from_vector(cand))
            try:
                forms = _normalize_trace(forms)
            except NumericError:
                continue
            if _psd_tuple(forms, _PSD_TOL) and _residual(sys, rho, forms) <= max(
                tol, _AVERAGED_RESIDUAL_FLOOR
            ):
                return rho, _normalize_trace(forms)
    raise NumericError(
        f"no certified leading eigenpair (spectral radius {rho:.6e}, "
        f"last estimate {lam_est:.6e})"
    )


def pf_eigenpair(sys: MatrixSystem, tol: float = 1e-9) -> tuple[float, FormTuple]:
    """Spectral radius of the transfer operator and a positive semidefinite
    eigentuple, normalized to total trace one.

    The certified cone iteration answers when it can; the dense eigensolver
    covers the rest.  Raises :class:`NumericError` when neither finds a
    certified pair.
    """
    if sys.total_dim == 0:
        raise InputError("the zero system has no leading eigenpair")
    pair = _cone_eigenpair(sys, tol)
    if pair is not None:
        return pair
    return _dense_eigenpair(sys, tol)


def normalize_to_compatible(
    sys: MatrixSystem, tol: float = 1e-9
) -> tuple[MatrixSystem, float]:
    """Rescale the transfer matrices and replace the forms so the system
    becomes compatible.

    Divides every ``H`` by the square root of the spectral radius and
    installs the leading eigentuple as the forms.  Returns the normalized
    system and the spectral radius of the input.  Fails when the spectral
    radius vanishes.
    """
    rho, forms = pf_eigenpair(sys, tol)
    if rho <= tol:
        raise ValidationError(
            "system is degenerate: the transfer operator has spectral radius zero"
        )
    out = sys.scale_H(1.0 / np.sqrt(rho)).with_forms(forms)
    defect = compatibility_defect(out)
    if defect > max(tol, _DEFECT_FLOOR) * 100:
        raise NumericError(f"normalization left compatibility defect {defect:.3e}")
    return out, rho
