"""Transfer operator on Hermitian form tuples and its leading eigenpair.

The transfer operator sends a tuple of Hermitian matrices ``(X_a)_a`` to
``(sum_b H(b,a)* X_b H(b,a))_a`` (:func:`apply_transfer`).  It preserves the
cone of positive semidefinite tuples, so its spectral radius is attained on
that cone; the leading eigenpair drives the normalization of a system to a
compatible one.

:func:`pf_eigenpair` first runs a power iteration inside the cone, from the
system's own forms when they are definite and from the identity tuple
otherwise.  Inside this module a form tuple is one block-diagonal
``total_dim x total_dim`` array in the system's block layout, and a transfer
step is the diagonal blocks of ``H* X H``; only :func:`pf_eigenpair` hands
out a dict of blocks.  For a positive definite iterate ``X`` the
Collatz–Wielandt bracket ``alpha = lambda_min(X^{-1/2} T(X) X^{-1/2})`` and
``beta = lambda_max(...)`` (the block-diagonal matrix has the union of the
letterwise spectra, so these are the extremes over the letters) satisfies
``alpha <= rho <= beta``; once it closes to a relative width of
``BRACKET_RTOL`` the spectral radius is certified, and ``X`` is an
eigentuple up to a residual of half the width, relative to ``|X|``.  The
bracket costs two eigensolves per letter, stacked over the letters of equal
dimension (one ``eigh`` and one ``eigvalsh`` per group), against one matrix
product for a transfer step, so it is checked only where it is predicted to
close.  The bracket of ``T(X)`` lies inside that of ``X``: ``T`` is
positive, so ``alpha X <= T(X) <= beta X`` gives ``alpha T(X) <= T^2(X) <=
beta T(X)``.  A later check therefore never loses a certificate, and the
relative width shrinks geometrically, at about ``|lambda_2| / rho`` per
iteration (Bushell, "Hilbert's metric and positive contraction mappings in
a Banach space", 1973).  After a check that does not certify, the
contraction per iteration of the width since the check before predicts the
iteration at which it reaches ``BRACKET_RTOL``, and the next check is there,
at most ``_MAX_CHECK_GAP`` iterations on.  Where no contraction is known (at
the start, or when the width did not shrink) the next check is
``_CHECK_STRIDE`` iterations on, or the next iteration once the width is
within ``CHECK_EVERY_RTOL``.  Rounding an iterate with condition number
``kappa`` moves it by about ``kappa * eps`` in Hilbert's projective metric,
so the bracket of an iterate with ``kappa * eps`` above ``BRACKET_RTOL``
stalls at that rounding floor, and a width or a shrink below it shows no
contraction.  Such an iterate, once its bracket is within ``REBASE_RTOL``
(the width the checks aim at until then), is made the identity by a change
of basis at each letter: with ``X_a = V W V*``, the iteration goes on from
the identity on ``W^{1/2} V* H V W^{-1/2}``, whose eigentuple is close to
the identity, and maps its result back.  The change of basis is a
congruence, which keeps the bracket, so the contraction measured before it
still schedules the checks after it.
When the bracket cannot close — the eigentuple lies on the boundary of the
cone (the smallest eigenvalue of an iterate falls to ``DEFINITE_RTOL`` of
its largest), the operator is nilpotent, the peripheral spectrum holds more
than ``rho``, or ``_CONE_ITERATIONS`` pass first — the dense eigensolver on
:func:`transfer_matrix` decides.  Its real eigenvalues within the leading
window below ``rho`` are scanned, best first, for an eigenvector that is
semidefinite on its own.  When none is (a repeated radius whose eigenspace
meets the boundary of the cone, as for ``V + V`` with a singular eigentuple
of ``V``), the spectral projection of the identity tuple onto the leading
eigenvectors is taken instead.  By Perron–Frobenius theory for positive maps
(Evans and Høegh-Krohn, 1978) it lies in the cone: it is the limit of the
averages of the iterates ``T^n(1) / rho^n``.  Each candidate is certified by
its positivity and eigen-residual.

Vectorization uses the real basis of Hermitian matrices (diagonal units,
symmetric and antisymmetric off-diagonal units), making the operator a
real matrix on ``sum_a dims[a]^2`` coordinates.  The dense matrix is built
blockwise, one ``kron(H*, H^T)`` per stored pair mapped to these
coordinates by fixed index arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericError, ValidationError
from .system import (
    MatrixSystem,
    _excess,
    _snorm,
    _transfer,
    compatibility_defect,
    is_psd,
)
from .system import apply_transfer  # noqa: F401 (re-exported by the package)
from .tolerances import (
    BRACKET_RTOL,
    CHECK_EVERY_RTOL,
    DEFINITE_RTOL,
    EIGENTUPLE_PSD_TOL,
    LEADING_GAP,
    NORMALIZED_DEFECT_FLOOR,
    NORMALIZED_DEFECT_SLACK,
    PF_TOL,
    REBASE_RTOL,
    RESIDUAL_FLOOR,
    TRACE_FLOOR,
    VANISH_RTOL,
)

FormTuple = dict[str, np.ndarray]

# Cone iterations between bracket checks where the width's contraction is
# not known (after the first check, or after a width that did not shrink
# above its rounding floor) and the width is wider than CHECK_EVERY_RTOL.
_CHECK_STRIDE = 8
# Most cone iterations between bracket checks that a predicted contraction
# may schedule: it bounds the iterations lost to a rate misread early on.
_MAX_CHECK_GAP = 32
# Cone iterations allowed before the dense eigensolver takes over.
_CONE_ITERATIONS = 1000
_EPS = float(np.finfo(float).eps)


def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major flat positions of the diagonal, the upper and the lower
    triangle of a ``d x d`` matrix; ``upper[k]`` and ``lower[k]`` mirror."""
    i, j = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), i * d + j, j * d + i


class _HermitianLayout:
    """Real coordinates on block-diagonal Hermitian form arrays.

    Letter ``a`` owns ``dims[a]**2`` coordinates from ``offsets[a]``: the
    diagonal of its block first, then the real and imaginary part of each
    upper entry, interleaved.
    """

    def __init__(self, sys: MatrixSystem):
        self.letters = sys.alphabet.letters
        self.dims = {a: sys.dims[a] for a in self.letters}
        self.slices = sys._slices
        self.total_dim = sys.total_dim
        self.offsets = {}
        self.index = {}
        n = 0
        for a in self.letters:
            self.offsets[a] = n
            self.index[a] = _hermitian_index(self.dims[a])
            n += self.dims[a] ** 2
        self.size = n

    def to_vector(self, forms: np.ndarray) -> np.ndarray:
        v = np.zeros(self.size)
        for a in self.letters:
            d, o, s = self.dims[a], self.offsets[a], self.slices[a]
            diag, up, _ = self.index[a]
            x = forms[s, s].reshape(-1)
            v[o : o + d] = x[diag].real
            v[o + d : o + d * d : 2] = x[up].real
            v[o + d + 1 : o + d * d : 2] = x[up].imag
        return v

    def from_vector(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for a in self.letters:
            d, o, s = self.dims[a], self.offsets[a], self.slices[a]
            diag, up, lo = self.index[a]
            x = np.zeros(d * d, dtype=complex)
            re = v[o + d : o + d * d : 2]
            im = v[o + d + 1 : o + d * d : 2]
            x[diag] = v[o : o + d]
            x[up] = re + 1j * im
            x[lo] = re - 1j * im
            out[s, s] = x.reshape(d, d)
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


def _unit_trace(x: np.ndarray) -> np.ndarray:
    """The Hermitian part of a form array, scaled to trace one."""
    x = (x + x.conj().T) / 2
    t = float(np.trace(x).real)
    if t <= 0:
        raise NumericError("form tuple has nonpositive total trace")
    return x / t


def _certified(sys: MatrixSystem, rho: float, x: np.ndarray, rtol: float) -> bool:
    """Whether the form array ``x`` is positive semidefinite up to
    ``EIGENTUPLE_PSD_TOL`` and an eigenvector for ``rho`` up to a residual
    of ``rtol``, both relative to ``|x|``."""
    scale = _snorm(x)
    if scale == 0.0:
        return False
    if not is_psd(x / scale, EIGENTUPLE_PSD_TOL):
        return False
    resid = _transfer(sys, x) - rho * x
    return _excess(resid, rtol * scale, lambda: _snorm(resid)) is None


def _cone_eigenpair(
    sys: MatrixSystem, tol: float
) -> tuple[float, np.ndarray] | None:
    """Power iteration in the positive semidefinite cone, stopped by the
    Collatz–Wielandt bracket; ``None`` when it cannot certify a pair.

    The iteration starts from the system's own forms when they are definite
    (smallest eigenvalue above ``DEFINITE_RTOL`` of the largest), else from
    the identity.  Every definite start converges to the same eigentuple;
    the forms start saves the iterations when the forms already are one.
    That holds for a compatible system and for its quotient ``(Q* H Q,
    Q* B Q)`` by an invariant subspace ``W``, realized on the Euclidean
    complement ``Q`` with projector ``P = Q Q*``, when that complement is
    ``B``-orthogonal to ``W`` (``P B (1 - P) = 0``).  Compatibility then
    gives ``T_q(Q* B Q) = Q* B Q - Q* H* (1 - P) B (1 - P) H Q``, so the
    transfer operator only lowers the compressed forms, and a definite tuple
    that it lowers is an eigentuple when the radius is one and the left
    eigentuple is definite.  Letterwise unitary disguises of direct sums
    keep the complement ``B``-orthogonal.  Without that condition the cross
    terms ``Q* H* (P B (1 - P) + (1 - P) B P) H Q`` enter too, and the
    compressed forms start about as far from the eigentuple as the
    identity does.

    The bracket is checked at the first iteration, so a start that is an
    eigentuple certifies in one step, then where the contraction of its
    width predicts it to close (:func:`_checks_apart`, and the module
    docstring).  When the bracket first comes within ``REBASE_RTOL`` at an
    iterate whose rounding floor is above ``BRACKET_RTOL``, the iteration
    goes on from the identity on the system rebased at that iterate
    (:func:`_rebased`, from the eigenpairs the bracket has just computed),
    and a certified iterate is mapped back.  The
    eigensolves run letterwise, stacked over the letters of equal
    dimension, but an iterate counts as singular when its smallest
    eigenvalue over all letters is at most ``DEFINITE_RTOL`` of its largest
    over all letters, as for one eigensolve of the whole array: a letter
    whose form is faint against the others' still sends the solve to the
    dense path.
    """
    groups = _size_groups(sys)
    x = sys._B
    w = [np.linalg.eigvalsh(_stacked(x, g)) for g in groups]
    if _singular(w):
        x = np.eye(sys.total_dim, dtype=complex)
    near = False
    # The system the loop iterates, and the factor r that maps its forms
    # back to those of sys (X = r* X' r) once it is rebased.
    base, back = sys, None
    # The iteration of the next check, and the iteration and relative width
    # of the last check.
    due, last = 0, None
    for k in range(_CONE_ITERATIONS):
        y = _transfer(base, x)
        if k == due:
            bracket = _bracket(groups, x, y)
            if bracket is None:
                return None
            lo, hi, eigs = bracket
            if hi - lo <= BRACKET_RTOL * hi:
                rho = (lo + hi) / 2
                if rho <= tol:
                    # The dense path reports such radii as zero.
                    return None
                if back is not None:
                    x = back.conj().T @ x @ back
                forms = _unit_trace(x)
                if _certified(
                    sys, rho, forms, max(tol, RESIDUAL_FLOOR) * max(1.0, rho)
                ):
                    return float(rho), forms
                return None
            width = (hi - lo) / hi if hi > 0 else math.inf
            if hi - lo <= REBASE_RTOL * hi and not near:
                near = True
                rebased = _rebased(sys, groups, eigs)
                if rebased is not None:
                    # The iterate becomes the identity on the rebased
                    # system, a congruence that keeps its bracket.
                    base, back = rebased
                    y = _transfer(base, np.eye(sys.total_dim, dtype=complex))
            # While a rebase is due, the next check aims at its width.
            aim = BRACKET_RTOL
            if not near and _floored(eigs, BRACKET_RTOL):
                aim = REBASE_RTOL
            due = k + _checks_apart(last, k, width, aim, eigs)
            last = k, width
        t = float(np.trace(y).real)
        if not t > 0:
            return None
        x = y / t
    return None


def _checks_apart(
    last: tuple[int, float] | None,
    k: int,
    width: float,
    aim: float,
    eigs: list[tuple[np.ndarray, np.ndarray]],
) -> int:
    """Iterations from a check at iteration ``k`` that saw the relative
    bracket width ``width`` and did not certify to the next check, given
    the iteration and width ``last`` of the check before it and the stacked
    eigenpairs ``eigs`` of the iterate.

    The width contracts geometrically, so its contraction per iteration
    since ``last`` predicts the iteration at which it reaches ``aim``
    (``BRACKET_RTOL``, or ``REBASE_RTOL`` while a rebase is due); the
    prediction is clamped to ``[1, _MAX_CHECK_GAP]``.  The rate is read
    only when the width and its shrink since ``last`` are above the
    rounding floor of the iterate: below it they are rounding.  Without a
    rate, the next check is ``_CHECK_STRIDE`` away, or the next iteration
    when the width is at most ``CHECK_EVERY_RTOL``: there it sits at its
    rounding floor and may dip below ``BRACKET_RTOL`` at one iteration
    only."""
    if last is not None and width < last[1]:
        k0, w0 = last
        shrink = math.log(w0 / width)
        if shrink > 0 and not _floored(eigs, min(w0 - width, width)):
            steps = (k - k0) * math.log(width / aim) / shrink
            return max(1, math.ceil(min(steps, _MAX_CHECK_GAP)))
    return 1 if width <= CHECK_EVERY_RTOL else _CHECK_STRIDE


def _size_groups(sys: MatrixSystem) -> list[np.ndarray]:
    """The coordinate ranges of the letters of nonzero dimension, grouped by
    dimension: one ``(letters, d)`` index array per dimension ``d``."""
    starts: dict[int, list[int]] = {}
    for a, s in sys._slices.items():
        if sys.dims[a]:
            starts.setdefault(sys.dims[a], []).append(s.start)
    return [np.array(st)[:, None] + np.arange(d) for d, st in starts.items()]


def _stacked(x: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The diagonal blocks of ``x`` at the coordinate ranges of ``group``,
    stacked ``(letters, d, d)``."""
    return x[group[:, :, None], group[:, None, :]]


def _bracket(
    groups: list[np.ndarray], x: np.ndarray, y: np.ndarray
) -> tuple[float, float, list[tuple[np.ndarray, np.ndarray]]] | None:
    """The Collatz–Wielandt bracket ``(alpha, beta)`` of the iterate ``x``
    and its image ``y``, from one ``eigh`` and one ``eigvalsh`` per group of
    letters of equal dimension, and the stacked eigenpairs of ``x`` per
    group; ``None`` when ``x`` is singular."""
    eigs = [np.linalg.eigh(_stacked(x, g)) for g in groups]
    if _singular([w for w, _ in eigs]):
        return None
    lo, hi = np.inf, -np.inf
    for g, (w, v) in zip(groups, eigs):
        # s* y s is unitarily similar to x^{-1/2} y x^{-1/2} at each letter
        s = v / np.sqrt(w)[:, None, :]
        e = np.linalg.eigvalsh(s.conj().transpose(0, 2, 1) @ _stacked(y, g) @ s)
        lo, hi = min(lo, float(e[:, 0].min())), max(hi, float(e[:, -1].max()))
    return lo, hi, eigs


def _singular(w: list[np.ndarray]) -> bool:
    """Whether the smallest of the stacked ascending eigenvalues ``w`` is at
    most ``DEFINITE_RTOL`` of the largest, over all letters at once."""
    lo, hi = _extremes(w)
    return lo <= DEFINITE_RTOL * hi


def _extremes(w: list[np.ndarray]) -> tuple[float, float]:
    """The smallest and the largest of the stacked ascending eigenvalues
    ``w``, over all letters at once."""
    lo = min(float(v[:, 0].min()) for v in w)
    return lo, max(float(v[:, -1].max()) for v in w)


def _floored(eigs: list[tuple[np.ndarray, np.ndarray]], rtol: float) -> bool:
    """Whether the rounding floor ``kappa * eps`` of the iterate with the
    stacked eigenpairs ``eigs`` (``kappa`` its largest eigenvalue over its
    smallest, over all letters) is above the relative bracket width
    ``rtol``."""
    lo, hi = _extremes([w for w, _ in eigs])
    return hi > rtol / _EPS * lo


def _rebased(
    sys: MatrixSystem,
    groups: list[np.ndarray],
    eigs: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[MatrixSystem, np.ndarray] | None:
    """The system in the basis that makes the definite iterate ``x``, given
    by its stacked eigenpairs ``eigs`` per group (as :func:`_bracket`
    returns them), the identity, and the block-diagonal ``r`` with
    ``x = r* r`` that maps its forms back (``X = r* X' r``); ``None`` when
    the rounding floor of ``x`` is at most ``BRACKET_RTOL``
    (:func:`_floored`).

    With ``x_a = V W V*`` at each letter, ``r = W^{1/2} V*`` and the new
    transfer matrices are ``r_b H(b,a) r_a^{-1}``, built from the unitary
    ``V`` and the diagonal ``W^{1/2}`` alone, so they carry the rounding of
    a unitary change of basis and no ``kappa``.  The transfer operator of
    the new system is conjugate to that of ``sys``: the same spectrum, and
    eigentuples ``X' = r^{-*} X r^{-1}``."""
    if not _floored(eigs, BRACKET_RTOL):
        return None
    n = sys.total_dim
    r, s = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
    for g, (w, v) in zip(groups, eigs):
        root = np.sqrt(w)
        block = g[:, :, None], g[:, None, :]
        r[block] = root[:, :, None] * v.conj().transpose(0, 2, 1)
        s[block] = v / root[:, None, :]
    ident = np.eye(n, dtype=complex)
    return MatrixSystem._unchecked(sys.alphabet, sys.dims, r @ sys._H @ s, ident), r


def _nilpotent_eigentuple(mat: np.ndarray, layout: _HermitianLayout) -> np.ndarray:
    # With spectral radius zero the operator is nilpotent; the last nonzero
    # iterate of the identity tuple is positive semidefinite and killed by
    # the next step, hence an eigenvector for eigenvalue zero.
    prev = layout.to_vector(np.eye(layout.total_dim))
    for _ in range(layout.size + 1):
        nxt = mat @ prev
        if np.linalg.norm(nxt) <= VANISH_RTOL * max(1.0, np.linalg.norm(prev)):
            return layout.from_vector(prev)
        prev = nxt
    raise NumericError("transfer operator looked nilpotent but never vanished")


def _dense_eigenpair(sys: MatrixSystem, tol: float) -> tuple[float, np.ndarray]:
    mat, layout = transfer_matrix(sys)
    evals, evecs = np.linalg.eig(mat)
    rho = float(np.max(np.abs(evals))) if evals.size else 0.0

    if rho <= tol:
        return 0.0, _unit_trace(_nilpotent_eigentuple(mat, layout))

    # Real eigenvalues near the spectral radius; the scan takes them best first.
    scale = max(1.0, rho)
    leading = (np.abs(evals.imag) <= tol * scale) & (
        evals.real >= rho - max(tol, LEADING_GAP) * scale
    )
    bound = max(tol, RESIDUAL_FLOOR) * scale
    order = np.argsort(-evals.real)
    for k in order[leading[order]]:
        vec = evecs[:, k]
        real_part = vec.real if np.linalg.norm(vec.real) >= np.linalg.norm(
            vec.imag
        ) else vec.imag
        x = layout.from_vector(real_part)
        t = float(np.trace(x).real)
        if abs(t) < TRACE_FLOOR:
            continue
        forms = _unit_trace(x / t)
        if _certified(sys, evals[k].real, forms, bound):
            return float(evals[k].real), forms

    # No leading eigenvector is semidefinite on its own (a repeated radius
    # whose eigenspace holds the cone's boundary): the spectral projection of
    # the identity onto the leading eigenvectors is in the cone.
    ident = layout.to_vector(np.eye(layout.total_dim))
    coef = np.linalg.lstsq(evecs, ident, rcond=None)[0]
    x = layout.from_vector((evecs[:, leading] @ coef[leading]).real)
    if float(np.trace(x).real) > 0:
        forms = _unit_trace(x)
        if _certified(sys, rho, forms, bound):
            return rho, forms
    raise NumericError(f"no certified leading eigenpair (spectral radius {rho:.6e})")


def pf_eigenpair(sys: MatrixSystem, tol: float = PF_TOL) -> tuple[float, FormTuple]:
    """Spectral radius of the transfer operator and a positive semidefinite
    eigentuple, normalized to total trace one.

    The certified cone iteration answers when it can, starting from the
    system's forms when they are definite (one bracket check when they are
    already an eigentuple, as for a compatible system) and checking the
    Collatz–Wielandt bracket at the iteration where the contraction of its
    width so far predicts it to close: every ``_CHECK_STRIDE`` iterations
    where no contraction is known, and at every one at its rounding floor.
    Since the bracket of each iterate lies inside that of the one before, a
    later check never loses a certificate.  The dense eigensolver covers
    the rest with a leading eigenvector that is semidefinite on its own,
    else with the spectral projection of the identity tuple onto the
    leading eigenvectors.  Raises :class:`NumericError` when neither finds
    a certified pair.
    """
    if sys.total_dim == 0:
        raise InputError("the zero system has no leading eigenpair")
    rho, x = _cone_eigenpair(sys, tol) or _dense_eigenpair(sys, tol)
    return rho, {a: x[s, s] for a, s in sys._slices.items()}


def _psd_part(x: np.ndarray) -> np.ndarray:
    """``x`` itself when its Hermitian part has no negative eigenvalue,
    else that Hermitian part with its negative eigenvalues set to zero."""
    if x.size == 0:
        return x
    w, Q = np.linalg.eigh((x + x.conj().T) / 2)
    if w[0] >= 0:
        return x
    p = (Q * np.maximum(w, 0)) @ Q.conj().T
    return (p + p.conj().T) / 2


def normalize_to_compatible(
    sys: MatrixSystem, tol: float = PF_TOL
) -> tuple[MatrixSystem, float]:
    """Rescale the transfer matrices and replace the forms so the system
    becomes compatible.

    Divides every ``H`` by the square root of the spectral radius and
    installs the leading eigentuple as the forms.  The eigentuple is
    certified semidefinite only up to ``EIGENTUPLE_PSD_TOL``, looser than
    the forms' ``PSD_TOL``, so a block with a negative eigenvalue is
    installed as its semidefinite part (those eigenvalues set to zero);
    the compatibility check below covers the change.  Returns the
    normalized system and the spectral radius of the input.  Fails when the
    spectral radius vanishes.
    """
    rho, forms = pf_eigenpair(sys, tol)
    if rho <= tol:
        raise ValidationError(
            "system is degenerate: the transfer operator has spectral radius zero"
        )
    forms = {a: _psd_part(x) for a, x in forms.items()}
    out = sys.scale_H(1.0 / np.sqrt(rho)).with_forms(forms)
    defect = compatibility_defect(out)
    if defect > max(tol, NORMALIZED_DEFECT_FLOOR) * NORMALIZED_DEFECT_SLACK:
        raise NumericError(f"normalization left compatibility defect {defect:.3e}")
    return out, rho
