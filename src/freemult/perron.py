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
its largest), the peripheral spectrum holds more than ``rho``, or
``_CONE_ITERATIONS`` pass first — the dense eigensolver on
:func:`transfer_matrix` decides.  So that a singular iterate is found
early, the next check is also no later than where the contraction of the
iterate's smallest eigenvalue over its largest since the check before
predicts it to reach ``DEFINITE_RTOL``.  A nilpotent operator needs no
dense solve: an iterate whose image vanishes against it (``VANISH_RTOL`` of
its trace) is certified for radius zero, when the traces of the iterates
since the start bound the radius by ``tol`` as well; one vanishing image
is no bound, since a transient direction may die while a small eigenvalue
remains.

The dense path takes the spectral projection of the identity tuple onto the
eigenvectors of the leading real eigenvalues.  By Perron–Frobenius theory
for positive maps (Evans and Høegh-Krohn, 1978) it lies in the cone: it is
the limit of the averages of the iterates ``T^n(1) / rho^n``.  It is
certified by its positivity and eigen-residual, like the iterate, and only
where the eigensolver's first-order error bound on the leading eigenvalues,
``eps |T| |P|`` for the spectral projector ``P`` (Frobenius norms), is
within ``tol``.  No residual bounds the error of a defective eigenvalue,
which the eigensolver scatters by up to about ``eps**(1/k)`` for a Jordan
block of size ``k``; there ``|P|`` is huge, so for a defective leading
eigenvalue, as in a non-split self-extension, :func:`pf_eigenpair` raises
rather than return a scattered radius.  The dense matrix is complex, on the
coordinates ``x[sys._same]`` of a block-diagonal form array: each letter's
block entries, row-major, letters in alphabet order.  It is built
blockwise, one ``kron(H*, H^T)`` per stored pair.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, NumericError, ValidationError
from .system import (
    MatrixSystem,
    _excess,
    _layout,
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


def transfer_matrix(sys: MatrixSystem) -> np.ndarray:
    """The transfer operator as a dense complex matrix on the coordinates
    ``x[sys._same]`` of a block-diagonal form array: each letter's block
    entries, row-major, letters in alphabet order."""
    sl = _layout(sys.alphabet, {a: d * d for a, d in sys.dims.items()})
    n = sum(d * d for d in sys.dims.values())
    m = np.zeros((n, n), dtype=complex)
    for b, a in sys.stored_pairs():
        h = sys.H(b, a)
        # vec(H* X H) = kron(H*, H^T) vec(X) on row-major vectorizations.
        m[sl[a], sl[b]] = np.kron(h.conj().T, h.T)
    return m


def _unit_trace(x: np.ndarray) -> np.ndarray:
    """The Hermitian part of a form array, scaled to trace one."""
    x = (x + x.conj().T) / 2
    t = float(np.trace(x).real)
    if t <= 0:
        raise NumericError("form tuple has nonpositive total trace")
    return x / t


def _certified(rho: float, x: np.ndarray, y: np.ndarray, rtol: float) -> bool:
    """Whether the form array ``x`` is positive semidefinite up to
    ``EIGENTUPLE_PSD_TOL`` and, with its image ``y = T(x)``, an eigenvector
    for ``rho`` up to a residual of ``rtol``, both relative to ``|x|``."""
    scale = _snorm(x)
    if scale == 0.0:
        return False
    if not is_psd(x / scale, EIGENTUPLE_PSD_TOL):
        return False
    resid = y - rho * x
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
    width, or of the iterate's eigenvalue ratio toward ``DEFINITE_RTOL``,
    predicts it to close or to turn singular (:func:`_checks_apart`, and
    the module docstring).  When the bracket first comes within
    ``REBASE_RTOL`` at an iterate whose rounding floor is above
    ``BRACKET_RTOL``, the iteration goes on from the identity on the system
    rebased at that iterate (:func:`_rebased`, from the eigenpairs the
    bracket has just computed), and a certified iterate is mapped back.  An
    iterate whose image has a trace of at most ``VANISH_RTOL`` of its own
    is certified for radius zero against that image, mapped back, when the
    traces of the iterates since the start bound the radius by ``tol``
    (the operator is nilpotent), and sent to the dense path otherwise.  An
    iterate whose bracket closes at a radius of at most ``tol`` is
    certified for radius zero against its image alike.  The eigensolves run
    letterwise, stacked over the letters of equal dimension, but an iterate
    counts as singular when its smallest eigenvalue over all letters is at
    most ``DEFINITE_RTOL`` of its largest over all letters, as for one
    eigensolve of the whole array: a letter whose form is faint against the
    others' still sends the solve to the dense path.
    """
    groups = _size_groups(sys)
    x = sys._B
    w = [np.linalg.eigvalsh(_stacked(x, g)) for g in groups]
    low = _extremes(w)[0]
    if _singular(w):
        x, low = np.eye(sys.total_dim, dtype=complex), 1.0
    size = float(np.trace(x).real)
    x = x / size
    # log(tr T^j(x0) / lambda_min(x0)) for the start x0 of the iterate
    # x = T^j(x0) / tr T^j(x0), with j = k - k0.
    logb, k0 = math.log(size / low), 0
    near = False
    # The system the loop iterates, and the factor r that maps its forms
    # back to those of sys (X = r* X' r) once it is rebased.
    base, back = sys, None
    # The iteration of the next check, and the iteration, relative width
    # and eigenvalue ratio of the last check.
    due, last = 0, None
    for k in range(_CONE_ITERATIONS):
        y = _transfer(base, x)
        t = float(np.trace(y).real)
        if not t > VANISH_RTOL:
            # x0 >= lambda_min(x0) 1 and T is positive, and the norm of a
            # positive map is that of its image of the identity, so rho^n
            # <= |T^n(1)| <= tr T^n(x0) / lambda_min(x0), n = k + 1 - k0.
            # One vanishing image is no such bound: x may sit on a
            # transient direction that dies while a small eigenvalue stays.
            bound = math.exp((logb + math.log(t)) / (k + 1 - k0)) if t > 0 else 0.0
            return _answer(sys, 0.0, x, y, back, tol) if bound <= tol else None
        logb += math.log(t)
        if k == due:
            bracket = _bracket(groups, x, y)
            if bracket is None:
                return None
            lo, hi, eigs = bracket
            if hi - lo <= BRACKET_RTOL * hi:
                return _answer(sys, (lo + hi) / 2, x, y, back, tol)
            width = (hi - lo) / hi if hi > 0 else math.inf
            ratio = _ratio(eigs)
            if hi - lo <= REBASE_RTOL * hi and not near:
                near = True
                rebased = _rebased(sys, groups, eigs)
                if rebased is not None:
                    # The iterate becomes the identity on the rebased
                    # system, a congruence that keeps its bracket; the
                    # trace bound restarts from it.
                    base, back = rebased
                    y = _transfer(base, np.eye(sys.total_dim, dtype=complex))
                    t = float(np.trace(y).real)
                    logb, k0 = math.log(t), k
            # While a rebase is due, the next check aims at its width.
            aim = BRACKET_RTOL
            if not near and _floored(ratio, BRACKET_RTOL):
                aim = REBASE_RTOL
            due = k + _checks_apart(last, (k, width, ratio), aim)
            last = k, width, ratio
        x = y / t
    return None


def _answer(
    sys: MatrixSystem,
    rho: float,
    x: np.ndarray,
    y: np.ndarray,
    back: np.ndarray | None,
    tol: float,
) -> tuple[float, np.ndarray] | None:
    """The radius ``rho`` and the iterate ``x``, mapped back to ``sys`` by
    ``back`` and scaled to trace one, when they pass :func:`_certified`;
    else ``None``.  A radius of at most ``tol`` counts as zero and is
    certified against the loop's image ``y = T(x)``, mapped back alike; any
    other against a fresh image on ``sys``."""
    if back is not None:
        x, y = back.conj().T @ x @ back, back.conj().T @ y @ back
    forms = _unit_trace(x)
    if rho <= tol:
        rho, image = 0.0, y / float(np.trace(x).real)
    else:
        image = _transfer(sys, forms)
    if _certified(rho, forms, image, max(tol, RESIDUAL_FLOOR) * max(1.0, rho)):
        return float(rho), forms
    return None


def _checks_apart(
    last: tuple[int, float, float] | None,
    now: tuple[int, float, float],
    aim: float,
) -> int:
    """Iterations from a check that did not certify to the next check,
    given the iteration, the relative bracket width and the eigenvalue
    ratio of the iterate (:func:`_ratio`) at that check, ``now``, and at
    the check before it, ``last``.

    The width contracts geometrically, so its contraction per iteration
    since ``last`` predicts the iteration at which it reaches ``aim``
    (``BRACKET_RTOL``, or ``REBASE_RTOL`` while a rebase is due).  The rate
    is read only when the width and its shrink since ``last`` are above the
    rounding floor of the iterate: below it they are rounding.  Without a
    rate, the next check is ``_CHECK_STRIDE`` away, or the next iteration
    when the width is at most ``CHECK_EVERY_RTOL``: there it sits at its
    rounding floor and may dip below ``BRACKET_RTOL`` at one iteration
    only.  An iterate bound for the boundary of the cone has an eigenvalue
    ratio that falls geometrically too, so when it fell since ``last`` the
    check is no later than where its contraction predicts it to reach
    ``DEFINITE_RTOL``, the singular test of :func:`_bracket`.  The
    prediction is clamped to ``[1, _MAX_CHECK_GAP]``."""
    k, width, ratio = now
    steps = 1 if width <= CHECK_EVERY_RTOL else _CHECK_STRIDE
    if last is not None:
        k0, w0, r0 = last
        if width < w0:
            shrink = math.log(w0 / width)
            if shrink > 0 and not _floored(ratio, min(w0 - width, width)):
                steps = (k - k0) * math.log(width / aim) / shrink
        if ratio < r0:
            fall = math.log(r0 / ratio)
            steps = min(steps, (k - k0) * math.log(ratio / DEFINITE_RTOL) / fall)
    return max(1, math.ceil(min(steps, _MAX_CHECK_GAP)))


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


def _ratio(eigs: list[tuple[np.ndarray, np.ndarray]]) -> float:
    """The smallest eigenvalue of the iterate with the stacked eigenpairs
    ``eigs`` over its largest, over all letters at once."""
    lo, hi = _extremes([w for w, _ in eigs])
    return lo / hi


def _floored(ratio: float, rtol: float) -> bool:
    """Whether the rounding floor ``kappa * eps`` of an iterate with the
    eigenvalue ratio ``ratio`` (:func:`_ratio`; ``kappa`` is its inverse)
    is above the relative bracket width ``rtol``."""
    return ratio * rtol < _EPS


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
    if not _floored(_ratio(eigs), BRACKET_RTOL):
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


def _dense_eigenpair(sys: MatrixSystem, tol: float) -> tuple[float, np.ndarray]:
    mat = transfer_matrix(sys)
    evals, evecs = np.linalg.eig(mat)
    rho = float(np.max(np.abs(evals)))
    # Real eigenvalues near the spectral radius count as leading.
    scale = max(1.0, rho)
    leading = (np.abs(evals.imag) <= tol * scale) & (
        evals.real >= rho - max(tol, LEADING_GAP) * scale
    )
    # The spectral projector onto the leading eigenvectors.  To first order
    # the eigensolver's backward error, about eps |T|, moves the leading
    # eigenvalues by at most |P| times that (Kato); a defective leading
    # eigenvalue, which the eigensolver scatters, shows as a huge |P|.
    inv = np.linalg.lstsq(evecs, np.eye(len(evals)), rcond=None)[0]
    proj = evecs[:, leading] @ inv[leading]
    if _EPS * np.linalg.norm(mat) * np.linalg.norm(proj) <= tol * scale:
        # The projection of the identity tuple, in the coordinates of mat.
        n = sys.total_dim
        x = np.zeros((n, n), dtype=complex)
        x[sys._same] = proj @ np.eye(n)[sys._same]
        if float(np.trace(x).real) > 0:
            forms = _unit_trace(x)
            rtol = max(tol, RESIDUAL_FLOOR) * scale
            if _certified(rho, forms, _transfer(sys, forms), rtol):
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
    later check never loses a certificate; a nilpotent operator is
    certified there too, for radius zero.  The dense eigensolver covers the
    rest with the spectral projection of the identity tuple onto the
    eigenvectors of the leading real eigenvalues.  Raises
    :class:`NumericError` when that is not certified either, as for a
    defective leading eigenvalue.
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
