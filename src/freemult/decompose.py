"""Decomposition of compatible systems into irreducible direct summands.

A subsystem is invariant when every transfer matrix maps the subspace at
its source letter into the one at its target letter.  A system is
irreducible when it has no proper nonzero invariant subsystem.  For a
compatible system with strictly positive forms, splitting off the kernel
of ``B - lambda0 * Btilde`` — where ``Btilde`` pulls back the leading
eigentuple of the quotient by a maximal invariant subsystem and
``lambda0`` is the largest coefficient keeping the difference positive
semidefinite — peels one irreducible summand; recursion on the remaining
invariant part yields the full decomposition.

Irreducibility is certified, not sampled.  For the letter ``a`` of
smallest nonzero dimension, a system is irreducible exactly when the
closure of ``V_a`` and the closure of ``V_a`` in the dual system are
everything and the loop algebra ``M_a`` (the span of the path products
from ``a`` back to ``a``) is all of ``End(V_a)`` — a Burnside/density
certificate.  One closure serves the first and the third: the closure of
the identity at ``a`` among the maps ``V_a -> V_c``, by block products with
``H``, spans the path products from ``a``; their ranges are the closure of
``V_a``, and at ``a`` they span ``M_a``.  When ``M_a`` is smaller, Norton's
test from the MeatAxe (Holt and Rees, 1994) spins one eigenvector per
eigenvalue of a fixed generic element of ``M_a`` and of its adjoint to find
a proper invariant subsystem, and the dual closure is taken only when it
finds none.  A summand split off by the kernel construction is not searched
again: its map to the quotient, which a search has just certified
irreducible, must be an isomorphism.  Every step is deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InternalCheckError, ValidationError
from .perron import pf_eigenpair
from .system import (
    MatrixSystem,
    Subsystem,
    SystemMap,
    _blockdiag,
    _compressed,
    _excess,
    _intertwining_excess,
    _invariance_excess,
    _snorm,
    _transfer,
    compatibility_defect,
    null_space,
    orthonormal_columns,
    orthogonal_complement,
    quotient_system,
    restrict_to_subsystem,
)
from .tolerances import (
    COMPAT_TOL,
    COMPONENT_DEFECT_FLOOR,
    DECOMPOSE_INV_TOL,
    EIG_CLUSTER_RTOL,
    ISOMORPHISM_SIGMA_MIN,
    KERNEL_RTOL,
    POSITIVITY_SLACK,
    RANK_RTOL,
    RHO_BAND,
    RHO_CEILING,
    ROUTE_RTOL,
    VANISH_RTOL,
)


def strip_null_directions(
    sys: MatrixSystem, tol: float = COMPAT_TOL
) -> tuple[MatrixSystem, Subsystem]:
    """Remove the letterwise kernels of the forms from a compatible system.

    The kernels form an invariant subsystem; the result is the quotient
    onto their orthogonal complements, carrying strictly positive forms.
    Returns the stripped system and the removed subsystem.
    """
    if compatibility_defect(sys) > tol:
        raise ValidationError("null stripping needs a compatible system")
    stripped, nulls, _ = _strip_null(sys)
    return stripped, nulls


def _strip_null(sys: MatrixSystem) -> tuple[MatrixSystem, Subsystem, SystemMap]:
    """:func:`strip_null_directions` of a system already known to be
    compatible, also returning the projection onto the complements."""
    nulls = Subsystem(
        sys.alphabet, {a: null_space(sys.B(a)) for a in sys.alphabet.letters}
    )
    try:
        stripped, proj = quotient_system(sys, nulls, tol=DECOMPOSE_INV_TOL)
    except ValidationError as exc:
        raise InternalCheckError(
            f"form kernels of a compatible system must be invariant; {exc}"
        ) from exc
    return stripped, nulls, proj


def closure_subsystem(
    sys: MatrixSystem, seeds: dict[str, np.ndarray]
) -> Subsystem:
    """Smallest invariant subsystem containing the given seed vectors.

    ``seeds`` maps letters to matrices whose columns are the seed vectors;
    missing letters seed nothing.  Each sweep grows the span at every letter
    that is not yet full by the images of all spans one step before it,
    until a sweep adds nothing.
    """
    basis: dict[str, np.ndarray] = {}
    for a in sys.alphabet.letters:
        s = seeds.get(a)
        if s is None:
            basis[a] = np.zeros((sys.dims[a], 0), dtype=complex)
        else:
            s = np.asarray(s, dtype=complex)
            if s.ndim == 1:
                s = s[:, None]
            if s.shape[0] != sys.dims[a]:
                raise InputError(f"seed at {a!r} has wrong dimension")
            basis[a] = orthonormal_columns(s)
    return Subsystem(sys.alphabet, _closure(sys, basis, 1))


def _closure(
    sys: MatrixSystem, basis: dict[str, np.ndarray], width: int
) -> dict[str, np.ndarray]:
    """Grow letterwise spans of ``(dims[c], width)`` blocks ``X_c`` to the
    smallest family closed under ``X_b -> H(c,b) X_b``.

    ``basis[c]`` holds the row-major ``vec(X)`` of an orthonormal basis as
    columns.  A sweep applies ``H`` to every basis element at once, its
    blocks stacked side by side in its letter's rows, and grows the span at
    every letter that is not yet full by the rows of that letter; it stops
    when a sweep adds nothing.

    A letter's span grows only when the rank cut of ``[W, img]`` keeps
    more than the ``k`` columns of its basis ``W``, so two exact bounds
    skip the SVD whose answer is known.  With ``k >= 1``, the residual
    ``R = img - W W* img`` gives ``sigma_{k+1}([W, img]) <= ||R||_2 <=
    ||R||_F`` (Eckart-Young: ``[W, W W* img]`` has rank at most ``k``),
    and ``sigma_1 >= sigma_1(W) >= 1`` (each column of ``W`` has norm at
    least one); so ``||R||_F <= RANK_RTOL / 2`` keeps every further
    singular value below the cut, the half absorbing the rounding of ``R``
    and of the SVD.  With ``k = 0``, an image that is exactly zero has no
    singular value above the cut.
    """
    letters, dims, rows = sys.alphabet.letters, sys.dims, sys._slices
    changed = True
    while changed:
        changed = False
        k = sum(basis[c].shape[1] for c in letters)
        images = np.hstack(
            [
                sys._H[:, rows[c]] @ _side_by_side(basis[c], dims[c], width)
                for c in letters
            ]
        ).reshape(sys.total_dim, k, width)
        for c in letters:
            kc = basis[c].shape[1]
            if kc == dims[c] * width:
                continue
            img = images[rows[c]].transpose(0, 2, 1).reshape(dims[c] * width, k)
            w = basis[c]
            if kc:
                known = np.linalg.norm(img - w @ (w.conj().T @ img)) <= RANK_RTOL / 2
            else:
                known = not img.any()
            if known:
                continue
            q = orthonormal_columns(np.hstack([w, img]))
            if q.shape[1] > kc:
                basis[c] = q
                changed = True
    return basis


def _side_by_side(vecs: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The ``(rows, width)`` blocks whose row-major vecs are the columns of
    ``vecs``, placed side by side."""
    k = vecs.shape[1]
    return vecs.reshape(rows, width, k).transpose(0, 2, 1).reshape(rows, k * width)


def _dual_system(sys: MatrixSystem) -> MatrixSystem:
    """Same spaces, adjoint transfer matrices in the reversed direction.

    A subsystem is invariant for the dual exactly when its letterwise
    orthogonal complement is invariant for the original.
    """
    return MatrixSystem._unchecked(
        sys.alphabet, sys.dims, sys._H.conj().T, np.eye(sys.total_dim, dtype=complex)
    )


def _annihilator(sub: Subsystem, sys: MatrixSystem) -> Subsystem:
    return Subsystem(
        sys.alphabet,
        {
            a: orthogonal_complement(sub.basis[a], sys.dims[a])
            for a in sys.alphabet.letters
        },
    )


def _is_proper_invariant(sys: MatrixSystem, sub: Subsystem) -> bool:
    if sub.is_zero() or sub.is_full(sys):
        return False
    return _invariance_excess(sys, sub, DECOMPOSE_INV_TOL) is None


def _path_maps(sys: MatrixSystem, a: str) -> dict[str, np.ndarray]:
    """Orthonormal bases of the letterwise spans of the path products from
    ``a``, the identity at ``a`` included.

    They are the closure of the identity at ``a`` among the letterwise spans
    of maps ``X_c : V_a -> V_c`` under ``X_b -> H(c,b) X_b``; column ``k``
    at ``c`` is the row-major ``vec`` of a ``(dims[c], dims[a])`` map.  At
    ``a`` they span the loop algebra ``M_a``.
    """
    d = sys.dims[a]
    seeds = {c: np.zeros((n * d, 0), dtype=complex) for c, n in sys.dims.items()}
    seeds[a] = np.eye(d, dtype=complex).reshape(-1, 1)
    return _closure(sys, seeds, d)


def _ranges(sys: MatrixSystem, maps: dict[str, np.ndarray], d: int) -> Subsystem:
    """The closure of ``V_a``, read off the path maps from ``a``: at each
    letter, the span of their ranges.  A letter whose maps span all of
    ``Hom(V_a, V_c)`` has full range without an SVD."""
    basis = {}
    for c, m in maps.items():
        n = sys.dims[c]
        if m.shape[1] == n * d:
            basis[c] = np.eye(n, dtype=complex)
        else:
            basis[c] = orthonormal_columns(_side_by_side(m, n, d))
    return Subsystem(sys.alphabet, basis)


def _spin(mats: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``M v`` over the matrices ``M``."""
    return orthonormal_columns((mats @ v).T)


def _norton(sys: MatrixSystem, a: str, mats: np.ndarray) -> Subsystem | None:
    """Norton's test on the loop algebra ``M_a`` (basis ``mats``): for each
    eigenvalue of a fixed generic element ``theta``, spin one eigenvector of
    ``theta`` under ``M_a`` and one of ``theta*`` under ``M_a*``; the closure
    of the first proper span, or of the orthogonal complement of the first
    proper adjoint span, when it passes the invariance test."""
    d = sys.dims[a]
    # Fixed unimodular coefficients exp(i sqrt(k)), k = 2, 3, ..., with no
    # algebraic relation among them: theta avoids the non-generic elements
    # (a proper algebraic subset of M_a) without a random draw.
    coef = np.exp(1j * np.sqrt(np.arange(2, mats.shape[0] + 2)))
    theta = np.tensordot(coef, mats, axes=1)
    evals = np.linalg.eigvals(theta)
    scale = max(1.0, float(np.max(np.abs(evals))))
    adjoints = mats.conj().transpose(0, 2, 1)
    picked: list[complex] = []
    for lam in evals:
        if any(abs(lam - mu) <= EIG_CLUSTER_RTOL * scale for mu in picked):
            continue
        picked.append(complex(lam))
        # the singular vectors of the smallest singular value are an
        # eigenvector of theta (right) and one of theta* (left)
        u, _, vh = np.linalg.svd(theta - lam * np.eye(d))
        span = _spin(mats, vh[-1].conj())
        if span.shape[1] < d:
            cand = closure_subsystem(sys, {a: span})
            if _is_proper_invariant(sys, cand):
                return cand
        span = _spin(adjoints, u[:, -1])
        if span.shape[1] < d:
            cand = closure_subsystem(sys, {a: orthogonal_complement(span, d)})
            if _is_proper_invariant(sys, cand):
                return cand
    return None


def find_proper_invariant(sys: MatrixSystem) -> Subsystem | None:
    """A proper nonzero invariant subsystem, or ``None`` as a certificate
    that the system is irreducible.

    With ``a`` the letter of smallest nonzero dimension, one closure gives
    the path maps from ``a`` (:func:`_path_maps`): their ranges are the
    closure of ``V_a``, returned when it is proper, and at ``a`` they span
    the loop algebra ``M_a``.  When ``M_a`` is smaller than ``End(V_a)``,
    ``V_a`` is a reducible ``M_a``-module (Burnside) and Norton's test
    (:func:`_norton`) looks for a proper invariant subsystem first.  Only
    when it finds none, or when ``M_a`` is all of ``End(V_a)``, is the
    closure of ``V_a`` in the dual system taken; the annihilator of a
    proper one is returned.  ``None`` needs all three: the closure and the
    dual closure full and ``M_a = End(V_a)``, since then an invariant
    subsystem is either full at ``a`` (hence full) or zero at ``a`` (hence
    annihilated by every path into ``a``, hence zero).  A closure that is
    proper but fails the invariance test, with nothing else found, raises
    :class:`InternalCheckError` instead of certifying.
    """
    if sys.total_dim == 0:
        raise InputError("invariant search needs a nonzero system")
    a = min(
        (c for c in sys.alphabet.letters if sys.dims[c]), key=lambda c: sys.dims[c]
    )
    d = sys.dims[a]
    maps = _path_maps(sys, a)
    reach = _ranges(sys, maps, d)
    if _is_proper_invariant(sys, reach):
        return reach
    # column k of maps[a] is the row-major vec(M_k)
    mats = maps[a].T.reshape(-1, d, d)
    full_algebra = mats.shape[0] == d * d
    if not full_algebra:
        found = _norton(sys, a, mats)
        if found is not None:
            return found
    dual = closure_subsystem(_dual_system(sys), {a: np.eye(d, dtype=complex)})
    if not dual.is_full(sys):
        cand = _annihilator(dual, sys)
        if _is_proper_invariant(sys, cand):
            return cand
    if not full_algebra:
        raise InternalCheckError(
            f"the loop algebra at {a!r} has dimension {mats.shape[0]} < {d * d}, "
            f"yet no eigenvector of a generic element spins to a proper subspace"
        )
    if not (reach.is_full(sys) and dual.is_full(sys)):
        raise InternalCheckError(
            "a closure of the smallest space is proper but fails the invariance "
            "test, so irreducibility is not certified"
        )
    return None


def maximal_invariant(sys: MatrixSystem) -> Subsystem:
    """A maximal proper invariant subsystem (the quotient is irreducible).

    Fails with a validation error when the input is certified irreducible.
    """
    first = find_proper_invariant(sys)
    if first is None:
        raise ValidationError(
            "system is irreducible: it has no proper invariant subsystem"
        )
    return _maximal_containing(sys, first)[0]


def _maximal_containing(
    sys: MatrixSystem, first: Subsystem
) -> tuple[Subsystem, MatrixSystem, SystemMap]:
    """A maximal proper invariant subsystem containing the proper invariant
    subsystem ``first``, the (certified irreducible) quotient by it and the
    projection onto the quotient.

    Grows the invariant subsystem by the pullback of a proper invariant
    subsystem of the quotient by it, as long as that quotient has one.
    """
    w = first
    while True:
        try:
            quot, proj = quotient_system(sys, w, tol=DECOMPOSE_INV_TOL)
        except ValidationError as exc:
            raise InternalCheckError(
                f"pullback of an invariant subsystem of the quotient must be "
                f"invariant; {exc}"
            ) from exc
        if quot.total_dim == 0:
            raise InternalCheckError("maximal invariant search reached a full chain")
        finer = find_proper_invariant(quot)
        if finer is None:
            return w, quot, proj
        grown = Subsystem.from_spanning(
            sys.alphabet,
            {
                a: np.hstack([w.basis[a], proj[a].conj().T @ finer.basis[a]])
                for a in sys.alphabet.letters
            },
        )
        if grown.total_dim <= w.total_dim:
            raise InternalCheckError("invariant subsystem failed to grow")
        w = grown


def _split_off_component(
    sys: MatrixSystem,
    w: Subsystem,
    proj: SystemMap,
    forms_t: dict[str, np.ndarray],
) -> tuple[MatrixSystem, SystemMap, MatrixSystem, SystemMap]:
    """Split ``sys`` (strictly positive forms, unit quotient radius) into the
    irreducible summand carried by the kernel complement and the rest;
    ``proj`` projects onto the quotient by ``w``.

    Returns ``(component, its embedding, remainder on w, its embedding)``.
    """
    al, sl = sys.alphabet, sys._slices
    # Pull the quotient eigentuple back through the projection.
    p = _blockdiag([proj[a] for a in al.letters])
    bt = p.conj().T @ _blockdiag([forms_t[a] for a in al.letters]) @ p
    scale_bt = _snorm(bt)
    gap = _transfer(sys, bt) - bt
    drift = _excess(gap, DECOMPOSE_INV_TOL, lambda: _snorm(gap), lambda: scale_bt)
    if drift is not None:
        raise InternalCheckError(
            f"pulled-back quotient eigentuple drifts under transfer: {drift:.3e}"
        )

    # Largest coefficient keeping B - lambda0 * bt positive semidefinite,
    # computed letterwise on the whitened pencil.  The eigh of each form also
    # gives its 2-norm, for the kernel cut and the route check below.
    lam_inv, b_norms = 0.0, {}
    for a, s in sl.items():
        if sys.dims[a] == 0:
            continue
        evals, vecs = np.linalg.eigh(sys.B(a))
        b_norms[a] = max(-float(evals[0]), float(evals[-1]))
        if not np.any(np.abs(bt[s, s]) > VANISH_RTOL * max(1.0, scale_bt)):
            continue
        if evals[0] <= 0:
            raise InternalCheckError("splitting requires strictly positive forms")
        white = vecs @ np.diag(evals**-0.5) @ vecs.conj().T
        m = white @ bt[s, s] @ white
        lam_inv = max(lam_inv, float(np.linalg.eigvalsh((m + m.conj().T) / 2)[-1]))
    if lam_inv <= 0:
        raise InternalCheckError("quotient eigentuple pulled back to zero")
    lam0 = 1.0 / lam_inv

    # Kernel of the residual form at each letter carries the summand.
    resid = sys._B - lam0 * bt
    w0 = {}
    for a, s in sl.items():
        r = resid[s, s]
        if r.size == 0:
            w0[a] = np.zeros((0, 0), dtype=complex)
            continue
        evals, vecs = np.linalg.eigh((r + r.conj().T) / 2)
        cut = KERNEL_RTOL * max(1.0, b_norms[a])
        if evals[0] < -cut * POSITIVITY_SLACK:
            raise InternalCheckError(
                f"residual form at {a!r} lost positivity: {evals[0]:.3e}"
            )
        w0[a] = vecs[:, np.abs(evals) <= cut]
    w0_sub = Subsystem(al, w0)
    expected = {a: proj[a].shape[0] for a in al.letters}
    if w0_sub.dims() != expected:
        raise InternalCheckError(
            f"kernel dimensions {w0_sub.dims()} do not match the quotient "
            f"dimensions {expected}"
        )
    defect = _invariance_excess(sys, w0_sub, DECOMPOSE_INV_TOL)
    if defect is not None:
        raise InternalCheckError(
            f"splitting kernel must be invariant; defect {defect:.3e}"
        )

    # The residual form vanishes on the kernel, so the restricted ambient
    # form must agree with the restricted pullback.
    for a, s in sl.items():
        direct = w0[a].conj().T @ sys.B(a) @ w0[a]
        pulled = lam0 * (w0[a].conj().T @ bt[s, s] @ w0[a])
        gap = direct - pulled
        off = _excess(gap, ROUTE_RTOL, lambda: _snorm(gap), lambda: b_norms[a])
        if off is not None:
            raise InternalCheckError(
                f"restricted forms disagree between the two routes at {a!r}"
            )
    component = _compressed(sys, w0, lam0 * bt)
    rest = _compressed(sys, w.basis, resid)
    return component, SystemMap(al, w0), rest, SystemMap(al, dict(w.basis))


def _certify_isomorphic(
    component: MatrixSystem, quot: MatrixSystem, iso: SystemMap
) -> None:
    """Certify the split-off summand irreducible by its isomorphism with the
    certified irreducible quotient.

    ``iso`` is ``Q* W0``: the summand's basis ``W0`` followed by the
    projection ``Q*`` onto the quotient.  It intertwines, since ``W0`` is
    invariant and ``Q* H = H_quot Q*`` (``Q`` is the complement of an
    invariant subspace), and it is invertible exactly when ``W0`` meets that
    subspace only in zero.  Both bases are orthonormal, so the singular
    values of ``iso`` are at most one, and the smallest is the sine of the
    smallest angle between ``W0`` and the invariant subspace.  So the summand
    is irreducible when, at every letter, that sine is at least
    ``ISOMORPHISM_SIGMA_MIN`` (which also gives full rank at ``RANK_RTOL``)
    and ``iso`` intertwines within ``DECOMPOSE_INV_TOL``.
    """
    for a, m in iso.blocks.items():
        if m.size == 0:
            continue
        s = np.linalg.svd(m, compute_uv=False)
        if not s[-1] >= ISOMORPHISM_SIGMA_MIN:
            raise InternalCheckError(
                f"map of the split-off summand to the quotient at {a!r} is not an "
                f"isomorphism: smallest singular value {s[-1]:.3e}"
            )
    resid = _intertwining_excess(
        component,
        quot,
        iso,
        DECOMPOSE_INV_TOL,
        lambda: max(quot._block_norms().values(), default=1.0),
    )
    if resid is not None:
        raise InternalCheckError(
            f"map of the split-off summand to the quotient fails to intertwine: "
            f"residual {resid:.3e}"
        )


def _decompose_rec(
    sys: MatrixSystem,
    embed: SystemMap,
    out: list[tuple[MatrixSystem, SystemMap]],
) -> None:
    if sys.total_dim == 0:
        return
    first = find_proper_invariant(sys)
    if first is None:
        out.append((sys, embed))
        return
    w, quot, proj = _maximal_containing(sys, first)
    rho_t, forms_t = pf_eigenpair(quot)
    if rho_t > 1.0 + RHO_CEILING:
        raise InternalCheckError(
            f"quotient spectral radius {rho_t} exceeds one; compatible systems "
            f"cannot do that"
        )
    if rho_t >= 1.0 - RHO_BAND:
        component, comp_embed, rest, rest_embed = _split_off_component(
            sys, w, proj, forms_t
        )
        _certify_isomorphic(component, quot, proj.compose(comp_embed))
        out.append((component, embed.compose(comp_embed)))
    else:
        # Transient quotient: all weight lives on the invariant part.
        rest, rest_embed = restrict_to_subsystem(sys, w, tol=DECOMPOSE_INV_TOL)
    _decompose_rec(rest, embed.compose(rest_embed), out)


def decompose(
    sys: MatrixSystem, tol: float = COMPAT_TOL
) -> list[tuple[MatrixSystem, SystemMap]]:
    """Decompose a compatible system into irreducible compatible summands.

    Returns pairs ``(component, embedding)`` where each component is an
    irreducible system and each embedding is a letterwise isometry into the
    input system intertwining the transfer matrices.  Null directions of
    the input forms are stripped first and belong to no component.  Every
    component is certified irreducible once: by the search that finds no
    proper invariant subsystem in it, or, for a split-off summand, by its
    isomorphism with the quotient that such a search has just certified.
    """
    defect = compatibility_defect(sys)
    if defect > tol:
        raise ValidationError(
            f"decomposition needs a compatible system; defect {defect:.3e}"
        )
    stripped, _, proj = _strip_null(sys)
    base = SystemMap(sys.alphabet, {a: proj[a].conj().T for a in sys.alphabet.letters})
    out: list[tuple[MatrixSystem, SystemMap]] = []
    _decompose_rec(stripped, base, out)

    for comp, emb in out:
        gap = comp._B - _transfer(comp, comp._B)
        cd = _excess(gap, max(tol, COMPONENT_DEFECT_FLOOR), lambda: _snorm(gap))
        if cd is not None:
            raise InternalCheckError(f"component left incompatible: defect {cd:.3e}")
        resid = _intertwining_excess(
            comp,
            sys,
            emb,
            DECOMPOSE_INV_TOL,
            lambda: max(sys._block_norms().values(), default=1.0),
        )
        if resid is not None:
            raise InternalCheckError(
                f"component embedding fails to intertwine: residual {resid:.3e}"
            )
    return out
