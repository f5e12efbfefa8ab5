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

Invariant-subsystem search is randomized (closures of random vectors,
annihilators of random dual closures, eigenspaces of random loop
operators) with a caller-controlled trial budget and seed.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, InternalCheckError, ValidationError
from .perron import pf_eigenpair
from .system import (
    MatrixSystem,
    Subsystem,
    SystemMap,
    apply_transfer,
    compatibility_defect,
    invariance_defect,
    map_residual,
    null_space,
    orthonormal_columns,
    orthogonal_complement,
    quotient_system,
    restrict_to_subsystem,
)

# Invariance residuals below this are treated as exact.
_INV_TOL = 1e-7
# Half-width of the band around one for quotient spectral radii.
_RHO_BAND = 1e-8


def strip_null_directions(
    sys: MatrixSystem, tol: float = 1e-8
) -> tuple[MatrixSystem, Subsystem]:
    """Remove the letterwise kernels of the forms from a compatible system.

    The kernels form an invariant subsystem; the result is the quotient
    onto their orthogonal complements, carrying strictly positive forms.
    Returns the stripped system and the removed subsystem.
    """
    if compatibility_defect(sys) > tol:
        raise ValidationError("null stripping needs a compatible system")
    nulls = Subsystem(
        sys.alphabet, {a: null_space(sys.B(a)) for a in sys.alphabet.letters}
    )
    defect = invariance_defect(sys, nulls)
    if defect > _INV_TOL:
        raise InternalCheckError(
            f"form kernels of a compatible system must be invariant; "
            f"defect {defect:.3e}"
        )
    stripped, _ = quotient_system(sys, nulls, tol=_INV_TOL)
    return stripped, nulls


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
    into: dict[str, list[tuple[str, np.ndarray]]] = {b: [] for b in basis}
    for (b, a), m in sys._H.items():
        into[b].append((a, m))
    changed = True
    while changed:
        changed = False
        for b, sources in into.items():
            k = basis[b].shape[1]
            if k == sys.dims[b]:
                continue
            images = [m @ basis[a] for a, m in sources if basis[a].shape[1]]
            if not images:
                continue
            q = orthonormal_columns(np.hstack([basis[b], *images]))
            if q.shape[1] > k:
                basis[b] = q
                changed = True
    return Subsystem(sys.alphabet, basis)


def _dual_system(sys: MatrixSystem) -> MatrixSystem:
    """Same spaces, adjoint transfer matrices in the reversed direction.

    A subsystem is invariant for the dual exactly when its letterwise
    orthogonal complement is invariant for the original.
    """
    H = {(a, b): m.conj().T for (b, a), m in sys._H.items()}
    B = {a: np.eye(sys.dims[a], dtype=complex) for a in sys.alphabet.letters}
    return MatrixSystem(sys.alphabet, dict(sys.dims), H, B)


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
    return invariance_defect(sys, sub) <= _INV_TOL


def _random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _random_loop_operator(
    sys: MatrixSystem, rng: np.random.Generator, a: str, length: int
) -> np.ndarray | None:
    """Product of transfer matrices along a random admissible letter path
    from ``a`` back to ``a``."""
    inv = sys.alphabet.inverse
    letters = [c for c in sys.alphabet.letters if sys.dims[c] > 0]
    path = [a]
    for _ in range(length - 1):
        options = [c for c in letters if c != inv(path[-1])]
        if not options:
            return None
        path.append(options[rng.integers(len(options))])
    if a == inv(path[-1]):
        return None
    path.append(a)
    op = np.eye(sys.dims[a], dtype=complex)
    for src, dst in zip(path, path[1:]):
        op = sys.H(dst, src) @ op
    return op


def find_proper_invariant(
    sys: MatrixSystem, max_trials: int = 50, seed: int = 0
) -> Subsystem | None:
    """Search for a proper nonzero invariant subsystem.

    Rotates through three randomized strategies: the closure of a random
    vector, the annihilator of a random dual closure, and closures of
    eigenspaces of random loop operators.  Returns ``None`` when every
    trial produces only the zero or the full subsystem; a ``None`` is the
    operational certificate of irreducibility at this trial budget.
    """
    if sys.total_dim == 0:
        raise InputError("invariant search needs a nonzero system")
    rng = np.random.default_rng(seed)
    dual = _dual_system(sys)
    letters = [a for a in sys.alphabet.letters if sys.dims[a] > 0]
    for trial in range(max_trials):
        a = letters[int(rng.integers(len(letters)))]
        mode = trial % 3
        if mode == 0:
            cand = closure_subsystem(sys, {a: _random_unit(rng, sys.dims[a])})
            if _is_proper_invariant(sys, cand):
                return cand
        elif mode == 1:
            z = closure_subsystem(dual, {a: _random_unit(rng, sys.dims[a])})
            cand = _annihilator(z, sys)
            if _is_proper_invariant(sys, cand):
                return cand
        else:
            op = _random_loop_operator(sys, rng, a, int(rng.choice([2, 4])))
            if op is None or op.shape[0] == 0:
                continue
            evals = np.linalg.eigvals(op)
            scale = max(1.0, float(np.max(np.abs(evals))))
            picked: list[complex] = []
            for lam in evals:
                if any(abs(lam - mu) <= 1e-8 * scale for mu in picked):
                    continue
                picked.append(complex(lam))
                eig = null_space(op - lam * np.eye(op.shape[0]))
                if 0 < eig.shape[1] < sys.dims[a]:
                    cand = closure_subsystem(sys, {a: eig})
                    if _is_proper_invariant(sys, cand):
                        return cand
    return None


def maximal_invariant(
    sys: MatrixSystem, max_trials: int = 50, seed: int = 0
) -> Subsystem:
    """A maximal proper invariant subsystem (the quotient is irreducible).

    Maintains a nonzero dual-invariant subsystem, repeatedly replacing it
    by a strictly smaller one as long as the quotient by its annihilator
    still has a proper invariant subsystem.  Fails with a validation error
    when the input is irreducible at this trial budget.
    """
    first = find_proper_invariant(sys, max_trials, seed)
    if first is None:
        raise ValidationError(
            "system is irreducible: no proper invariant subsystem found"
        )
    z = _annihilator(first, sys)  # dual-invariant, nonzero since first is proper
    while True:
        w = _annihilator(z, sys)
        defect = invariance_defect(sys, w)
        if defect > _INV_TOL:
            raise InternalCheckError(
                f"annihilator of a dual-invariant subsystem must be invariant; "
                f"defect {defect:.3e}"
            )
        quot, _ = quotient_system(sys, w, tol=_INV_TOL)
        if quot.total_dim == 0:
            raise InternalCheckError("maximal invariant search reached a full chain")
        finer = find_proper_invariant(quot, max_trials, seed + 1)
        if finer is None:
            return w
        # Pull the quotient's invariant subsystem back to the ambient space
        # and shrink the dual-invariant subsystem accordingly.
        comp = {
            a: orthogonal_complement(w.basis[a], sys.dims[a])
            for a in sys.alphabet.letters
        }
        pre = Subsystem.from_spanning(
            sys.alphabet,
            {
                a: np.hstack([w.basis[a], comp[a] @ finer.basis[a]])
                for a in sys.alphabet.letters
            },
        )
        new_z = _annihilator(pre, sys)
        if new_z.total_dim >= z.total_dim:
            raise InternalCheckError("dual-invariant subsystem failed to shrink")
        z = new_z


def _split_off_component(
    sys: MatrixSystem,
    w: Subsystem,
    quot: MatrixSystem,
    forms_t: dict[str, np.ndarray],
) -> tuple[MatrixSystem, SystemMap, MatrixSystem, SystemMap]:
    """Split ``sys`` (strictly positive forms, unit quotient radius) into the
    irreducible summand carried by the kernel complement and the rest.

    Returns ``(component, its embedding, remainder on w, its embedding)``.
    """
    al = sys.alphabet
    comp_basis = {a: orthogonal_complement(w.basis[a], sys.dims[a]) for a in al.letters}
    # Pull the quotient eigentuple back through the projection.
    bt = {a: comp_basis[a] @ forms_t[a] @ comp_basis[a].conj().T for a in al.letters}
    img = apply_transfer(sys, bt)
    scale_bt = max(
        (float(np.linalg.norm(x, 2)) for x in bt.values() if x.size), default=0.0
    )
    drift = max(
        (
            float(np.linalg.norm(img[a] - bt[a], 2))
            for a in al.letters
            if bt[a].size
        ),
        default=0.0,
    )
    if drift > _INV_TOL * max(1.0, scale_bt):
        raise InternalCheckError(
            f"pulled-back quotient eigentuple drifts under transfer: {drift:.3e}"
        )

    # Largest coefficient keeping B - lambda0 * bt positive semidefinite,
    # computed letterwise on the whitened pencil.
    lam_inv = 0.0
    for a in al.letters:
        if sys.dims[a] == 0 or not np.any(np.abs(bt[a]) > 1e-14 * max(1.0, scale_bt)):
            continue
        evals, vecs = np.linalg.eigh(sys.B(a))
        if evals[0] <= 0:
            raise InternalCheckError("splitting requires strictly positive forms")
        white = vecs @ np.diag(evals**-0.5) @ vecs.conj().T
        s = white @ bt[a] @ white
        lam_inv = max(lam_inv, float(np.linalg.eigvalsh((s + s.conj().T) / 2)[-1]))
    if lam_inv <= 0:
        raise InternalCheckError("quotient eigentuple pulled back to zero")
    lam0 = 1.0 / lam_inv

    # Kernel of the residual form at each letter carries the summand.
    w0 = {}
    for a in al.letters:
        resid = sys.B(a) - lam0 * bt[a]
        if resid.size == 0:
            w0[a] = np.zeros((0, 0), dtype=complex)
            continue
        evals, vecs = np.linalg.eigh((resid + resid.conj().T) / 2)
        cut = 1e-7 * max(1.0, float(np.linalg.norm(sys.B(a), 2)))
        if evals[0] < -cut * 10:
            raise InternalCheckError(
                f"residual form at {a!r} lost positivity: {evals[0]:.3e}"
            )
        w0[a] = vecs[:, np.abs(evals) <= cut]
    w0_sub = Subsystem(al, w0)
    expected = {a: quot.dims[a] for a in al.letters}
    if w0_sub.dims() != expected:
        raise InternalCheckError(
            f"kernel dimensions {w0_sub.dims()} do not match the quotient "
            f"dimensions {expected}"
        )
    defect = invariance_defect(sys, w0_sub)
    if defect > _INV_TOL:
        raise InternalCheckError(
            f"splitting kernel must be invariant; defect {defect:.3e}"
        )

    comp_H = {
        (b, a): w0[b].conj().T @ m @ w0[a] for (b, a), m in sys._H.items()
    }
    comp_B = {a: lam0 * (w0[a].conj().T @ bt[a] @ w0[a]) for a in al.letters}
    # The residual form vanishes on the kernel, so the restricted ambient
    # form must agree with the restricted pullback.
    for a in al.letters:
        direct = w0[a].conj().T @ sys.B(a) @ w0[a]
        if direct.size and np.linalg.norm(direct - comp_B[a], 2) > 1e-6 * max(
            1.0, float(np.linalg.norm(sys.B(a), 2))
        ):
            raise InternalCheckError(
                f"restricted forms disagree between the two routes at {a!r}"
            )
    component = MatrixSystem(al, dict(expected), comp_H, comp_B)
    comp_embed = SystemMap(al, w0)

    rest_H = {
        (b, a): w.basis[b].conj().T @ m @ w.basis[a]
        for (b, a), m in sys._H.items()
    }
    rest_B = {
        a: w.basis[a].conj().T @ (sys.B(a) - lam0 * bt[a]) @ w.basis[a]
        for a in al.letters
    }
    rest = MatrixSystem(al, w.dims(), rest_H, rest_B)
    rest_embed = SystemMap(al, dict(w.basis))
    return component, comp_embed, rest, rest_embed


def _decompose_rec(
    sys: MatrixSystem,
    embed: SystemMap,
    out: list[tuple[MatrixSystem, SystemMap]],
    tol: float,
    max_trials: int,
    seed: int,
) -> None:
    if sys.total_dim == 0:
        return
    if find_proper_invariant(sys, max_trials, seed) is None:
        out.append((sys, embed))
        return
    w = maximal_invariant(sys, max_trials, seed + 17)
    quot, _ = quotient_system(sys, w, tol=_INV_TOL)
    rho_t, forms_t = pf_eigenpair(quot)
    if rho_t > 1.0 + 100 * _RHO_BAND:
        raise InternalCheckError(
            f"quotient spectral radius {rho_t} exceeds one; compatible systems "
            f"cannot do that"
        )
    if rho_t >= 1.0 - _RHO_BAND:
        component, comp_embed, rest, rest_embed = _split_off_component(
            sys, w, quot, forms_t
        )
        out.append((component, embed.compose(comp_embed)))
        _decompose_rec(rest, embed.compose(rest_embed), out, tol, max_trials, seed + 1)
    else:
        # Transient quotient: all weight lives on the invariant part.
        rest, rest_embed = restrict_to_subsystem(sys, w, tol=_INV_TOL)
        _decompose_rec(rest, embed.compose(rest_embed), out, tol, max_trials, seed + 1)


def decompose(
    sys: MatrixSystem,
    tol: float = 1e-8,
    max_trials: int = 50,
    seed: int = 0,
) -> list[tuple[MatrixSystem, SystemMap]]:
    """Decompose a compatible system into irreducible compatible summands.

    Returns pairs ``(component, embedding)`` where each component is an
    irreducible system and each embedding is a letterwise isometry into the
    input system intertwining the transfer matrices.  Null directions of
    the input forms are stripped first and belong to no component.
    """
    defect = compatibility_defect(sys)
    if defect > tol:
        raise ValidationError(
            f"decomposition needs a compatible system; defect {defect:.3e}"
        )
    stripped, nulls = strip_null_directions(sys, tol)
    base = SystemMap(
        sys.alphabet,
        {
            a: orthogonal_complement(nulls.basis[a], sys.dims[a])
            for a in sys.alphabet.letters
        },
    )
    out: list[tuple[MatrixSystem, SystemMap]] = []
    _decompose_rec(stripped, base, out, tol, max_trials, seed)

    h_scale = max(
        (float(np.linalg.norm(m, 2)) for m in sys._H.values()), default=1.0
    )
    for comp, emb in out:
        cd = compatibility_defect(comp)
        if cd > max(tol, 1e-8):
            raise InternalCheckError(f"component left incompatible: defect {cd:.3e}")
        resid = map_residual(comp, sys, emb)
        if resid > _INV_TOL * max(1.0, h_scale):
            raise InternalCheckError(
                f"component embedding fails to intertwine: residual {resid:.3e}"
            )
        if comp.total_dim and find_proper_invariant(comp, max_trials, seed + 23):
            raise InternalCheckError("emitted component is reducible")
    return out
