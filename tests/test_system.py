"""Matrix-system container, compatibility defect, subsystems, and maps.

The compatibility defect is cross-checked against a summation oracle that
iterates entrywise with plain Python loops.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import (
    InputError,
    MatrixSystem,
    Subsystem,
    SystemMap,
    ValidationError,
    compatibility_defect,
    conjugate,
    direct_sum,
    invariance_defect,
    map_residual,
    quotient_system,
    restrict_to_subsystem,
    tolerances,
)
from freemult.system import (
    _blockdiag,
    _checked_form,
    _excess,
    _intertwining_excess,
    _invariance_excess,
    _is_hermitian,
    _layout,
    _snorm,
    apply_transfer,
    is_psd,
    orthogonal_complement,
)

from .conftest import (
    AB,
    _pairs,
    make_spherical,
    random_compatible,
    random_system,
    random_unitary,
)


def defect_oracle(sys):
    """Entrywise recomputation of the compatibility gap."""
    worst = 0.0
    for a in sys.alphabet.letters:
        d = sys.dims[a]
        if d == 0:
            continue
        acc = [[0j] * d for _ in range(d)]
        for b in sys.alphabet.letters:
            if b == sys.alphabet.inverse(a) or sys.dims[b] == 0:
                continue
            h = sys.H(b, a)
            bb = sys.B(b)
            for i in range(d):
                for j in range(d):
                    acc[i][j] += sum(
                        h[k, i].conjugate() * bb[k, l] * h[l, j]
                        for k in range(sys.dims[b])
                        for l in range(sys.dims[b])
                    )
        gap = sys.B(a) - np.array(acc)
        worst = max(worst, float(np.linalg.norm(gap, 2)))
    return worst


def test_spherical_fixture_compatible(spherical):
    assert compatibility_defect(spherical) <= 1e-12
    assert defect_oracle(spherical) <= 1e-12
    assert spherical.total_dim == 4


def test_spherical_fixture_compatible_complex_parameter():
    sysc = make_spherical(0.3)
    assert compatibility_defect(sysc) <= 1e-12
    assert defect_oracle(sysc) <= 1e-12


def test_defect_matches_oracle_on_random_systems(rng):
    for _ in range(10):
        sys0 = random_system(rng, max_dim=3)
        assert compatibility_defect(sys0) == pytest.approx(
            defect_oracle(sys0), abs=1e-10
        )


def test_direct_sum_of_spherical(spherical):
    two = direct_sum(spherical, make_spherical(0.3))
    assert two.dims == {a: 2 for a in AB.letters}
    assert compatibility_defect(two) <= 1e-12
    h = two.H("b", "a")
    assert h[0, 1] == 0 and h[1, 0] == 0


def test_construction_validation(spherical):
    dims = {a: 1 for a in AB.letters}
    B = {a: np.eye(1) for a in AB.letters}
    with pytest.raises(InputError):
        MatrixSystem(AB, {"a": 1, "A": 1, "b": 1}, {}, B)
    with pytest.raises(InputError):
        MatrixSystem(AB, {a: -1 for a in AB.letters}, {}, B)
    with pytest.raises(ValidationError):
        MatrixSystem(AB, dims, {("A", "a"): [[1.0]]}, B)  # inverse pair
    with pytest.raises(ValidationError):
        MatrixSystem(AB, dims, {}, {a: [[-1.0]] for a in AB.letters})  # not PSD
    with pytest.raises(ValidationError):
        MatrixSystem(
            AB,
            {a: 2 for a in AB.letters},
            {},
            {a: [[0, 1], [0, 0]] for a in AB.letters},  # not Hermitian
        )
    with pytest.raises(InputError):
        MatrixSystem(AB, dims, {("b", "a"): [[1, 2]]}, B)  # wrong shape


def test_zero_dimensional_letters_allowed():
    dims = {"a": 1, "A": 1, "b": 0, "B": 0}
    H = {("a", "a"): [[1.0]], ("A", "A"): [[1.0]]}
    B = {"a": [[1.0]], "A": [[1.0]], "b": np.zeros((0, 0)), "B": np.zeros((0, 0))}
    sys0 = MatrixSystem(AB, dims, H, B)
    assert sys0.total_dim == 2
    assert sys0.H("b", "a").shape == (0, 1)
    assert compatibility_defect(sys0) <= 1e-12


def test_subsystem_invariance(spherical):
    full = Subsystem(AB, {a: np.eye(1) for a in AB.letters})
    assert invariance_defect(spherical, full) <= 1e-9
    zero = Subsystem(AB, {a: np.zeros((1, 0)) for a in AB.letters})
    assert zero.is_zero() and invariance_defect(spherical, zero) <= 1e-9

    two = direct_sum(spherical, make_spherical(0.3))
    first = Subsystem(AB, {a: np.array([[1.0], [0.0]]) for a in AB.letters})
    assert invariance_defect(two, first) <= 1e-12
    tilted = Subsystem.from_spanning(
        AB, {a: np.array([[1.0], [1.0]]) for a in AB.letters}
    )
    assert invariance_defect(two, tilted) > 1e-3


def test_restrict_and_quotient(spherical):
    two = direct_sum(spherical, make_spherical(0.3))
    first = Subsystem(AB, {a: np.array([[1.0], [0.0]]) for a in AB.letters})

    restricted, emb = restrict_to_subsystem(two, first)
    assert restricted.dims == {a: 1 for a in AB.letters}
    assert restricted.close_to(spherical)
    assert map_residual(restricted, two, emb) <= 1e-12

    quot, proj = quotient_system(two, first)
    assert quot.dims == {a: 1 for a in AB.letters}
    assert quot.close_to(make_spherical(0.3))
    assert map_residual(two, quot, proj) <= 1e-12

    with pytest.raises(ValidationError):
        restrict_to_subsystem(
            two,
            Subsystem.from_spanning(
                AB, {a: np.array([[1.0], [1.0]]) for a in AB.letters}
            ),
        )


def test_conjugation_by_random_unitaries(rng):
    sys0 = random_compatible(rng)
    J = SystemMap(
        AB, {a: random_unitary(rng, sys0.dims[a]) for a in AB.letters}
    )
    assert J.is_unitary()
    out = conjugate(sys0, J)
    assert compatibility_defect(out) <= 1e-10
    assert map_residual(sys0, out, J) <= 1e-10
    # composing with the adjoint gives the identity map
    Jinv = SystemMap(AB, {a: J[a].conj().T for a in AB.letters})
    assert J.compose(Jinv).is_unitary()
    back = conjugate(out, Jinv)
    assert back.close_to(sys0, tol=1e-9)


def test_conjugate_rejects_non_unitary(spherical):
    J = SystemMap(AB, {a: np.array([[2.0]]) for a in AB.letters})
    with pytest.raises(ValidationError):
        conjugate(spherical, J)


def test_map_residual_shape_check(spherical):
    two = direct_sum(spherical, spherical)
    J = SystemMap(AB, {a: np.eye(1) for a in AB.letters})
    with pytest.raises(InputError):
        map_residual(spherical, two, J)


# ------------------------------------------- block storage against per-pair loops
#
# The per-pair loops below are the dict-based implementations that the block
# expressions replaced, kept as references.


def ref_apply_transfer(sys, forms):
    out = {a: np.zeros((sys.dims[a],) * 2, dtype=complex) for a in sys.alphabet.letters}
    for b, a in sys.stored_pairs():
        m = sys.H(b, a)
        out[a] += m.conj().T @ forms[b] @ m
    return out


def ref_compatibility_defect(sys):
    img = ref_apply_transfer(sys, {a: sys.B(a) for a in sys.alphabet.letters})
    return max(
        (np.linalg.norm(sys.B(a) - img[a], 2) for a in img if sys.dims[a]),
        default=0.0,
    )


def ref_invariance_defect(sys, sub):
    worst = 0.0
    for b, a in sys.stored_pairs():
        m, w, q = sys.H(b, a), sub.basis[a], sub.basis[b]
        if w.shape[1] == 0 or m.shape[0] == 0:
            continue
        img = m @ w
        resid = img - q @ (q.conj().T @ img)
        scale = max(1.0, np.linalg.norm(m, 2))
        worst = max(worst, np.linalg.norm(resid, 2) / scale)
    return worst


def parent_invariance_defect(sys, sub):
    """``invariance_defect`` as it was before the block norms were kept on
    the system: every call takes the norm of every stored block again."""
    w = _blockdiag([sub.basis[a] for a in sys.alphabet.letters])
    img = sys._H @ w
    resid = img - w @ (w.conj().T @ img)
    rows, cols = sys._slices, _layout(sys.alphabet, sub.dims())
    worst = 0.0
    for b, a in sys.stored_pairs():
        r = resid[rows[b], cols[a]]
        if r.size:
            scale = max(1.0, float(np.linalg.norm(sys.H(b, a), 2)))
            worst = max(worst, float(np.linalg.norm(r, 2)) / scale)
    return worst


def ref_map_residual(source, target, J):
    worst = 0.0
    for b, a in source.pairs():
        lhs = target.H(b, a) @ J[a]
        if lhs.size:
            worst = max(worst, np.linalg.norm(lhs - J[b] @ source.H(b, a), 2))
    return worst


def parent_map_residual(source, target, J):
    """``map_residual`` as it was before its residual array was shared with
    ``decompose``."""
    j = _blockdiag([J[a] for a in source.alphabet.letters])
    resid = target._H @ j - j @ source._H
    rows, cols = target._slices, source._slices
    return max(
        (
            float(np.linalg.norm(resid[rows[b], cols[a]], 2))
            for b, a in source.pairs()
            if target.dims[b] and source.dims[a]
        ),
        default=0.0,
    )


def ref_compress(sys, basis):
    """``(H, B)`` dicts of ``Q* H Q`` and ``Q* B Q``, pair by pair."""
    H = {
        (b, a): basis[b].conj().T @ sys.H(b, a) @ basis[a]
        for b, a in sys.stored_pairs()
    }
    B = {a: basis[a].conj().T @ sys.B(a) @ basis[a] for a in sys.alphabet.letters}
    return H, B


def ref_direct_sum(s1, s2):
    H, B = {}, {}
    for b, a in s1.pairs():
        m = np.zeros((s1.dims[b] + s2.dims[b], s1.dims[a] + s2.dims[a]), dtype=complex)
        m[: s1.dims[b], : s1.dims[a]] = s1.H(b, a)
        m[s1.dims[b] :, s1.dims[a] :] = s2.H(b, a)
        H[(b, a)] = m
    for a in s1.alphabet.letters:
        B[a] = np.zeros((s1.dims[a] + s2.dims[a],) * 2, dtype=complex)
        B[a][: s1.dims[a], : s1.dims[a]] = s1.B(a)
        B[a][s1.dims[a] :, s1.dims[a] :] = s2.B(a)
    return H, B


def close(got, want, tol=1e-12):
    scale = max(1.0, np.linalg.norm(want))
    return np.linalg.norm(np.asarray(got) - want) <= tol * scale


def same_system(sys, H, B, tol=1e-12):
    return all(
        close(sys.H(b, a), H.get((b, a), np.zeros(sys.H(b, a).shape)), tol)
        for b, a in sys.pairs()
    ) and all(close(sys.B(a), B[a], tol) for a in sys.alphabet.letters)


def cmat(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def psd(rng, d):
    g = cmat(rng, d, d)
    b = g @ g.conj().T
    return (b + b.conj().T) / 2  # exactly Hermitian


def pair_dicts(rng, dims, present):
    """Random transfers at the present admissible pairs and random forms."""
    H = {
        (b, a): cmat(rng, dims[b], dims[a]) / 2
        for (b, a), keep in zip(_pairs(AB), present)
        if keep
    }
    return H, {a: psd(rng, dims[a]) for a in AB.letters}


blocks = st.tuples(
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.booleans(), min_size=12, max_size=12),
    st.integers(0, 2**32 - 1),
)


@given(blocks)
@settings(max_examples=60, deadline=None)
def test_block_storage_matches_per_pair_reference(case):
    dim_list, present, seed = case
    rng = np.random.default_rng(seed)
    dims = dict(zip(AB.letters, dim_list))
    H, B = pair_dicts(rng, dims, present)
    sys0 = MatrixSystem(AB, dims, H, B)

    # views round-trip the input exactly and cannot be written
    assert set(sys0.stored_pairs()) == {p for p, m in H.items() if m.size}
    for b, a in sys0.pairs():
        want = H.get((b, a), np.zeros((dims[b], dims[a])))
        assert np.array_equal(sys0.H(b, a), want)
    assert not sys0.H(AB.inverse("a"), "a").any()
    for a in AB.letters:
        assert np.array_equal(sys0.B(a), B[a])
    for view in [sys0.H(b, a) for b, a in sys0.stored_pairs()] + [
        sys0.B(a) for a in AB.letters if dims[a]
    ]:
        with pytest.raises(ValueError):
            view[0, 0] = 1.0

    forms = {a: psd(rng, dims[a]) for a in AB.letters}
    got, want = apply_transfer(sys0, forms), ref_apply_transfer(sys0, forms)
    assert all(close(got[a], want[a]) for a in AB.letters)
    assert close(compatibility_defect(sys0), ref_compatibility_defect(sys0))

    # an invariant subsystem: the first k_a coordinates of a block upper
    # triangular system, rotated by letterwise unitaries
    k = {a: int(rng.integers(0, dims[a] + 1)) for a in AB.letters}
    U = {a: random_unitary(rng, dims[a]) for a in AB.letters}
    tri = {}
    for (b, a), m in H.items():
        m = m.copy()
        m[k[b] :, : k[a]] = 0
        tri[(b, a)] = U[b] @ m @ U[a].conj().T
    sys1 = MatrixSystem(AB, dims, tri, B)
    sub = Subsystem(AB, {a: U[a][:, : k[a]] for a in AB.letters})
    loose = Subsystem.from_spanning(
        AB, {a: cmat(rng, dims[a], min(1, dims[a])) for a in AB.letters}
    )
    for s, w in ((sys1, sub), (sys0, loose)):
        assert close(invariance_defect(s, w), ref_invariance_defect(s, w))
        assert invariance_defect(s, w) == parent_invariance_defect(s, w)
    assert invariance_defect(sys1, sub) <= 1e-9

    restricted, emb = restrict_to_subsystem(sys1, sub)
    assert same_system(restricted, *ref_compress(sys1, sub.basis))
    assert all(np.array_equal(emb[a], sub.basis[a]) for a in AB.letters)
    quot, proj = quotient_system(sys1, sub)
    comp = {a: orthogonal_complement(sub.basis[a], dims[a]) for a in AB.letters}
    assert same_system(quot, *ref_compress(sys1, comp))
    assert all(np.array_equal(proj[a], comp[a].conj().T) for a in AB.letters)

    J = SystemMap(AB, U)
    conj = conjugate(sys0, J)
    adjoints = {a: U[a].conj().T for a in AB.letters}
    assert same_system(conj, *ref_compress(sys0, adjoints))

    two_dims = {a: 2 for a in AB.letters}
    other = MatrixSystem(AB, two_dims, *pair_dicts(rng, two_dims, present))
    J2 = SystemMap(AB, {a: cmat(rng, 2, dims[a]) for a in AB.letters})
    assert close(map_residual(sys0, other, J2), ref_map_residual(sys0, other, J2))
    assert close(map_residual(sys0, conj, J), ref_map_residual(sys0, conj, J))

    two = direct_sum(sys1, other)
    assert same_system(two, *ref_direct_sum(sys1, other))


def test_block_norms_are_taken_once_per_system(rng, monkeypatch):
    sys0 = random_system(rng)
    sub = Subsystem.from_spanning(
        AB, {a: cmat(rng, sys0.dims[a], 1) for a in AB.letters}
    )
    want = parent_invariance_defect(sys0, sub)
    shapes = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    assert invariance_defect(sys0, sub) == want
    first = len(shapes)
    assert invariance_defect(sys0, sub) == want
    # the second call takes one norm per residual block and no block norm
    stored = len(sys0.stored_pairs())
    assert (first, len(shapes) - first) == (2 * stored, stored)


# ------------------------------------------ Hermitian check against the SVD test


def ref_is_hermitian(m, tol):
    """The test before the Frobenius shortcut: both 2-norms, always."""
    return bool(
        np.linalg.norm(m - m.conj().T, 2) <= tol * max(1.0, np.linalg.norm(m, 2))
    )


def ref_is_psd(m, tol):
    if not ref_is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(w[0] >= -tol * max(1.0, float(w[-1])))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 6),
    skew=st.floats(-14.0, -10.0),
    scale=st.floats(-3.0, 3.0),
    tol=st.sampled_from([1e-12, 1e-9]),
)
def test_hermitian_shortcut_keeps_every_decision(seed, d, skew, scale, tol):
    # A positive semidefinite part of 2-norm 10**scale (below and above one)
    # plus a skew-Hermitian part of 10**skew of it: the shortcut and the old
    # test agree, and so do is_psd and the form check built on them.
    rng = np.random.default_rng(seed)
    h, k = psd(rng, d), cmat(rng, d, d)
    h = h * 10.0**scale / np.linalg.norm(h, 2)
    k = k - k.conj().T
    if np.linalg.norm(k) > 0:
        k = k * 10.0 ** (scale + skew) / np.linalg.norm(k, 2)
    m = h + k
    assert _is_hermitian(m, tol) == ref_is_hermitian(m, tol)
    assert is_psd(m, tol) == ref_is_psd(m, tol)
    try:
        _checked_form(m, "a")
        accepted = True
    except ValidationError:
        accepted = False
    want = ref_is_hermitian(m, 1e-12) and ref_is_psd((m + m.conj().T) / 2, 1e-9)
    assert accepted == want


def test_hermitian_forms_take_no_spectral_norm(rng, monkeypatch):
    # Exactly Hermitian forms pass the Hermitian checks of construction on
    # their Frobenius norm; the old test took two 2-norms per check.
    dims = {a: 3 for a in AB.letters}
    H = {(b, a): cmat(rng, 3, 3) for b, a in _pairs(AB)}
    B = {a: psd(rng, 3) for a in AB.letters}
    orders = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        orders.append(args[0] if args else kwargs.get("ord"))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    MatrixSystem(AB, dims, H, B)
    assert orders and 2 not in orders


# ------------------------------ Frobenius-first tolerance tests against the SVD


def scaled(m, norm):
    """``m`` rescaled to the given 2-norm (zero stays zero)."""
    n = np.linalg.norm(m, 2) if m.size else 0.0
    return m * (norm / n) if n else m


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim_list=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    defect=st.floats(-3.0, 3.0),
    scale=st.floats(-3.0, 3.0),
    tol=st.sampled_from(
        [tolerances.INVARIANT_TOL, tolerances.DECOMPOSE_INV_TOL, tolerances.ROUTE_RTOL]
    ),
)
def test_frobenius_first_keeps_every_decision(seed, dim_list, defect, scale, tol):
    # Residuals of about 10**defect times the tolerance over scales (block
    # norms, form norms) of 10**scale: each check that first tests the
    # Frobenius norm of its residual decides as the 2-norm test before it
    # did, and reports the same value when it fails.
    rng = np.random.default_rng(seed)
    dims = dict(zip(AB.letters, dim_list))
    size, s = tol * 10.0**defect, 10.0**scale

    # invariance: the first k_a coordinates of a block upper triangular
    # system, rotated, with the blocks that leave them perturbed
    k = {a: int(rng.integers(0, dims[a] + 1)) for a in AB.letters}
    U = {a: random_unitary(rng, dims[a]) for a in AB.letters}
    H = {}
    for b, a in _pairs(AB):
        m = scaled(cmat(rng, dims[b], dims[a]), s)
        m[k[b] :, : k[a]] = scaled(
            cmat(rng, dims[b] - k[b], k[a]), size * max(1.0, s) * rng.uniform(0.5, 1)
        )
        H[(b, a)] = U[b] @ m @ U[a].conj().T
    sys0 = MatrixSystem(AB, dims, H, {a: np.eye(dims[a]) for a in AB.letters})
    sub = Subsystem(AB, {a: U[a][:, : k[a]] for a in AB.letters})
    want = parent_invariance_defect(sys0, sub)
    assert _invariance_excess(sys0, sub, tol) == (want if want > tol else None)
    try:
        restrict_to_subsystem(sys0, sub, tol)
        accepted = True
    except ValidationError:
        accepted = False
    assert accepted == (want <= tol)

    # drift (a block-diagonal array against the 2-norm of another) and the
    # route check (one block against a form's 2-norm)
    drift = _blockdiag(
        [scaled(cmat(rng, d, d), size * rng.uniform(0.5, 1)) for d in dim_list]
    )
    route = scaled(cmat(rng, max(dim_list), max(dim_list)), size)
    for x in (drift, route):
        got = _excess(x, tol, lambda: _snorm(x), lambda: s)
        want = np.linalg.norm(x, 2) if x.size else 0.0
        assert got == (want if want > tol * max(1.0, s) else None)

    # intertwining: a conjugate of sys0 with its blocks perturbed, against
    # the largest block norm of the target
    J = SystemMap(AB, U)
    conj = conjugate(sys0, J)
    noisy = {
        (b, a): conj.H(b, a) + scaled(cmat(rng, dims[b], dims[a]), size * max(1.0, s))
        for b, a in _pairs(AB)
    }
    target = MatrixSystem(AB, dims, noisy, {a: np.eye(dims[a]) for a in AB.letters})
    want = parent_map_residual(sys0, target, J)
    assert map_residual(sys0, target, J) == want
    h_scale = max(target._block_norms().values(), default=1.0)
    got = _intertwining_excess(sys0, target, J, tol, lambda: h_scale)
    assert got == (want if want > tol * max(1.0, h_scale) else None)
