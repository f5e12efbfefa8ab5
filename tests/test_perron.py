"""Leading eigenvalue and eigenforms of the one-step transfer map.

The oracle assembles the full complex matrix of the map on stacked
row-major vectorizations (one Kronecker block per letter pair) and takes
the largest eigenvalue modulus.  This shares no code with the production
path, which certifies the radius by a power iteration in the cone of
positive semidefinite tuples and falls back to a dense solver on a real
coordinatization of Hermitian tuples.  The tests below also pin which of
the two paths answers, by counting calls to ``transfer_matrix``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freemult import (
    MatrixSystem,
    NumericError,
    SystemMap,
    ValidationError,
    apply_transfer,
    compatibility_defect,
    conjugate,
    direct_sum,
    normalize_to_compatible,
    pf_eigenpair,
    perron,
    tolerances,
    transfer_matrix,
)
from freemult.system import _blockdiag, _transfer, is_psd

from .conftest import AB, _pairs, make_spherical, random_system, random_unitary
from .test_system import close, psd, ref_apply_transfer, ref_compatibility_defect


def dense_rho_oracle(sys):
    """Spectral radius from the dense vectorized transfer matrix."""
    letters = [a for a in sys.alphabet.letters if sys.dims[a] > 0]
    offsets = {}
    total = 0
    for a in letters:
        offsets[a] = total
        total += sys.dims[a] ** 2
    if total == 0:
        return 0.0
    M = np.zeros((total, total), dtype=complex)
    for a in letters:
        for b in letters:
            if b == sys.alphabet.inverse(a):
                continue
            h = sys.H(b, a)
            block = np.kron(h.conj().T, h.T)
            M[
                offsets[a] : offsets[a] + sys.dims[a] ** 2,
                offsets[b] : offsets[b] + sys.dims[b] ** 2,
            ] += block
    return float(np.abs(np.linalg.eigvals(M)).max())


def test_spherical_rho_is_one():
    for s in (0.0, 0.3):
        rho, forms = pf_eigenpair(make_spherical(s))
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert all(np.linalg.eigvalsh(forms[a]).min() >= -1e-12 for a in AB.letters)


def test_oracle_agreement_on_random_systems(rng):
    for _ in range(50):
        sys0 = random_system(rng, max_dim=3)
        rho, forms = pf_eigenpair(sys0)
        assert rho == pytest.approx(dense_rho_oracle(sys0), abs=1e-8)
        # the returned tuple is a genuine eigen-tuple
        out = apply_transfer(sys0, forms)
        gap = max(
            float(np.linalg.norm(out[a] - rho * forms[a], 2)) for a in AB.letters
        )
        assert gap <= 1e-7 * max(1.0, rho)


def test_eigenforms_are_normalized_psd(rng):
    sys0 = random_system(rng)
    rho, forms = pf_eigenpair(sys0)
    trace = sum(float(np.trace(forms[a]).real) for a in AB.letters)
    assert trace == pytest.approx(1.0, abs=1e-9)
    for a in AB.letters:
        m = forms[a]
        assert np.linalg.norm(m - m.conj().T) <= 1e-10
        assert np.linalg.eigvalsh(m).min() >= -1e-10


def test_scalar_system_formula(rng):
    # all dims one, every admissible transfer the same scalar h:
    # the transfer map multiplies constants by (2k-1)|h|^2
    for h in (3 ** -0.5, 0.4 + 0.3j, 1.7):
        H = {
            (b, a): [[h]]
            for a in AB.letters
            for b in AB.letters
            if b != AB.inverse(a)
        }
        sys0 = MatrixSystem(
            AB, {a: 1 for a in AB.letters}, H, {a: [[1.0]] for a in AB.letters}
        )
        rho, _ = pf_eigenpair(sys0)
        assert rho == pytest.approx(3 * abs(h) ** 2, rel=1e-9)


def test_nilpotent_system_has_rho_zero():
    # the only transfer goes a -> b and nothing leaves b: two steps kill
    # everything, so the spectral radius vanishes
    dims = {a: 1 for a in AB.letters}
    sys0 = MatrixSystem(
        AB, dims, {("b", "a"): [[1.0]]}, {a: [[1.0]] for a in AB.letters}
    )
    rho, forms = pf_eigenpair(sys0)
    assert rho == pytest.approx(0.0, abs=1e-9)
    out = apply_transfer(sys0, forms)
    assert max(np.linalg.norm(out[a]) for a in AB.letters) <= 1e-9


def test_transfer_matrix_spectrum_matches_oracle(rng):
    sys0 = random_system(rng)
    M, layout = transfer_matrix(sys0)
    rho_layout = float(np.abs(np.linalg.eigvals(M)).max())
    assert rho_layout == pytest.approx(dense_rho_oracle(sys0), abs=1e-9)


def test_normalize_to_compatible(rng):
    for _ in range(5):
        sys0 = random_system(rng)
        out, rho = normalize_to_compatible(sys0)
        assert rho == pytest.approx(dense_rho_oracle(sys0), abs=1e-8)
        assert compatibility_defect(out) <= 1e-9
        rho_out, _ = pf_eigenpair(out)
        assert rho_out == pytest.approx(1.0, abs=1e-8)
        for b, a in sys0.pairs():
            assert np.allclose(out.H(b, a), sys0.H(b, a) / np.sqrt(rho))


def test_normalize_rejects_degenerate():
    dims = {a: 1 for a in AB.letters}
    dead = MatrixSystem(
        AB, dims, {("b", "a"): [[1.0]]}, {a: [[1.0]] for a in AB.letters}
    )
    with pytest.raises(ValidationError):
        normalize_to_compatible(dead)


def gaussian_system(rng, dims, pairs=None):
    """Complex Gaussian transfers on ``pairs`` (all admissible ones by
    default), identity forms; zero-dimensional letters are allowed."""
    H = {}
    for b, a in pairs or _pairs(AB):
        m = rng.standard_normal((dims[b], dims[a]))
        m = m + 1j * rng.standard_normal((dims[b], dims[a]))
        H[(b, a)] = m / np.sqrt(3.0 * max(dims[b], 1))
    return MatrixSystem(AB, dims, H, {a: np.eye(dims[a]) for a in AB.letters})


def reference_to_vector(sys, forms):
    """Per-entry Hermitian coordinates: per letter the diagonal, then the
    real and imaginary part of each upper entry, row by row."""
    v = []
    for a in sys.alphabet.letters:
        x = np.asarray(forms[a])
        d = sys.dims[a]
        v.extend(x[i, i].real for i in range(d))
        for i in range(d):
            for j in range(i + 1, d):
                v.extend((x[i, j].real, x[i, j].imag))
    return np.array(v, dtype=float)


def reference_from_vector(sys, v):
    out, k = {}, 0
    for a in sys.alphabet.letters:
        d = sys.dims[a]
        x = np.zeros((d, d), dtype=complex)
        for i in range(d):
            x[i, i] = v[k]
            k += 1
        for i in range(d):
            for j in range(i + 1, d):
                x[i, j] = v[k] + 1j * v[k + 1]
                x[j, i] = v[k] - 1j * v[k + 1]
                k += 2
        out[a] = x
    return out


def reference_transfer_matrix(sys):
    """One ``apply_transfer`` per Hermitian basis vector, through the
    per-entry coordinates."""
    n = sum(d * d for d in sys.dims.values())
    m = np.zeros((n, n))
    for k, e in enumerate(np.eye(n)):
        m[:, k] = reference_to_vector(
            sys, apply_transfer(sys, reference_from_vector(sys, e))
        )
    return m


def test_transfer_matrix_matches_reference_on_mixed_dims(rng):
    for _ in range(12):
        dims = {a: int(rng.integers(0, 6)) for a in AB.letters}
        if not any(dims.values()):
            continue
        sys0 = gaussian_system(rng, dims)
        M, layout = transfer_matrix(sys0)
        ref = reference_transfer_matrix(sys0)
        assert M.shape == ref.shape
        assert np.max(np.abs(M - ref), initial=0.0) <= 1e-13 * max(
            1.0, np.max(np.abs(ref), initial=0.0)
        )
        # the coordinates of block-diagonal arrays agree with the per-entry
        # loops on the blocks
        forms = apply_transfer(sys0, {a: np.eye(dims[a]) for a in AB.letters})
        v = layout.to_vector(_blockdiag([forms[a] for a in AB.letters]))
        assert np.array_equal(v, reference_to_vector(sys0, forms))
        back = layout.from_vector(v)
        ref_back = reference_from_vector(sys0, v)
        assert np.array_equal(back, _blockdiag([ref_back[a] for a in AB.letters]))


class CountDense:
    """Counts the dense fallback through a patched ``transfer_matrix``."""

    def __init__(self, mp):
        self.calls = 0
        inner = perron.transfer_matrix

        def counted(sys):
            self.calls += 1
            return inner(sys)

        mp.setattr(perron, "transfer_matrix", counted)


def assert_eigenpair(sys0, rho, forms):
    assert rho == pytest.approx(dense_rho_oracle(sys0), abs=1e-9)
    assert sum(np.trace(x).real for x in forms.values()) == pytest.approx(1.0)
    for x in forms.values():
        assert np.linalg.eigvalsh(x).min(initial=0.0) >= -1e-9
    out = apply_transfer(sys0, forms)
    assert max(np.linalg.norm(out[a] - rho * forms[a]) for a in AB.letters) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.fixed_dictionaries({a: st.integers(1, 8) for a in AB.letters}),
)
def test_certified_rho_matches_dense_oracle(seed, dims):
    sys0 = gaussian_system(np.random.default_rng(seed), dims)
    with pytest.MonkeyPatch.context() as mp:
        dense = CountDense(mp)
        rho, forms = pf_eigenpair(sys0)
    assert dense.calls == 0, "the cone iteration did not certify"
    want = dense_rho_oracle(sys0)
    assert abs(rho - want) <= 1e-10 * max(1.0, want)
    assert_eigenpair(sys0, rho, forms)


def nilpotent_system():
    # the only transfer goes a -> b and nothing leaves b
    dims = {a: 1 for a in AB.letters}
    return MatrixSystem(
        AB, dims, {("b", "a"): [[1.0]]}, {a: [[1.0]] for a in AB.letters}
    )


def singular_eigentuple_system():
    # upper-triangular transfers leave the first coordinate line invariant;
    # the quotient grows faster (3 * 0.6**2 against 3 * 0.3**2), so the
    # leading eigentuple is pulled back from it and kills that line
    H = {(b, a): np.array([[0.3, 0.5], [0.0, 0.6]]) for b, a in _pairs(AB)}
    return MatrixSystem(
        AB, {a: 2 for a in AB.letters}, H, {a: np.eye(2) for a in AB.letters}
    )


def bipartite_system():
    # transfers only between {a, A} and {b, B}: the operator swaps the two
    # halves of a tuple, so -rho is an eigenvalue too and the iterates
    # alternate without converging
    rng = np.random.default_rng(5)
    halves = ({"a", "A"}, {"b", "B"})
    pairs = [(b, a) for b, a in _pairs(AB) if (a in halves[0]) != (b in halves[0])]
    return gaussian_system(rng, {"a": 2, "A": 1, "b": 2, "B": 3}, pairs)


def test_fallback_on_nilpotent_system(monkeypatch):
    sys0 = nilpotent_system()
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(sys0)
    assert dense.calls == 1
    assert rho == 0.0
    assert_eigenpair(sys0, rho, forms)


def test_fallback_on_singular_eigentuple(monkeypatch):
    sys0 = singular_eigentuple_system()
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(sys0)
    assert dense.calls == 1
    assert rho == pytest.approx(3 * 0.36, abs=1e-12)
    assert_eigenpair(sys0, rho, forms)
    for x in forms.values():
        assert abs(x[0, 0]) <= 1e-9


def test_fallback_on_bipartite_system(monkeypatch):
    sys0 = bipartite_system()
    mat, _ = transfer_matrix(sys0)
    evals = np.linalg.eigvals(mat)
    rho_want = dense_rho_oracle(sys0)
    assert np.min(np.abs(evals + rho_want)) <= 1e-9 * rho_want
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(sys0)
    assert dense.calls == 1
    assert_eigenpair(sys0, rho, forms)


# ------------------------------------ block-diagonal cone iteration against letters


def reference_rebased(sys, x):
    """``sys`` in the basis that makes the definite form tuple ``x`` the
    identity, built pair by pair: ``r_b H(b,a) r_a^{-1}`` with
    ``r_a = W^{1/2} V*`` for ``x_a = V W V*``; also the factors ``r``."""
    r, s = {}, {}
    for a in sys.alphabet.letters:
        w, v = np.linalg.eigh(x[a])
        root = np.sqrt(w)
        r[a], s[a] = root[:, None] * v.conj().T, v / root
    H = {(b, a): r[b] @ sys.H(b, a) @ s[a] for b, a in sys.stored_pairs()}
    eye = {a: np.eye(sys.dims[a]) for a in sys.alphabet.letters}
    return MatrixSystem(sys.alphabet, sys.dims, H, eye), r


def reference_cone_eigenpair(sys, tol=1e-9, rebase=True):
    """The per-letter cone iteration that the block-diagonal one replaced:
    an ``eigh`` and an ``eigvalsh`` per letter and iteration, a letterwise
    singular test and per-letter certificate checks.  ``None`` where it
    hands over to the dense solver.

    When the bracket first comes within ``REBASE_RTOL``, at an iterate
    whose condition number (largest eigenvalue over smallest, over all
    letters) times ``eps`` exceeds ``BRACKET_RTOL``, it goes on from the
    identity on the system rebased at that iterate (``reference_rebased``)
    and maps a certified iterate back; with ``rebase=False`` it never does,
    as the per-letter loop did."""
    letters = [a for a in sys.alphabet.letters if sys.dims[a] > 0]
    x = {a: np.eye(sys.dims[a], dtype=complex) for a in sys.alphabet.letters}
    base, back, near = sys, None, False
    for _ in range(perron._CONE_ITERATIONS):
        y = ref_apply_transfer(base, x)
        lo, hi = np.inf, 0.0
        wmin, wmax = np.inf, 0.0
        for a in letters:
            w, v = np.linalg.eigh(x[a])
            if w[0] <= tolerances.DEFINITE_RTOL * w[-1]:
                return None
            wmin, wmax = min(wmin, w[0]), max(wmax, w[-1])
            s = v / np.sqrt(w)
            e = np.linalg.eigvalsh(s.conj().T @ y[a] @ s)
            lo, hi = min(lo, e[0]), max(hi, e[-1])
        if hi - lo <= tolerances.BRACKET_RTOL * hi:
            rho = (lo + hi) / 2
            if rho <= tol:
                return None
            if back is not None:
                x = {a: back[a].conj().T @ m @ back[a] for a, m in x.items()}
            forms = {a: (m + m.conj().T) / 2 for a, m in x.items()}
            t = sum(np.trace(m).real for m in forms.values())
            forms = {a: m / t for a, m in forms.items()}
            scale = max(np.linalg.norm(forms[a], 2) for a in letters)
            img = ref_apply_transfer(sys, forms)
            resid = max(np.linalg.norm(img[a] - rho * forms[a], 2) for a in letters)
            psd_tol = tolerances.EIGENTUPLE_PSD_TOL
            if all(is_psd(m / scale, psd_tol) for m in forms.values()) and (
                resid / scale <= max(tol, tolerances.RESIDUAL_FLOOR) * max(1.0, rho)
            ):
                return float(rho), forms
            return None
        if not near and hi - lo <= tolerances.REBASE_RTOL * hi:
            near = True
            if rebase and wmax / wmin * np.finfo(float).eps > tolerances.BRACKET_RTOL:
                base, back = reference_rebased(sys, x)
                x = {a: np.eye(d, dtype=complex) for a, d in sys.dims.items()}
                continue
        t = sum(np.trace(m).real for m in y.values())
        if not t > 0:
            return None
        x = {a: m / t for a, m in y.items()}
    return None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.fixed_dictionaries({a: st.integers(0, 8) for a in AB.letters}),
)
def test_block_cone_matches_per_letter_reference(seed, dims):
    if not any(dims.values()):
        return
    rng = np.random.default_rng(seed)
    sys0 = gaussian_system(rng, dims)

    # the dict wrappers against the per-pair loops, on the same system
    forms = {a: psd(rng, dims[a]) for a in AB.letters}
    got, want = apply_transfer(sys0, forms), ref_apply_transfer(sys0, forms)
    assert all(close(got[a], want[a]) for a in AB.letters)
    assert close(compatibility_defect(sys0), ref_compatibility_defect(sys0))

    got = perron._cone_eigenpair(sys0, 1e-9)
    want = reference_cone_eigenpair(sys0)
    assert (got is None) == (want is None)
    if got is None:
        return
    (rho, x), (rho_ref, ref) = got, want
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref
    for a, s in sys0._slices.items():
        assert np.linalg.norm(x[s, s] - ref[a]) <= 1e-9
    assert not np.any(x[~sys0._same])


def test_singular_test_is_global(monkeypatch):
    """A letter whose outgoing transfers are scaled by ``eps`` carries a form
    about ``eps**2`` of the others'.  At 1e-4 the cone iteration still
    certifies; at 1e-6 the form falls below ``DEFINITE_RTOL`` of the
    largest eigenvalue of the whole iterate and the dense solver answers."""
    rng = np.random.default_rng(17)
    dims = {a: 3 for a in AB.letters}
    base = gaussian_system(rng, dims)
    for eps, calls in ((1e-4, 0), (1e-6, 1)):
        H = {
            (b, a): base.H(b, a) * (eps if a == "a" else 1.0)
            for b, a in base.stored_pairs()
        }
        sys0 = MatrixSystem(AB, dims, H, {a: np.eye(3) for a in AB.letters})
        with pytest.MonkeyPatch.context() as mp:
            dense = CountDense(mp)
            rho, forms = pf_eigenpair(sys0)
        assert dense.calls == calls
        assert_eigenpair(sys0, rho, forms)
        faint = np.linalg.norm(forms["a"], 2)
        assert faint <= 10 * eps**2 * max(np.linalg.norm(forms[b], 2) for b in "AbB")
        if calls == 0:
            rho_ref, ref = reference_cone_eigenpair(sys0)
            assert abs(rho - rho_ref) <= 1e-12 * rho_ref
            assert all(np.linalg.norm(forms[a] - ref[a]) <= 1e-9 for a in AB.letters)


def test_block_cone_certifies_where_per_letter_reference_stalls():
    """Without the rebase, the per-letter reference's bracket stalls above
    ``BRACKET_RTOL`` for all its iterations on this system; the block path
    certifies, and agrees with the dense solver and with the rebasing
    per-letter reference."""
    sys0 = gaussian_system(
        np.random.default_rng(4131703719), {"a": 0, "A": 5, "b": 0, "B": 1}
    )
    assert reference_cone_eigenpair(sys0, rebase=False) is None
    got = perron._cone_eigenpair(sys0, 1e-9)
    assert got is not None
    rho, x = got
    rho_dense, x_dense = perron._dense_eigenpair(sys0, 1e-9)
    assert abs(rho - rho_dense) <= 1e-12 * rho_dense
    assert abs(rho - dense_rho_oracle(sys0)) <= 1e-12 * rho_dense
    assert np.linalg.norm(x - x_dense) <= 1e-9
    rho_ref, ref = reference_cone_eigenpair(sys0)
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref
    for a, s in sys0._slices.items():
        assert np.linalg.norm(x[s, s] - ref[a]) <= 1e-9


def floor_system(seed, dims):
    return gaussian_system(np.random.default_rng(seed), dict(zip("aAbB", dims)))


@pytest.mark.parametrize(
    "seed, dims",
    [
        (1594, (1, 1, 1, 8)),
        (255148123, (1, 1, 8, 8)),
        (1, (1, 1, 3, 8)),
        (846807, (1, 1, 1, 8)),
        (172, (1, 0, 5, 8)),
        (13301238, (0, 1, 7, 1)),
        (2580008684, (0, 1, 8, 8)),
        (3086510459, (0, 1, 2, 12)),
    ],
)
def test_rounding_floor_examples_certify(monkeypatch, seed, dims):
    """Eigentuples whose condition number puts the bracket's rounding floor
    above ``BRACKET_RTOL`` (up to 5e11 here).  Without the rebase the cone
    iteration stalls on all but 255148123, which closes the bracket at one
    lucky iteration, and the dense solver answers."""
    sys0 = floor_system(seed, dims)
    rebases = []
    rebased = perron._rebased

    def counted(*args):
        out = rebased(*args)
        rebases.append(out is not None)
        return out

    monkeypatch.setattr(perron, "_rebased", counted)
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(sys0)
    assert dense.calls == 0, "the cone iteration did not certify"
    assert rebases == [True]
    want = dense_rho_oracle(sys0)
    assert abs(rho - want) <= 1e-12 * want
    assert_eigenpair(sys0, rho, forms)
    rho_ref, ref = reference_cone_eigenpair(sys0)
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref
    assert all(np.linalg.norm(forms[a] - ref[a]) <= 1e-9 for a in AB.letters)


# ------------------------------------------ predicted bracket checks and the start


def reference_every_step_cone_eigenpair(sys, tol=1e-9):
    """The block-diagonal cone iteration that checks the bracket at every
    iteration, from the identity.  It computes the bracket and rebases as
    ``_cone_eigenpair`` does, so the two differ only in their schedule."""
    groups = perron._size_groups(sys)
    x = np.eye(sys.total_dim, dtype=complex)
    base, back, near = sys, None, False
    for _ in range(perron._CONE_ITERATIONS):
        y = _transfer(base, x)
        bracket = perron._bracket(groups, x, y)
        if bracket is None:
            return None
        lo, hi, eigs = bracket
        if hi - lo <= tolerances.BRACKET_RTOL * hi:
            rho = (lo + hi) / 2
            if rho <= tol:
                return None
            if back is not None:
                x = back.conj().T @ x @ back
            forms = perron._unit_trace(x)
            rtol = max(tol, tolerances.RESIDUAL_FLOOR) * max(1.0, rho)
            if perron._certified(sys, rho, forms, rtol):
                return float(rho), forms
            return None
        if not near and hi - lo <= tolerances.REBASE_RTOL * hi:
            near = True
            rebased = perron._rebased(sys, groups, eigs)
            if rebased is not None:
                base, back = rebased
                x = np.eye(sys.total_dim, dtype=complex)
                continue
        t = float(np.trace(y).real)
        if not t > 0:
            return None
        x = y / t
    return None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.fixed_dictionaries({a: st.integers(0, 12) for a in AB.letters}),
)
def test_predicted_checks_match_every_step_reference(seed, dims):
    if not any(dims.values()):
        return
    # identity forms: both loops run the same iterates
    sys0 = gaussian_system(np.random.default_rng(seed), dims)
    got = perron._cone_eigenpair(sys0, 1e-9)
    want = reference_every_step_cone_eigenpair(sys0)
    assert (got is None) == (want is None)
    if got is None:
        return
    (rho, x), (rho_ref, ref) = got, want
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref
    assert np.linalg.norm(x - ref) <= 1e-9


def test_predicted_checks_take_a_sixth_of_the_eigensolves(monkeypatch):
    # The width's contraction between checks schedules the next one where
    # the width reaches BRACKET_RTOL: 4 ``eigh`` calls against 57 of the
    # every-step reference here (16 under a check at every 8th iteration).
    sys0 = gaussian_system(np.random.default_rng(3), {a: 12 for a in AB.letters})
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rho_ref, _ = reference_every_step_cone_eigenpair(sys0)
    ref_calls = len(calls)
    calls.clear()
    rho, _ = perron._cone_eigenpair(sys0, 1e-9)
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref
    assert 0 < 6 * len(calls) <= ref_calls


@pytest.mark.parametrize(
    "make, checks, steps",
    [
        (nilpotent_system, 1, 2),
        (singular_eigentuple_system, 4, 25),
        (bipartite_system, 125, 1000),
        (lambda: floor_system(846807, (1, 1, 1, 8)), 10, 32),
        (lambda: floor_system(1, (1, 1, 3, 8)), 4, 26),
        (lambda: floor_system(172, (1, 0, 5, 8)), 14, 57),
    ],
    ids=["nilpotent", "singular", "bipartite", "846807", "1", "172"],
)
def test_predicted_checks_add_no_work_on_hard_systems(
    monkeypatch, make, checks, steps
):
    """The dense-fallback systems and three rounding-floor examples take no
    more bracket checks and transfer steps than under a check at every 8th
    iteration (and at every one within ``CHECK_EVERY_RTOL``), whose counts
    are ``checks`` and ``steps``.  A width or a shrink under the rounding
    floor gives no rate (the singular system's width shrinks by 3e-16 in
    its first 8 iterations), and the checks aim at the rebase while it is
    due (the floor examples)."""
    sys0 = make()
    calls = {"_bracket": 0, "_transfer": 0}
    for name in calls:
        inner = getattr(perron, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(perron, name, counted)
    perron._cone_eigenpair(sys0, 1e-9)
    assert 0 < calls["_bracket"] <= checks
    assert calls["_transfer"] <= steps


def test_compatible_forms_certify_in_one_step(monkeypatch, rng):
    # A normalized system starts from its own forms, an eigentuple already:
    # one transfer step for the bracket and one for the certificate.
    sys0, _ = normalize_to_compatible(gaussian_system(rng, {a: 4 for a in AB.letters}))
    calls = []
    transfer = perron._transfer

    def counted(*args):
        calls.append(1)
        return transfer(*args)

    monkeypatch.setattr(perron, "_transfer", counted)
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(sys0)
    assert (dense.calls, len(calls)) == (0, 2)
    assert abs(rho - 1.0) <= 1e-12
    trace = sum(np.trace(sys0.B(a)).real for a in AB.letters)
    for a in AB.letters:
        assert np.linalg.norm(forms[a] - sys0.B(a) / trace) <= 1e-12


@pytest.mark.parametrize("rank", [0, 1])
def test_singular_forms_start_from_the_identity(rank):
    # Zero or rank-one forms are no definite start, so the cone iteration
    # starts from the identity; it must still certify the radius.
    rng = np.random.default_rng(20 + rank)
    for _ in range(10):
        dims = {a: int(rng.integers(2, 5)) for a in AB.letters}
        forms = {}
        for a in AB.letters:
            v = rng.standard_normal((dims[a], rank))
            v = v + 1j * rng.standard_normal((dims[a], rank))
            forms[a] = v @ v.conj().T
        sys0 = gaussian_system(rng, dims).with_forms(forms)
        with pytest.MonkeyPatch.context() as mp:
            dense = CountDense(mp)
            rho, eigenforms = pf_eigenpair(sys0)
        assert dense.calls == 0, "the cone iteration did not certify"
        want = dense_rho_oracle(sys0)
        assert abs(rho - want) <= 1e-10 * max(1.0, want)
        assert_eigenpair(sys0, rho, eigenforms)


# ------------------------------------ repeated radius with a boundary eigentuple


def boundary_system(seed):
    """Upper-triangular ``H(b,a) = [[A, C], [0, D]]`` with 1-dim Gaussian
    blocks and ``D`` twice as large: the quotient dominates, so the leading
    eigentuple is singular (on the boundary of the cone)."""
    rng = np.random.default_rng(seed)

    def n():
        return rng.normal(size=(1, 1))

    H = {}
    for b, a in _pairs(AB):
        A, C, D = (n() + 1j * n() for _ in range(3))
        H[(b, a)] = np.block([[A, C], [np.zeros((1, 1)), 2 * D]])
    return MatrixSystem(
        AB, {a: 2 for a in AB.letters}, H, {a: np.eye(2) for a in AB.letters}
    )


def repeated_boundary_sum(kind):
    """``V + V``, ``V + V`` behind letterwise unitaries, or ``V + V + V``,
    for seeds on which no single eigenvector of the doubled radius is
    semidefinite."""
    if kind == "VV":
        V = boundary_system(2)
        return V, direct_sum(V, V)
    if kind == "disguised":
        V = boundary_system(0)
        rng = np.random.default_rng(0)
        J = SystemMap(AB, {a: random_unitary(rng, 4) for a in AB.letters})
        return V, conjugate(direct_sum(V, V), J)
    V = boundary_system(6)
    return V, direct_sum(direct_sum(V, V), V)


@pytest.mark.parametrize("kind", ["VV", "disguised", "VVV"])
def test_repeated_boundary_radius_certifies(monkeypatch, kind):
    # The eig scan finds no semidefinite eigenvector here; the spectral
    # projection of the identity onto the leading eigenvectors is one.
    V, total = repeated_boundary_sum(kind)
    rho_v, _ = pf_eigenpair(V)
    dense = CountDense(monkeypatch)
    rho, forms = pf_eigenpair(total)
    assert dense.calls == 1
    assert abs(rho - rho_v) <= 1e-10 * rho_v
    assert_eigenpair(total, rho, forms)
    out, rho_n = normalize_to_compatible(total)
    assert rho_n == rho
    assert compatibility_defect(out) <= 1e-9
    for a in AB.letters:
        assert is_psd(out.B(a))


def test_normalize_installs_semidefinite_part_of_certified_forms():
    # The certified eigentuple of V + V has relative smallest eigenvalues
    # of about -2.6e-8: semidefinite at EIGENTUPLE_PSD_TOL but not at the
    # forms' PSD_TOL, so normalization installs their semidefinite parts.
    V = boundary_system(26)
    total = direct_sum(V, V)
    rho, forms = pf_eigenpair(total)
    assert not all(is_psd(m) for m in forms.values())
    out, rho_n = normalize_to_compatible(total)
    assert rho_n == rho
    assert compatibility_defect(out) <= 1e-9
    for a in AB.letters:
        assert is_psd(out.B(a))
        assert np.linalg.norm(out.B(a) - forms[a]) <= 1e-7 * np.linalg.norm(forms[a])
