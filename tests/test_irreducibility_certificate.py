"""The irreducibility certificate of ``find_proper_invariant`` against two
test-only references (``invariant_oracles``): the randomized search it
replaced, and the brute-force Burnside check on the whole path algebra.

A ``None`` from ``find_proper_invariant`` must mean irreducible, and
anything else must be a proper nonzero invariant subsystem; the
brute-force check decides which answer is right.
"""

import numpy as np

from freemult import SystemMap, conjugate, direct_sum, find_proper_invariant
from freemult.system import MatrixSystem, invariance_defect

from .conftest import AB, _pairs, random_system, random_unitary
from .invariant_oracles import burnside_irreducible, random_invariant_search
from .test_acceptance import criterion_7_sums
from .test_decompose import certified_irreducible, equivalent_pair, sparse_system


def assert_certificate(sys0):
    """The certificate agrees with the brute-force check; returns whether
    the system is irreducible."""
    irreducible = burnside_irreducible(sys0)
    found = find_proper_invariant(sys0)
    if irreducible:
        assert found is None
    else:
        assert found is not None
        assert 0 < found.total_dim < sys0.total_dim
        assert invariance_defect(sys0, found) <= 1e-7
    return irreducible


def hide(rng, sys0):
    J = SystemMap(AB, {a: random_unitary(rng, sys0.dims[a]) for a in AB.letters})
    return conjugate(sys0, J)


def test_certificate_on_criterion_7_inputs():
    for pieces, hidden in criterion_7_sums():
        for piece in pieces:
            assert assert_certificate(piece)
            assert random_invariant_search(piece) is None
        assert not assert_certificate(hidden)
        assert random_invariant_search(hidden) is not None


def test_certificate_on_random_sums(rng):
    for n_parts in (2, 3):
        pieces = [certified_irreducible(rng, max_dim=2) for _ in range(n_parts)]
        total = pieces[0]
        for p in pieces[1:]:
            total = direct_sum(total, p)
        hidden = hide(rng, total)
        assert not assert_certificate(hidden)
        assert random_invariant_search(hidden) is not None


def test_certificate_on_sums_of_equivalent_irreducibles(rng):
    # the randomized search misses these; the certificate must not
    V, hidden = equivalent_pair(np.random.default_rng(11))
    assert assert_certificate(V)
    assert not assert_certificate(hidden)
    assert random_invariant_search(hidden) is None
    W = certified_irreducible(rng, max_dim=2)
    for total in (direct_sum(hidden, V), direct_sum(hidden, W)):
        assert not assert_certificate(hide(rng, total))


def extension(rng, V, W, coupling):
    """Transfers ``[[H_V, C], [0, H_W]]`` with a random ``C``: ``V`` is an
    invariant subsystem, and for ``coupling != 0`` it has no invariant
    complement in general."""
    dims = {a: V.dims[a] + W.dims[a] for a in AB.letters}
    H = {}
    for b, a in _pairs(AB):
        m = np.zeros((dims[b], dims[a]), dtype=complex)
        m[: V.dims[b], : V.dims[a]] = V.H(b, a)
        m[V.dims[b] :, V.dims[a] :] = W.H(b, a)
        shape = (V.dims[b], W.dims[a])
        m[: V.dims[b], V.dims[a] :] = coupling * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        H[(b, a)] = m
    return hide(rng, MatrixSystem(AB, dims, H, {a: np.eye(dims[a]) for a in AB.letters}))


def test_certificate_on_extensions_and_sparse_systems(rng):
    # reducible systems without invariant complements, self-extensions
    # included, and sparse systems with zero-dimensional letters
    for _ in range(4):
        V = random_system(rng, max_dim=2)
        W = random_system(rng, max_dim=2)
        for X, Y in ((V, V), (V, W)):
            for coupling in (0.0, 0.5):
                assert not assert_certificate(extension(rng, X, Y, coupling))
        assert not assert_certificate(extension(rng, extension(rng, V, V, 0.3), V, 0.3))
    answers = []
    for i in range(40):
        # zero-dimensional letters in every other system
        dims = {a: int(rng.integers(i % 2, 4)) for a in AB.letters}
        if any(dims.values()):
            sys0 = sparse_system(rng, dims, keep=float(rng.uniform(0.3, 1.0)))
            answers.append(assert_certificate(sys0))
    # both answers occur
    assert 0 < sum(answers) < len(answers)
