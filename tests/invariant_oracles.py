"""Test-only references for the irreducibility certificate.

``random_invariant_search`` is the randomized search that
``find_proper_invariant`` used before it became a certificate: closures of
random vectors, annihilators of random dual closures, and closures of
eigenspaces of random loop operators, under a trial budget and a seed.  A
``None`` from it only means that no trial hit; it misses every sum of
equivalent irreducibles.

``path_algebra_dim`` is the brute-force Burnside check: the dimension of
the span of all path products (the trivial paths included) as block
matrices on ``V = sum_c V_c``.  Over the complex numbers a system is
irreducible exactly when that span is all of ``End(V)``.
"""

from __future__ import annotations

import numpy as np

from freemult.decompose import (
    _annihilator,
    _dual_system,
    _is_proper_invariant,
    closure_subsystem,
)
from freemult.system import MatrixSystem, Subsystem, null_space


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


def random_invariant_search(
    sys: MatrixSystem, max_trials: int = 50, seed: int = 0
) -> Subsystem | None:
    """A proper invariant subsystem hit by one of ``max_trials`` random
    trials, or ``None`` when no trial hits."""
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


def path_algebra_dim(sys: MatrixSystem, rtol: float = 1e-8) -> int:
    """Dimension of the span of every path product on ``sum_c V_c``.

    Starts from the letter projections (the paths of length zero) and
    multiplies the newest directions on the left by every embedded
    transfer matrix, keeping what is new, until a layer adds nothing.
    """
    letters = sys.alphabet.letters
    ends = np.cumsum([sys.dims[c] for c in letters])
    block = {c: slice(e - sys.dims[c], e) for c, e in zip(letters, ends)}
    n = sys.total_dim
    gens = []
    for b, a in sys.stored_pairs():
        g = np.zeros((n, n), dtype=complex)
        g[block[b], block[a]] = sys.H(b, a)
        gens.append(g)
    basis = []
    for c in letters:
        if sys.dims[c]:
            e = np.zeros((n, n), dtype=complex)
            e[block[c], block[c]] = np.eye(sys.dims[c]) / np.sqrt(sys.dims[c])
            basis.append(e.reshape(-1))
    basis = np.stack(basis, axis=1)
    frontier = basis
    while frontier.shape[1]:
        start = basis.shape[1]
        mats = frontier.T.reshape(-1, n, n)
        for g in gens:
            cand = (g @ mats).reshape(-1, n * n).T
            resid = cand - basis @ (basis.conj().T @ cand)
            u, s, _ = np.linalg.svd(resid, full_matrices=False)
            keep = s > rtol * max(1.0, float(np.linalg.norm(cand, 2)))
            basis = np.hstack([basis, u[:, keep]])
        frontier = basis[:, start:]
    return basis.shape[1]


def burnside_irreducible(sys: MatrixSystem) -> bool:
    return path_algebra_dim(sys) == sys.total_dim**2
