import math
import sys

import numpy as np
import pytest

from qfeedback import linalg
from qfeedback.linalg import dagger, read_only
from qfeedback.measurement import MeasurementModel
from qfeedback.sampling import _normalized_ginibre, ginibre, random_hamiltonian
from qfeedback.thermo import DensityMatrix

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# x-basis projectors (I +/- X)/2, used across the suite
PROJ_X_PLUS = 0.5 * (np.eye(2) + PAULI_X).astype(complex)
PROJ_X_MINUS = 0.5 * (np.eye(2) - PAULI_X).astype(complex)

# z-basis projectors
PROJ_0 = np.diag([1.0, 0.0]).astype(complex)
PROJ_1 = np.diag([0.0, 1.0]).astype(complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def _count_calls(monkeypatch, attr):
    """Records calls of ``linalg.<attr>`` made through every qfeedback module that binds
    it: one entry per call, holding the number of matrices in its stack (1 for a matrix)."""
    calls = []
    solver = getattr(linalg, attr)

    def counting(m):
        calls.append(math.prod(np.shape(m)[:-2]))
        return solver(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qfeedback" and getattr(module, attr, None) is solver:
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """The stack size of every eig_hermitian call, eigenvectors and all."""
    return _count_calls(monkeypatch, "eig_hermitian")


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The stack size of every eigvals_hermitian call, eigenvalues only."""
    return _count_calls(monkeypatch, "eigvals_hermitian")


def assert_hermitian(m, tol=1e-12):
    assert np.abs(m - m.conj().T).max() <= tol


# Helpers only the tests use.


def maximally_mixed(dim):
    """I/d, built directly rather than through DensityMatrix.from_matrix."""
    return DensityMatrix(matrix=read_only(np.eye(dim, dtype=complex) / dim))


def random_unitary(dim, rng):
    """Haar-ish unitary: QR of a Ginibre draw with the R diagonal phased out."""
    q, r = np.linalg.qr(ginibre(dim, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_inefficient_model(dim, n_outcomes, rng, ops_per_outcome=2):
    """Outcome groups of several Kraus operators each (information discarded)."""
    normalized = _normalized_ginibre(dim, n_outcomes * ops_per_outcome, rng)
    groups = [
        normalized[i * ops_per_outcome : (i + 1) * ops_per_outcome] for i in range(n_outcomes)
    ]
    return MeasurementModel.inefficient(groups)


def random_density_matrix(dim, rng):
    g = ginibre(dim, rng)
    m = g @ dagger(g)
    return DensityMatrix.from_matrix(m / np.trace(m).real)


def rank_one_cases(count, seed):
    """``count`` seeded (h, T, model) triples whose bare model measures rank-1 projectors,
    so every outcome is pure: dims 2-4, T in [0.5, 2], the projectors onto a random basis
    or, every other case, onto H's eigenbasis."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        dim = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.5, 2.0))
        basis = h.eig.eigenvectors if i % 2 else random_unitary(dim, rng)
        model = MeasurementModel.bare([np.outer(v, v.conj()) for v in basis.T])
        cases.append((h, temperature, model))
    return cases
