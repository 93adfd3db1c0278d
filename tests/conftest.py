import dataclasses
import math
import sys

import numpy as np
import pytest

from qfeedback import linalg
from qfeedback.linalg import dagger, read_only
from qfeedback.measurement import MeasurementModel, MeasurementOutcomes
from qfeedback.sampling import _normalized_ginibre, ginibre, random_hamiltonian
from qfeedback.thermo import DensityMatrix, average_energy, von_neumann_entropy

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
    """Records calls of ``linalg.<attr>``, in linalg itself and through every qfeedback
    module that binds it: one entry per call, holding the number of matrices in its stack
    (1 for a matrix)."""
    calls = []
    function = getattr(linalg, attr)

    def counting(m):
        calls.append(math.prod(np.shape(m)[:-2]))
        return function(m)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qfeedback" and getattr(module, attr, None) is function:
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def eig_calls(monkeypatch):
    """The stack size of every LAPACK eigh call, eigenvectors and all: ``eig_hermitian``
    is the one place it runs."""
    return _count_calls(monkeypatch, "eig_hermitian")


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The stack size of every LAPACK eigvalsh call, eigenvalues only: ``linalg._eigvals``
    is the one place it runs, so a call made around ``eigvals_hermitian`` counts too."""
    return _count_calls(monkeypatch, "_eigvals")


@pytest.fixture
def residual_calls(monkeypatch):
    """The stack size of every ``linalg.hermitian_residual`` call, the M - M† test."""
    return _count_calls(monkeypatch, "hermitian_residual")


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


def stacked_outcomes(states, h, outcomes=None) -> MeasurementOutcomes:
    """The outcome stacks ``apply`` would hand on for the given states, without measuring:
    each state's own matrix, decomposition, entropy and energy on ``h``, equal
    probabilities, and outcome indices 0…K-1 unless ``outcomes`` names them."""
    k = len(states)
    return MeasurementOutcomes(
        outcomes=np.arange(k) if outcomes is None else np.array(outcomes),
        probabilities=np.full(k, 1.0 / k),
        states=np.array([s.matrix for s in states]),
        eigenvalues=np.array([s.eig.eigenvalues for s in states]),
        eigenvectors=np.array([s.eig.eigenvectors for s in states]),
        entropies=np.array([von_neumann_entropy(s) for s in states]),
        energies=np.array([average_energy(s, h) for s in states]),
    )


def with_row(outcomes, n, **rows) -> MeasurementOutcomes:
    """``outcomes`` with row n of each named stack replaced by the given value, unchecked."""
    changed = {}
    for name, value in rows.items():
        stack = getattr(outcomes, name).copy()
        stack[n] = value
        changed[name] = stack
    return dataclasses.replace(outcomes, **changed)


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
