"""Thermal states, entropies, and free energy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback.errors import (
    DomainError,
    InputError,
    InvalidStateError,
    NonPositiveTemperatureError,
    NotADistributionError,
    NotHermitianError,
)
from qfeedback.linalg import dagger, eig_hermitian, max_abs, read_only
from qfeedback.sampling import random_hamiltonian
from qfeedback.thermo import (
    DensityMatrix,
    Hamiltonian,
    average_energy,
    gibbs_state,
    shannon_entropy,
    thermal_state,
    thermo_reading,
    trace_distance,
    von_neumann_entropy,
)

from conftest import PAULI_X, PAULI_Y, maximally_mixed, random_density_matrix, random_unitary

LN2 = math.log(2.0)
# two-level system H = diag(0, 1) at T = 1
P_GROUND = 1.0 / (1.0 + math.exp(-1.0))
S_THERMAL = -(P_GROUND * math.log(P_GROUND) + (1 - P_GROUND) * math.log(1 - P_GROUND))
E_THERMAL = 1.0 - P_GROUND


class TestHamiltonian:
    def test_diagonal(self):
        h = Hamiltonian.diagonal([0.0, 1.0, 2.0])
        assert h.dim == 3
        np.testing.assert_allclose(np.diag(h.matrix).real, [0.0, 1.0, 2.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            Hamiltonian.from_matrix(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))

    def test_matrix_frozen(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_carried_eig_matches_a_fresh_one(self, rng):
        h = random_hamiltonian(3, rng)
        fresh = eig_hermitian(h.matrix)
        assert h.eig.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert h.eig.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        assert h.eig is h.eig


class TestDensityMatrix:
    def test_valid_state(self):
        rho = DensityMatrix.from_matrix(np.eye(2, dtype=complex) / 2.0)
        assert rho.dim == 2
        assert not rho.clamped

    def test_trace_enforced(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_matrix(np.eye(2, dtype=complex))

    def test_tiny_negative_eigenvalue_clamped(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        rho = DensityMatrix.from_matrix(m)
        assert rho.clamped
        lam = rho.eig.eigenvalues
        assert lam[-1] >= 0.0
        assert abs(float(lam.sum()) - 1.0) < 1e-12

    def test_large_negative_eigenvalue_rejected(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_matrix(m)

    def test_from_vector(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = DensityMatrix.from_vector(v)
        np.testing.assert_allclose(rho.matrix, 0.5 * (np.eye(2) + PAULI_X), atol=1e-14)

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]),
            np.diag([1.0 + 5e-11, -5e-11]).astype(complex),  # clamped
        ],
        ids=["unclamped", "clamped"],
    )
    def test_carried_eig_matches_a_fresh_one(self, m):
        rho = DensityMatrix.from_matrix(m)
        assert rho.clamped == (m[1, 1].real < 0)
        fresh = eig_hermitian(rho.matrix)
        assert rho.eig.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
        assert rho.eig.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()
        assert rho.eig is rho.eig
        with pytest.raises(ValueError):
            rho.eig.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            rho.eig.eigenvectors[0, 0] = 0.0


class TestThermalState:
    def test_two_level_populations(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        np.testing.assert_allclose(
            np.diag(rho.matrix).real, [P_GROUND, 1.0 - P_GROUND], atol=1e-14
        )

    def test_zero_hamiltonian_maximally_mixed(self):
        rho = thermal_state(Hamiltonian.zero(3), 1.0)
        np.testing.assert_allclose(rho.matrix, np.eye(3) / 3.0, atol=1e-14)

    def test_low_temperature_ground_state(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1e-3)
        assert rho.matrix[0, 0].real > 1.0 - 1e-12

    def test_basis_independence(self, rng):
        h_diag = Hamiltonian.diagonal([0.0, 1.0, 2.5])
        u = random_unitary(3, rng)
        h_rot = Hamiltonian.from_matrix(u @ h_diag.matrix @ dagger(u))
        rho_rot = thermal_state(h_rot, 0.7)
        expected = u @ thermal_state(h_diag, 0.7).matrix @ dagger(u)
        assert max_abs(rho_rot.matrix - expected) < 1e-12

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(NonPositiveTemperatureError):
            thermal_state(Hamiltonian.zero(2), 0.0)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan])
    def test_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(DomainError, match="outside the float range"):
            thermal_state(Hamiltonian.zero(2), temperature)


def thermal_eig_cases():
    """Generic, degenerate and zero Hamiltonians at temperatures down to 1e-3."""
    rng = np.random.default_rng(14)
    u = random_unitary(4, rng)
    degenerate = Hamiltonian.from_matrix(u @ np.diag([0.0, 0.0, 1.0, 1.0]) @ dagger(u))
    hamiltonians = [random_hamiltonian(d, rng) for d in (2, 3, 5, 8)]
    hamiltonians += [degenerate, Hamiltonian.diagonal([0.0, 0.0, 2.0]), Hamiltonian.zero(3)]
    return [(h, t) for h in hamiltonians for t in (1e-3, 0.05, 0.7, 5.0)]


@pytest.mark.parametrize("h, temperature", thermal_eig_cases())
def test_thermal_state_keeps_its_gibbs_decomposition(h, temperature):
    """The state keeps the weights it was built from on H's eigenvectors, in place
    of a second eig: they reconstruct the stored matrix and match a fresh eig."""
    rho = thermal_state(h, temperature)
    dec = rho.eig
    lam, v = dec.eigenvalues, dec.eigenvectors
    assert not rho.clamped
    assert max_abs(v @ np.diag(lam) @ dagger(v) - rho.matrix) < 1e-14
    assert (np.diff(lam) <= 0.0).all() and lam[-1] >= 0.0
    assert abs(lam.sum() - 1.0) < 1e-14
    assert max_abs(lam - eig_hermitian(rho.matrix).eigenvalues) < 1e-14
    for j in range(h.dim):
        peak = v[np.argmax(np.abs(v[:, j])), j]
        assert abs(peak.imag) < 1e-15 and peak.real > 0.0
    assert rho.eig is dec
    with pytest.raises(ValueError):
        lam[0] = 0.0


def test_gibbs_state_gives_an_infinite_level_no_weight():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = gibbs_state(np.array([0.0, 1.0, np.inf]), np.eye(3, dtype=complex), 1.0, "state")
    weights = np.array([1.0, math.exp(-1.0), 0.0]) / (1.0 + math.exp(-1.0))
    np.testing.assert_allclose(np.diag(rho.matrix).real, weights, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(rho.eig.eigenvalues, weights, rtol=1e-15, atol=0.0)


def test_from_psd_keeps_round_off_without_an_eig(eig_calls):
    # X X† with a rank-1 X: its exact spectrum is (1, 0), and the round-off of the
    # product may read below 0, which from_matrix would clamp
    x = np.array([[0.6], [0.8j]])
    m = x @ dagger(x)
    eig_calls.clear()
    rho = DensityMatrix.from_psd(m, "product")
    assert not eig_calls and not rho.clamped
    assert rho.matrix.tobytes() == (m / m.trace().real).tobytes()
    with pytest.raises(InvalidStateError, match="product: trace"):
        DensityMatrix.from_psd(2.0 * m, "product")


class TestEntropyAndEnergy:
    def test_entropies(self):
        assert von_neumann_entropy(maximally_mixed(2)) == pytest.approx(LN2, abs=1e-14)
        pure = DensityMatrix.from_vector(np.array([1.0, 0.0]))
        assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-14)

    def test_thermal_reading(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        reading = thermo_reading(rho, h, 1.0)
        assert reading.energy == pytest.approx(E_THERMAL, abs=1e-12)
        assert reading.entropy == pytest.approx(S_THERMAL, abs=1e-12)
        assert reading.free_energy == pytest.approx(E_THERMAL - S_THERMAL, abs=1e-12)

    def test_free_energy_matches_log_partition(self):
        # F(T) = -kT ln Z for a thermal state
        h = Hamiltonian.diagonal([0.0, 2.0])
        t = 1.3
        rho = thermal_state(h, t)
        z = 1.0 + math.exp(-2.0 / t)
        f = thermo_reading(rho, h, t).free_energy
        assert f == pytest.approx(-t * math.log(z), abs=1e-12)

    def test_thermal_state_minimizes_free_energy(self, rng):
        h = random_hamiltonian(3, rng)
        t = 0.9
        f_thermal = thermo_reading(thermal_state(h, t), h, t).free_energy
        for _ in range(20):
            f_other = thermo_reading(random_density_matrix(3, rng), h, t).free_energy
            assert f_other >= f_thermal - 1e-10

    def test_energy_of_non_hermitian_matrix_is_a_domain_error(self):
        # built directly, so from_matrix's checks never ran: Tr[σ_y ρ] = i
        rho = DensityMatrix(matrix=np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
        with pytest.raises(DomainError, match="imaginary part 1.000e[+]00"):
            average_energy(rho, Hamiltonian.from_matrix(PAULI_Y))

    def test_free_energy_overflow_is_inf_not_a_warning(self):
        # kT·S = 1e308 · ln 7 is past the float range; a ledger row rejects the inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reading = thermo_reading(maximally_mixed(7), Hamiltonian.zero(7), 1e308)
        assert reading.free_energy == -math.inf

    def test_shannon_entropy(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-14)
        assert shannon_entropy([1.0, 0.0]) == 0.0
        with pytest.raises(NotADistributionError):
            shannon_entropy([0.7, 0.7])
        with pytest.raises(NotADistributionError):
            shannon_entropy([1.3, -0.3])


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        a = DensityMatrix.from_vector(np.array([1.0, 0.0]))
        b = DensityMatrix.from_vector(np.array([0.0, 1.0]))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_example(self):
        a = DensityMatrix.from_matrix(np.diag([0.75, 0.25]).astype(complex))
        b = DensityMatrix.from_matrix(np.diag([0.5, 0.5]).astype(complex))
        assert trace_distance(a, b) == pytest.approx(0.25, abs=1e-14)

    def test_metric_properties(self, rng):
        a = random_density_matrix(3, rng)
        b = random_density_matrix(3, rng)
        c = random_density_matrix(3, rng)
        assert trace_distance(a, a) < 1e-12
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_equal_matrices_take_no_eig(self, eig_calls, rng):
        a = random_density_matrix(3, rng)
        same = DensityMatrix(matrix=read_only(a.matrix))
        ulp = a.matrix.copy()
        ulp[0, 0] = np.nextafter(ulp[0, 0].real, 2.0)
        eig_calls.clear()
        assert trace_distance(a, same) == 0.0
        pure = [DensityMatrix.from_vector(np.array([1.0, 0.0])) for _ in range(2)]
        assert trace_distance(*pure) == 0.0
        assert eig_calls == []
        assert trace_distance(a, DensityMatrix(matrix=read_only(ulp))) > 0.0
        assert eig_calls == [1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
def test_entropy_bounds_property(seed, dim):
    rho = random_density_matrix(dim, np.random.default_rng(seed))
    s = von_neumann_entropy(rho)
    assert -1e-12 <= s <= math.log(dim) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entropy_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = random_density_matrix(4, rng)
    u = random_unitary(4, rng)
    rotated = DensityMatrix.from_matrix(u @ rho.matrix @ dagger(u))
    assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-10
