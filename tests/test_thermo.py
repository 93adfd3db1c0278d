"""Thermal states, entropies, and free energy."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback.errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    InvalidStateError,
    NonPositiveTemperatureError,
    NotADistributionError,
    NotHermitianError,
)
from qfeedback import thermo
from qfeedback.linalg import dagger, eig_hermitian, max_abs, read_only
from qfeedback.sampling import random_hamiltonian
from qfeedback.thermo import (
    DensityMatrix,
    _nats,
    _unit_trace,
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
from oracles import unit_trace_reference

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

    def test_trace_enforced(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_matrix(np.eye(2, dtype=complex))

    def test_tiny_negative_eigenvalue_kept(self):
        # within STATE_TOL a negative eigenvalue is round-off: the state keeps it as it
        # stands, and the entropy reads it as 0
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        rho = DensityMatrix.from_matrix(m)
        assert rho.matrix.tobytes() == m.tobytes()
        assert rho.eig.eigenvalues.tolist() == [1.0 + 5e-11, -5e-11]
        assert von_neumann_entropy(rho) == 0.0

    def test_large_negative_eigenvalue_rejected(self):
        m = np.diag([1.2, -0.2]).astype(complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_matrix(m)

    def test_from_vector(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = DensityMatrix.from_vector(v)
        np.testing.assert_allclose(rho.matrix, 0.5 * (np.eye(2) + PAULI_X), atol=1e-14)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1.0, 1e160, 1e200])
    def test_from_vector_at_any_scale(self, scale):
        """The norm of a tiny or huge vector would underflow or overflow: the state is
        |+><+| at every scale."""
        rho = DensityMatrix.from_vector(np.array([scale, scale]))
        plus = DensityMatrix.from_vector(np.array([1.0, 1.0]))
        assert rho.matrix.tobytes() == plus.matrix.tobytes()
        np.testing.assert_allclose(rho.matrix, 0.5 * (np.eye(2) + PAULI_X), atol=1e-15)

    @pytest.mark.parametrize(
        "v",
        [np.array([scale, scale]) for scale in (1e-200, 1e-160, 1.0, 1e160, 1e200)]
        + [
            [1.0, 1j] @ np.random.default_rng(seed).standard_normal((2, dim)) * 10.0 ** (seed - 8)
            for seed, dim in enumerate([1, 2, 3, 4, 5, 8, 16, 32] * 2)
        ],
    )
    def test_from_vector_keeps_the_norm_and_outer_bytes(self, v):
        """|ψ⟩⟨ψ| has the bytes of the np.linalg.norm and np.outer formula."""
        u = np.asarray(v, dtype=complex)
        u = u / np.abs(u).max()
        u = u / np.linalg.norm(u)
        matrix = DensityMatrix.from_vector(v).matrix
        assert matrix.tobytes() == np.outer(u, u.conj()).tobytes()
        assert not matrix.flags.writeable

    @pytest.mark.parametrize(
        "v", [[np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, np.nan)], [0.0, 0.0]]
    )
    def test_from_vector_rejects_a_non_finite_or_zero_vector(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError):
                DensityMatrix.from_vector(np.array(v))

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]),
            np.diag([1.0 + 5e-11, -5e-11]).astype(complex),
        ],
        ids=["mixed", "negative-round-off"],
    )
    def test_carried_eig_matches_a_fresh_one(self, m):
        rho = DensityMatrix.from_matrix(m)
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
    # product may read below 0, which only an eig would show
    x = np.array([[0.6], [0.8j]])
    m = x @ dagger(x)
    eig_calls.clear()
    rho = DensityMatrix.from_psd(m, "product")
    assert not eig_calls
    assert rho.matrix.tobytes() == (m / m.trace().real).tobytes()
    with pytest.raises(InvalidStateError, match="product: trace"):
        DensityMatrix.from_psd(2.0 * m, "product")


def _near_unit_trace(rng, dim, kind):
    """A dim x dim matrix for the state checks: a product X X† over its trace (not exactly
    Hermitian), its hermitized form, the same with -0.0 components, or a thermal state."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ dagger(g)
    m = m / m.trace().real
    if kind == 1:
        m = (m + dagger(m)) / 2.0
    elif kind == 2:
        m = (m + dagger(m)) / 2.0
        m.imag[np.diag_indices(dim)] = -0.0
    elif kind == 3:
        m = np.array(thermal_state(random_hamiltonian(dim, rng), 0.7).matrix)
    return m


class TestStackedUnitTrace:
    """``thermo._unit_trace`` on a stack: slice i is the single call on matrix i
    (``oracles.unit_trace_reference``) byte for byte, and a stack that fails raises the
    error of its first slice that fails alone."""

    @pytest.mark.parametrize("seed", range(24))
    def test_slices_are_the_single_call(self, seed):
        rng = np.random.default_rng(500 + seed)
        dim, count = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        stack = np.stack([_near_unit_trace(rng, dim, int(rng.integers(4))) for _ in range(count)])
        m, tr = _unit_trace(stack, "slice")
        for i, x in enumerate(stack):
            reference, reference_tr = unit_trace_reference(x, "slice")
            assert m[i].tobytes() == reference.tobytes()
            assert np.float64(tr[i, 0, 0]).tobytes() == np.float64(reference_tr).tobytes()
            single, single_tr = _unit_trace(x, "slice")
            assert single.tobytes() == reference.tobytes() and single_tr == reference_tr

    def test_a_slice_past_the_safe_entry_size_keeps_the_others(self):
        rng = np.random.default_rng(8)
        stack = np.stack([_near_unit_trace(rng, 3, kind) for kind in (0, 2, 1)])
        stack[2, 0, 2], stack[2, 2, 0] = 1e300, 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, _ = _unit_trace(stack, "slice")
        for i, x in enumerate(stack):
            assert m[i].tobytes() == unit_trace_reference(x, "slice")[0].tobytes()

    @pytest.mark.parametrize("bad", range(3))
    @pytest.mark.parametrize(
        "faults",
        [
            ("trace",),
            ("hermitian",),
            ("nan",),
            ("inf",),
            ("overflow",),
            ("trace", "hermitian"),
            ("overflow", "trace"),
        ],
        ids=lambda faults: "-then-".join(faults),
    )
    def test_first_failing_slice_raises_its_own_error(self, bad, faults):
        rng = np.random.default_rng(9)
        stack = np.stack([_near_unit_trace(rng, 3, 1) for _ in range(3)])
        for offset, fault in enumerate(faults):
            i = (bad + offset) % 3
            if fault == "trace":
                stack[i] *= 1.5
            elif fault == "hermitian":
                stack[i, 0, 1] += 1e-6
            elif fault in ("nan", "inf"):
                stack[i, 1, 1] = float(fault)
            else:  # a Hermitian pair whose sum in hermitize overflows
                stack[i, 0, 2], stack[i, 2, 0] = 1e308, 1e308
        with pytest.raises(InvalidStateError) as raised:
            for x in stack:
                unit_trace_reference(x, "stacked state")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError) as got:
                _unit_trace(stack, "stacked state")
        assert str(got.value) == str(raised.value)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_is_a_dimension_error(self, shape):
        message = re.escape(f"x: must be square, got {shape}")
        with pytest.raises(DimensionMismatchError, match=message):
            _unit_trace(np.zeros(shape), "x")

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 3, 3)])
    @pytest.mark.parametrize(
        "names, stack_name", [(["a", "b"], "a … b"), (["a", "b", "c"], "a … c"), (["a"], "a")]
    )
    def test_a_whole_stack_error_names_the_stack_in_words(self, shape, names, stack_name):
        """A shape error concerns the whole stack, which it names by its first and last
        slice names, not by the list of them."""
        message = re.escape(f"{stack_name}: must be square, got {shape}")
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            DensityMatrix.from_matrix(np.zeros(shape), names)

    # from_matrix also takes an (N, d, d) stack of states, and refuses a stack of stacks
    @pytest.mark.parametrize(
        "build, shape",
        [(DensityMatrix.from_matrix, (2, 2, 2, 2)), (DensityMatrix.from_psd, (2, 2, 2))],
        ids=["from_matrix", "from_psd"],
    )
    def test_a_state_is_one_matrix(self, build, shape):
        message = re.escape(f"state: must be square, got {shape}")
        with pytest.raises(DimensionMismatchError, match=message):
            build(np.broadcast_to(np.eye(2) / 2, shape))


class TestStackedFromMatrix:
    """``DensityMatrix.from_matrix`` on an (N, d, d) stack: one eig call, no state objects,
    and the read-only checked stack and its decomposition, slice i the single call on
    matrix i byte for byte.  A stack that fails is checked stage by stage, as
    ``execute_plan`` checks its rotated states: every slice's state checks
    (``_unit_trace``) come before any slice's floor check, and within a stage the first
    failing slice raises the error of the single call on it, in one ``from_matrix`` call."""

    @pytest.mark.parametrize("seed", range(24))
    def test_slices_are_the_single_call(self, eig_calls, seed):
        rng = np.random.default_rng(700 + seed)
        dim, count = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        stack = np.stack([_near_unit_trace(rng, dim, int(rng.integers(4))) for _ in range(count)])
        eig_calls.clear()
        states, dec = DensityMatrix.from_matrix(stack, "slice")
        assert eig_calls == [count]
        assert states.shape == stack.shape
        assert dec.eigenvalues.shape == (count, dim)
        for array in (states, dec.eigenvalues, dec.eigenvectors):
            assert not array.flags.writeable
        for i, x in enumerate(stack):
            single = DensityMatrix.from_matrix(x, "slice")
            assert states[i].tobytes() == single.matrix.tobytes()
            assert dec.eigenvalues[i].tobytes() == single.eig.eigenvalues.tobytes()
            assert dec.eigenvectors[i].tobytes() == single.eig.eigenvectors.tobytes()

    @pytest.mark.parametrize("bad", range(3))
    @pytest.mark.parametrize(
        "faults",
        [
            ("trace",),
            ("negative",),
            ("nan",),
            ("negative", "trace"),
            ("trace", "negative"),
            ("negative", "hermitian"),
        ],
        ids=lambda faults: "-then-".join(faults),
    )
    def test_first_failing_slice_raises_its_own_error(self, bad, faults):
        rng = np.random.default_rng(10)
        stack = np.stack([_near_unit_trace(rng, 3, 1) for _ in range(3)])
        for offset, fault in enumerate(faults):
            i = (bad + offset) % 3
            if fault == "trace":
                stack[i] *= 1.5
            elif fault == "negative":  # unit trace, an eigenvalue of -0.2
                stack[i] = np.diag([0.7, 0.5, -0.2])
            elif fault == "hermitian":
                stack[i, 0, 1] += 1e-6
            else:
                stack[i, 1, 1] = np.nan
        with pytest.raises(InvalidStateError) as raised:
            for x in stack:
                _unit_trace(x, "stacked state")
            for x in stack:
                DensityMatrix.from_matrix(x, "stacked state")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError) as got:
                DensityMatrix.from_matrix(stack, "stacked state")
        assert str(got.value) == str(raised.value)
        assert str(raised.value).startswith("stacked state: ")

    @pytest.mark.parametrize("bad", range(4))
    @pytest.mark.parametrize("fault", ["trace", "floor"])
    def test_a_failing_stack_takes_one_call(self, monkeypatch, bad, fault):
        """Slice ``bad`` of four fails: one ``from_matrix`` call raises it, by one
        ``_unit_trace`` call over the stack and, for a trace fault, that call's re-run of
        slices 0…bad; a floor fault is read off the stacked eig, with no re-run."""
        rng = np.random.default_rng(10)
        stack = np.stack([_near_unit_trace(rng, 3, 1) for _ in range(4)])
        if fault == "trace":
            stack[bad] *= 1.5
        else:  # unit trace, an eigenvalue of -0.2
            stack[bad] = np.diag([0.7, 0.5, -0.2])
        traces, states = [], []
        unit_trace, from_matrix = thermo._unit_trace, DensityMatrix.from_matrix.__func__

        def counting_unit_trace(matrix, where):
            traces.append(np.shape(matrix))
            return unit_trace(matrix, where)

        def counting_from_matrix(cls, matrix, where="state"):
            states.append(np.shape(matrix))
            return from_matrix(cls, matrix, where)

        monkeypatch.setattr(thermo, "_unit_trace", counting_unit_trace)
        monkeypatch.setattr(DensityMatrix, "from_matrix", classmethod(counting_from_matrix))
        check = "trace " if fault == "trace" else "minimum eigenvalue -2.000e-01"
        with pytest.raises(InvalidStateError, match=f"^slice {bad}: {check}"):
            DensityMatrix.from_matrix(stack, [f"slice {i}" for i in range(4)])
        assert states == [(4, 3, 3)]
        assert traces == [(4, 3, 3)] + ([(3, 3)] * (bad + 1) if fault == "trace" else [])


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
        for p in ([np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]):  # a NaN sum is not 1
            with pytest.raises(NotADistributionError, match="^entries sum to nan, not 1 "):
                shannon_entropy(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_nats_reads_every_entry_that_is_not_positive_as_zero(self, seed):
        """``_nats`` of a spectrum with round-off negatives (-1e-17 to -1e-12), -0.0 and
        NaN among its entries is ``_nats`` of that spectrum clipped at 0, bit for bit, so
        a caller has no clip to make first."""
        rng = np.random.default_rng(3000 + seed)
        for _ in range(500):
            dim = int(rng.integers(1, 9))
            x = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
            negative = -(10.0 ** rng.uniform(-17.0, -12.0, size=dim))
            kind = rng.integers(5, size=dim)  # 0, 1: kept; 2: round-off negative; 3: -0.0; 4: NaN
            x = np.select([kind == 2, kind == 3, kind == 4], [negative, -0.0, np.nan], x)
            clipped = np.clip(x, 0.0, None)
            assert np.float64(_nats(x)).tobytes() == np.float64(_nats(clipped)).tobytes()


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

    def test_equal_matrices_take_no_eig(self, eig_calls, eigvals_calls, rng):
        a = random_density_matrix(3, rng)
        same = DensityMatrix(matrix=read_only(a.matrix))
        ulp = a.matrix.copy()
        ulp[0, 0] = np.nextafter(ulp[0, 0].real, 2.0)
        eig_calls.clear()
        assert trace_distance(a, same) == 0.0
        pure = [DensityMatrix.from_vector(np.array([1.0, 0.0])) for _ in range(2)]
        assert trace_distance(*pure) == 0.0
        assert eig_calls == eigvals_calls == []
        # unequal matrices take one eigenvalue-only call, and no eigenvectors
        assert trace_distance(a, DensityMatrix(matrix=read_only(ulp))) > 0.0
        assert (eig_calls, eigvals_calls) == ([], [1])


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
