"""Measurement models: validation, application, and the derived
energy/entropy averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback import measurement
from qfeedback.errors import (
    DegenerateStateError,
    DimensionMismatchError,
    IncompleteModelError,
    InputError,
    InvalidModelError,
    NotHermitianError,
)
from qfeedback.linalg import dagger, max_abs
from qfeedback.measurement import (
    MeasurementModel,
    ModelKind,
    apply,
    entropy_reduction,
    measurement_energy_cost,
    validate,
)
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
)
from qfeedback.thermo import (
    DensityMatrix,
    Hamiltonian,
    shannon_entropy,
    thermal_state,
    von_neumann_entropy,
)

from conftest import (
    PAULI_Z,
    PROJ_0,
    PROJ_1,
    PROJ_X_MINUS,
    PROJ_X_PLUS,
    maximally_mixed,
    random_density_matrix,
    random_inefficient_model,
)
from oracles import average_post_state, polar_decompose

LN2 = math.log(2.0)


def binary_entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def reduction(records, s_initial):
    """ΔS_meas of a measurement's records."""
    return entropy_reduction(records.probabilities, [r.entropy for r in records], s_initial)


class TestModelConstruction:
    def test_projectors_validate(self):
        report = validate(MeasurementModel.bare([PROJ_0, PROJ_1]))
        assert report.ok
        assert report.completeness_residual < 1e-15

    def test_scaled_identity_residual(self):
        report = validate(MeasurementModel.bare([0.9 * np.eye(2, dtype=complex)]))
        assert not report.ok
        assert report.completeness_residual == pytest.approx(0.19, abs=1e-12)

    def test_weak_expansion(self):
        model = MeasurementModel.weak(PAULI_Z, 0.3)
        assert model.kind is ModelKind.WEAK
        assert model.n_outcomes == 2
        p_plus = model.groups[0][0]
        np.testing.assert_allclose(
            np.diag(p_plus).real,
            [math.sqrt(0.65), math.sqrt(0.35)],
            atol=1e-12,
        )
        assert validate(model).completeness_residual < 1e-12

    def test_weak_rejects_bad_generator(self):
        with pytest.raises(NotHermitianError):
            MeasurementModel.weak(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 0.3)
        with pytest.raises(InvalidModelError):
            MeasurementModel.weak(2.0 * PAULI_Z, 0.3)
        with pytest.raises(InvalidModelError):
            MeasurementModel.weak(PAULI_Z, 1.0)

    def test_non_positive_bare_operator_reported(self):
        # Hermitian, complete, but one operator has a negative eigenvalue
        bad = np.array([[0.6, 0.48], [0.48, -0.2]], dtype=complex)
        other = matrix_sqrt(np.eye(2, dtype=complex) - bad @ bad)
        report = validate(MeasurementModel.bare([bad, other]))
        assert not report.ok
        assert any(idx == 0 for idx, _ in report.non_positive)

    def test_inefficient_needs_operators(self):
        with pytest.raises(InvalidModelError):
            MeasurementModel.inefficient([[]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MeasurementModel.bare([]),
            lambda: MeasurementModel.efficient([]),
            lambda: MeasurementModel.inefficient([]),
            lambda: MeasurementModel.bare([PROJ_0, np.eye(3)]),
            lambda: MeasurementModel.efficient([PROJ_0, np.ones((2, 3))]),
            lambda: MeasurementModel.bare([np.ones((2, 3)), np.ones((2, 3))]),
            lambda: MeasurementModel.efficient([np.ones(2)]),
            lambda: MeasurementModel.bare([np.zeros((0, 0))]),
            lambda: MeasurementModel.inefficient([[PROJ_0], [PROJ_1, np.eye(3)]]),
            lambda: MeasurementModel.bare([[[1.0, 0.0], [0.0]]]),
            lambda: MeasurementModel.weak(np.ones(2), 0.3),
            lambda: MeasurementModel.weak(np.ones((2, 3)), 0.3),
        ],
        ids=[
            "bare-empty", "efficient-empty", "inefficient-empty", "mixed-dims", "non-square",
            "all-non-square", "one-dimensional", "zero-size", "inefficient-mixed-dims",
            "ragged", "weak-1d-generator", "weak-non-square-generator",
        ],
    )
    def test_malformed_family_is_an_input_error(self, build):
        # each raised IndexError, ValueError or AxisError from numpy, here or in validate
        with pytest.raises(InputError):
            validate(build())

    def test_operators_are_read_only_copies(self):
        ops = [PROJ_0.copy(), PROJ_1.copy()]
        generator = PAULI_Z.copy()
        for model in (
            MeasurementModel.bare(ops),
            MeasurementModel.efficient(ops),
            MeasurementModel.inefficient([ops]),
            MeasurementModel.weak(generator, 0.3),
        ):
            for group in model.groups:
                for a in group:
                    with pytest.raises(ValueError):
                        a[0, 0] = 0.5
            if model.generator is not None:
                with pytest.raises(ValueError):
                    model.generator[0, 0] = 0.5
        ops[0][0, 0] = 0.5  # the caller's arrays stay theirs
        generator[0, 0] = 0.5

    def test_out_of_range_operator_is_invalid(self):
        huge = np.array([[1e308, 0.0], [0.0, 0.0]], dtype=complex)
        report = validate(MeasurementModel.bare([huge, PROJ_1]))
        assert not report.ok
        assert math.isinf(report.completeness_residual)


def matrix_sqrt(m):
    from qfeedback.linalg import matrix_function

    return matrix_function(m, lambda x: math.sqrt(max(x, 0.0)))


class TestApply:
    def test_z_projectors_on_mixed(self):
        records = apply(
            MeasurementModel.bare([PROJ_0, PROJ_1]),
            maximally_mixed(2),
            Hamiltonian.zero(2),
        )
        assert len(records) == 2
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-14)
            assert r.entropy == pytest.approx(0.0, abs=1e-12)

    def test_weak_half_on_mixed(self):
        model = MeasurementModel.weak(PAULI_Z, 0.5)
        records = apply(model, maximally_mixed(2), Hamiltonian.zero(2))
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-14)
            assert r.entropy == pytest.approx(binary_entropy(0.75), abs=1e-12)
        np.testing.assert_allclose(
            np.diag(records[0].state.matrix).real, [0.75, 0.25], atol=1e-12
        )

    def test_every_outcome_below_floor(self, monkeypatch):
        # a complete model's probabilities sum to 1, so only a floor above 1/N drops
        # every outcome; the message names the floor in force
        monkeypatch.setattr(measurement, "P_FLOOR", 0.7)
        with pytest.raises(DegenerateStateError, match="below the floor 0.7$"):
            apply(MeasurementModel.bare([PROJ_0, PROJ_1]), maximally_mixed(2), Hamiltonian.zero(2))

    def test_x_projectors_on_thermal(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        records = apply(MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]), rho, h)
        for r in records:
            assert r.probability == pytest.approx(0.5, abs=1e-12)
            assert r.entropy == pytest.approx(0.0, abs=1e-10)
            assert r.energy == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            model = random_efficient_model(dim, int(rng.integers(2, 5)), rng)
            records = apply(model, random_density_matrix(dim, rng), Hamiltonian.zero(dim))
            assert float(records.probabilities.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_probability_outcome_dropped(self):
        # measuring |0><0| with z-projectors never yields outcome 1
        rho = DensityMatrix.from_vector(np.array([1.0, 0.0]))
        records = apply(MeasurementModel.bare([PROJ_0, PROJ_1]), rho, Hamiltonian.zero(2))
        assert len(records) == 1
        assert records.dropped == (1,)
        assert records[0].probability == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(
                MeasurementModel.bare([PROJ_0, PROJ_1]),
                maximally_mixed(3),
                Hamiltonian.zero(3),
            )

    def test_rejects_incomplete_model(self):
        half = MeasurementModel.bare([np.eye(2, dtype=complex) * 0.5])
        with pytest.raises(IncompleteModelError):
            apply(half, maximally_mixed(2), Hamiltonian.zero(2))


class TestAveragePostState:
    def test_commuting_measurement_fixes_state(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        records = apply(MeasurementModel.bare([PROJ_0, PROJ_1]), rho, h)
        after = average_post_state(records)
        assert max_abs(after.matrix - rho.matrix) < 1e-10

    def test_x_projectors_average_to_mixed(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        records = apply(MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]), rho, h)
        after = average_post_state(records)
        assert max_abs(after.matrix - np.eye(2) / 2.0) < 1e-12

    def test_projective_output_block_diagonal(self):
        rho = DensityMatrix.from_vector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        records = apply(MeasurementModel.bare([PROJ_0, PROJ_1]), rho, Hamiltonian.zero(2))
        after = average_post_state(records)
        assert abs(after.matrix[0, 1]) < 1e-14


class TestDerivedQuantities:
    def test_commuting_energy_cost_zero(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        records = apply(MeasurementModel.bare([PROJ_0, PROJ_1]), rho, h)
        e = float(np.trace(h.matrix @ rho.matrix).real)
        assert abs(measurement_energy_cost(records, e)) < 1e-10

    def test_x_projector_energy_cost(self):
        h = Hamiltonian.diagonal([0.0, 1.0])
        rho = thermal_state(h, 1.0)
        e = float(np.trace(h.matrix @ rho.matrix).real)
        records = apply(MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]), rho, h)
        assert measurement_energy_cost(records, e) == pytest.approx(0.5 - e, abs=1e-12)

    def test_projective_entropy_reduction_ln2(self):
        records = apply(
            MeasurementModel.bare([PROJ_0, PROJ_1]),
            maximally_mixed(2),
            Hamiltonian.zero(2),
        )
        assert reduction(records, LN2) == pytest.approx(LN2, abs=1e-12)

    def test_weak_entropy_reduction(self):
        records = apply(
            MeasurementModel.weak(PAULI_Z, 0.5),
            maximally_mixed(2),
            Hamiltonian.zero(2),
        )
        expected = LN2 - binary_entropy(0.75)
        assert reduction(records, LN2) == pytest.approx(expected, abs=1e-12)

    def test_dephasing_gives_negative_reduction(self):
        # single outcome grouping both projector branches: pure input state is
        # dephased, entropy rises, so the "reduction" is negative
        model = MeasurementModel.inefficient([[PROJ_0, PROJ_1]])
        plus = DensityMatrix.from_vector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        records = apply(model, plus, Hamiltonian.zero(2))
        assert reduction(records, 0.0) == pytest.approx(-LN2, abs=1e-12)


class TestBarePart:
    def test_decomposes_kraus_operator(self, rng):
        model = random_efficient_model(3, 2, rng)
        for (a,) in model.groups:
            fac = polar_decompose(a)
            assert max_abs(fac.unitary @ fac.positive - a) < 1e-10

    def test_undoing_unitary_equals_bare(self, rng):
        # applying A then undoing its unitary part acts exactly like P alone
        rho = random_density_matrix(3, rng)
        model = random_efficient_model(3, 2, rng)
        for (a,) in model.groups:
            fac = polar_decompose(a)
            via_a = dagger(fac.unitary) @ (a @ rho.matrix @ dagger(a)) @ fac.unitary
            via_p = fac.positive @ rho.matrix @ dagger(fac.positive)
            assert max_abs(via_a - via_p) < 1e-10


class TestEnsembleInequalities:
    def test_ozawa_and_nielsen(self, rng):
        # efficient measurements never raise the average entropy, and the
        # outcome record entropy bounds the reduction
        for i in range(200):
            dim = 2 + i % 5
            n_out = 2 + i % 3
            model = random_efficient_model(dim, n_out, rng)
            rho = random_density_matrix(dim, rng)
            records = apply(model, rho, Hamiltonian.zero(dim))
            s = von_neumann_entropy(rho)
            ds = reduction(records, s)
            assert ds >= -1e-9
            assert shannon_entropy(records.probabilities) - ds >= -1e-9

    def test_ando_entropy_non_decrease(self, rng):
        # bare measurements cannot lower the entropy of the average state
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            model = random_bare_model(dim, int(rng.integers(2, 5)), rng)
            rho = random_density_matrix(dim, rng)
            after = average_post_state(apply(model, rho, Hamiltonian.zero(dim)))
            assert von_neumann_entropy(after) >= von_neumann_entropy(rho) - 1e-9

    def test_thermal_energy_cost_non_negative(self, rng):
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            h = Hamiltonian.diagonal(sorted(rng.uniform(0.0, 2.0, size=dim)))
            rho = thermal_state(h, 1.0)
            e = float(np.trace(h.matrix @ rho.matrix).real)
            model = random_bare_model(dim, int(rng.integers(2, 5)), rng)
            records = apply(model, rho, h)
            assert measurement_energy_cost(records, e) >= -1e-9

    def test_commuting_energy_cost_vanishes(self, rng):
        # diagonal bare operators commute with the thermal state exactly
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h = Hamiltonian.diagonal(sorted(rng.uniform(0.0, 2.0, size=dim)))
            rho = thermal_state(h, 1.0)
            weights = rng.uniform(0.1, 1.0, size=(2, dim))
            total = np.sqrt(weights[0] ** 2 + weights[1] ** 2)
            ops = [np.diag((weights[j] / total).astype(complex)) for j in range(2)]
            records = apply(MeasurementModel.bare(ops), rho, h)
            e = float(np.trace(h.matrix @ rho.matrix).real)
            assert abs(measurement_energy_cost(records, e)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_inefficient_completeness_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    model = random_inefficient_model(dim, int(rng.integers(2, 4)), rng)
    assert validate(model).ok
    records = apply(model, random_density_matrix(dim, rng), Hamiltonian.zero(dim))
    assert float(records.probabilities.sum()) == pytest.approx(1.0, abs=1e-9)

