"""Work-extraction protocol: per-outcome plans, isothermal stages, and the
cycle/transform/continuous drivers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qfeedback
from qfeedback import feedback
from qfeedback.cli import load_config
from qfeedback.errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    DomainError,
    InputError,
    InvalidModelError,
    NonPositiveTemperatureError,
    PlanMismatchError,
)
from qfeedback.feedback import (
    execute_plan,
    isothermal_work,
    plan_branches,
    plan_feedback,
    quasi_static_work,
    run_continuous,
    run_cycle,
    run_transform,
)
from qfeedback.linalg import dagger, eig_hermitian, max_abs, spectral_matrix
from qfeedback.measurement import MeasurementModel, apply
from qfeedback.sampling import random_efficient_model, random_hamiltonian
from qfeedback.thermo import (
    DensityMatrix,
    Hamiltonian,
    average_energy,
    thermal_state,
    thermo_reading,
    trace_distance,
    von_neumann_entropy,
)

from conftest import (
    PAULI_Z,
    PROJ_0,
    PROJ_1,
    PROJ_X_MINUS,
    PROJ_X_PLUS,
    maximally_mixed,
    rank_one_cases,
    stacked_outcomes,
)
from oracles import quasi_static_work_reference

LN2 = math.log(2.0)
H2LEVEL = Hamiltonian.diagonal([0.0, 1.0])


def landed_state(record, plan, n=0):
    """Outcome n's state after the rotation of its plan, the state execute_plan lands."""
    u = plan.basis_unitaries[n]
    return DensityMatrix.from_matrix(u @ record.state.matrix @ dagger(u))


class TestPlanFeedback:
    def test_thermal_fixed_point(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        plan = plan_feedback(stacked_outcomes([rho], H2LEVEL), H2LEVEL, 1.0, e_initial=e)
        # the thermal state is already ordered against energy, so the rotation
        # is trivial and the retuned-plus-shifted Hamiltonian is H itself
        assert max_abs(plan.basis_unitaries[0] - np.eye(2)) < 1e-9
        np.testing.assert_allclose(plan.levels[0] + plan.shifts[0], [0.0, 1.0], atol=1e-9)

    def test_populations_match_retuned_gibbs_weights(self):
        model = MeasurementModel.weak(PAULI_Z, 0.5)
        records = apply(model, maximally_mixed(2), Hamiltonian.zero(2))
        populations = plan_feedback(records, Hamiltonian.zero(2), 1.0, e_initial=0.0).populations[0]
        np.testing.assert_allclose(populations, [0.75, 0.25], atol=1e-12)
        levels = np.array([-math.log(0.75), -math.log(0.25)])
        gibbs = np.exp(-levels) / np.exp(-levels).sum()
        np.testing.assert_allclose(populations, gibbs, atol=1e-9)

    def test_populations_non_increasing_with_energy(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h = random_hamiltonian(dim, rng)
            model = random_efficient_model(dim, 2, rng)
            rho = thermal_state(h, 1.0)
            e = average_energy(rho, h)
            plan = plan_feedback(apply(model, rho, h), h, 1.0, e_initial=e)
            assert (np.diff(plan.populations, axis=-1) <= 1e-12).all()

    def test_pure_outcome_planned_on_its_support(self):
        h = Hamiltonian.zero(2)
        records = stacked_outcomes([DensityMatrix.from_vector(np.array([1.0, 0.0]))], h)
        plan = plan_feedback(records, h, 1.0, e_initial=0.0)
        np.testing.assert_array_equal(plan.populations, [[1.0, 0.0]])
        # the kernel level is raised to +inf, and the shift reads the support only
        assert plan.levels.tolist() == [[0.0, np.inf]]
        assert plan.shifts.tolist() == [0.0]
        [work] = execute_plan(records, plan, 1.0)
        assert work == 0.0
        ground = DensityMatrix.from_vector(plan.energy_basis[:, 0])
        assert trace_distance(landed_state(records[0], plan), ground) < 1e-15

    def test_shift_restores_initial_energy(self, rng):
        h = random_hamiltonian(3, rng)
        rho = thermal_state(h, 0.8)
        e = average_energy(rho, h)
        model = random_efficient_model(3, 3, rng)
        plan = plan_feedback(apply(model, rho, h), h, 0.8, e_initial=e)
        for levels, shift in zip(plan.levels, plan.shifts):
            # H_n + c_n·I, the Hamiltonian in force after step (iv)
            h_final = Hamiltonian.from_matrix(spectral_matrix(plan.energy_basis, levels + shift))
            landed = thermal_state(h_final, 0.8)
            assert average_energy(landed, h_final) == pytest.approx(e, abs=1e-9)


class TestExecutePlan:
    def test_fixed_point_extracts_nothing(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        records = stacked_outcomes([rho], H2LEVEL)
        plan = plan_feedback(records, H2LEVEL, 1.0, e_initial=e)
        [work] = execute_plan(records, plan, 1.0)
        assert abs(work) < 1e-9
        assert trace_distance(landed_state(records[0], plan), rho) < 1e-9

    def test_work_equals_energy_surplus(self, rng):
        # steps (i)-(iv) cash out exactly the measurement's energy injection
        h = random_hamiltonian(3, rng)
        rho = thermal_state(h, 1.0)
        e = average_energy(rho, h)
        records = apply(random_efficient_model(3, 2, rng), rho, h)
        plan = plan_feedback(records, h, 1.0, e_initial=e)
        for n, (record, work) in enumerate(zip(records, execute_plan(records, plan, 1.0))):
            assert work == pytest.approx(record.energy - e, abs=1e-9)
            state = landed_state(record, plan, n)
            assert von_neumann_entropy(state) == pytest.approx(record.entropy, abs=1e-9)

    def test_x_projector_outcome_work(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        records = apply(MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]), rho, H2LEVEL)
        plus = stacked_outcomes([records[0].state], H2LEVEL)
        plan = plan_feedback(plus, H2LEVEL, 1.0, e_initial=e)
        [work] = execute_plan(plus, plan, 1.0)
        assert work == pytest.approx(0.5 - e, abs=1e-9)

    def test_mismatched_plan_detected(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        plan = plan_feedback(stacked_outcomes([rho], H2LEVEL), H2LEVEL, 1.0, e_initial=e)
        other = stacked_outcomes([DensityMatrix.from_vector(np.array([1.0, 0.0]))], H2LEVEL)
        with pytest.raises(PlanMismatchError):
            execute_plan(other, plan, 1.0)

    def test_lands_at_large_energies(self):
        # the landed state is compared with the thermal state of H_n: the shift
        # c_n cancels in it, and at |E| ~ 1e8 H_n + c_n·I would cost the
        # eigenvectors more than the 1e-9 the check allows
        for seed in range(3):
            rng = np.random.default_rng(seed)
            h = random_hamiltonian(6, rng, scale=1e8)
            rho = thermal_state(h, 1.0)
            e = average_energy(rho, h)
            records = apply(random_efficient_model(6, 3, rng), rho, h)
            plan = plan_feedback(records, h, 1.0, e_initial=e)
            assert execute_plan(records, plan, 1.0).shape == (len(records),)
            for n, record in enumerate(records):
                state = landed_state(record, plan, n)
                assert von_neumann_entropy(state) == pytest.approx(record.entropy, abs=1e-9)


    def test_one_eig_call_for_every_outcome(self, eig_calls, eigvals_calls, rng):
        for n in (1, 2, 4):
            h = random_hamiltonian(3, rng)
            step = plan_branches(h, 1.0, random_efficient_model(3, n, rng))
            eig_calls.clear()
            eigvals_calls.clear()
            execute_plan(step.outcomes, step.plan, 1.0)
            # the N rotated states and their N differences from the landing targets,
            # eigenvalues only
            assert eig_calls == []
            assert eigvals_calls == [2 * len(step.outcomes)]

    def test_mismatch_names_the_failing_outcome(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        records = apply(MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]), rho, H2LEVEL)
        plan = plan_feedback(records, H2LEVEL, 1.0, e_initial=e)
        assert len(execute_plan(records, plan, 1.0)) == 2
        # outcome 1's plan rotates |->, not |0>, onto the ground state
        swapped = [records[0].state, DensityMatrix.from_vector(np.array([1.0, 0.0]))]
        with pytest.raises(PlanMismatchError, match="^outcome 1: landed state"):
            execute_plan(stacked_outcomes(swapped, H2LEVEL), plan, 1.0)

    def test_plans_must_pair_with_outcomes(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        plan = plan_feedback(stacked_outcomes([rho], H2LEVEL), H2LEVEL, 1.0, e_initial=e)
        with pytest.raises(PlanMismatchError, match="2 outcomes but 1 plans"):
            execute_plan(stacked_outcomes([rho, rho], H2LEVEL), plan, 1.0)


class TestIsothermal:
    def test_identity(self):
        assert isothermal_work(LN2, 0.0, 1.0) == pytest.approx(LN2)
        assert isothermal_work(0.3, 0.3, 5.0) == 0.0

    def test_quasi_static_matches_free_energy(self):
        h1 = Hamiltonian.diagonal([0.0, 2.0])
        h2 = Hamiltonian.zero(2)
        exact = math.log(2.0 / (1.0 + math.exp(-2.0)))
        approx = quasi_static_work(h1, h2, 1.0, 10_000)
        assert abs(approx - exact) < 1e-3

    def test_quasi_static_same_endpoints_zero(self):
        h = Hamiltonian.diagonal([0.3, 1.7])
        assert quasi_static_work(h, h, 1.0, 7) == 0.0

    def test_quasi_static_rejects_no_steps(self):
        h = Hamiltonian.diagonal([0.3, 1.7])
        with pytest.raises(InputError):
            quasi_static_work(h, h, 1.0, 0)

    def test_first_order_convergence(self):
        h1 = Hamiltonian.diagonal([0.0, 2.0])
        h2 = Hamiltonian.zero(2)
        exact = math.log(2.0 / (1.0 + math.exp(-2.0)))
        err_n = abs(quasi_static_work(h1, h2, 1.0, 1000) - exact)
        err_2n = abs(quasi_static_work(h1, h2, 1.0, 2000) - exact)
        assert 1.8 <= err_n / err_2n <= 2.2

    def test_off_diagonal_path(self, rng):
        # the identity is basis-free, not an artifact of diagonal Hamiltonians
        h1 = random_hamiltonian(3, rng)
        h2 = random_hamiltonian(3, rng)
        t = 1.4
        exact = (
            thermo_reading(thermal_state(h1, t), h1, t).free_energy
            - thermo_reading(thermal_state(h2, t), h2, t).free_energy
        )
        assert abs(quasi_static_work(h1, h2, t, 4000) - exact) < 1e-3


    def test_stacked_integral_matches_the_step_loop(self):
        rng = np.random.default_rng(1701)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h1 = random_hamiltonian(dim, rng)
            h2 = random_hamiltonian(dim, rng)
            t = float(rng.uniform(0.5, 2.0))
            n_steps = int(rng.integers(1, 60))
            stacked = quasi_static_work(h1, h2, t, n_steps)
            assert abs(stacked - quasi_static_work_reference(h1, h2, t, n_steps)) <= 1e-12

    @pytest.mark.parametrize(
        "temperature, n_steps, error",
        [
            (0.0, 5, NonPositiveTemperatureError),
            (-1.0, 0, NonPositiveTemperatureError),
            (math.inf, 5, DomainError),
            (1.0, 0, ArgumentRangeError),
            (1.0, -3, ArgumentRangeError),
        ],
        ids=["T=0", "T<0", "T=inf", "no-steps", "negative-steps"],
    )
    def test_quasi_static_bad_input(self, temperature, n_steps, error):
        h1 = Hamiltonian.diagonal([0.0, 2.0])
        h2 = Hamiltonian.diagonal([0.5, 1.0])
        for integral in (quasi_static_work, quasi_static_work_reference):
            with pytest.raises(error):
                integral(h1, h2, temperature, n_steps)

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, np.float64(2.0)])
    def test_quasi_static_step_count_must_be_an_integer(self, n_steps):
        """A float step count would integrate on a grid s = 0, 1/n, … that runs past H_end."""
        h1 = Hamiltonian.diagonal([0.0, 2.0])
        h2 = Hamiltonian.diagonal([0.5, 1.0])
        with pytest.raises(TypeError):
            quasi_static_work(h1, h2, 1.0, n_steps)

    def test_quasi_static_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            quasi_static_work(Hamiltonian.diagonal([0.0, 1.0]), Hamiltonian.zero(3), 1.0, 10)


class TestRunCycle:
    def test_szilard(self):
        ledger = run_cycle(
            Hamiltonian.zero(2), 1.0, MeasurementModel.bare([PROJ_0, PROJ_1])
        )
        assert ledger.work_fb == pytest.approx(LN2, abs=1e-6)
        assert abs(ledger.delta_e_meas) < 1e-10
        assert abs(ledger.delta_s_tot) < 1e-8
        assert ledger.closure_distance < 1e-8

    def test_energy_measurement(self):
        rho = thermal_state(H2LEVEL, 1.0)
        s = von_neumann_entropy(rho)
        ledger = run_cycle(H2LEVEL, 1.0, MeasurementModel.bare([PROJ_0, PROJ_1]))
        assert abs(ledger.delta_e_meas) < 1e-10
        assert ledger.work_fb == pytest.approx(s, abs=1e-6)
        assert abs(ledger.delta_s_tot) < 1e-8

    def test_x_basis_on_thermal(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        s = von_neumann_entropy(rho)
        ledger = run_cycle(H2LEVEL, 1.0, MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS]))
        assert ledger.delta_e_meas == pytest.approx(0.5 - e, abs=1e-9)
        assert ledger.work_fb == pytest.approx(s, abs=1e-6)
        assert ledger.delta_s_tot == pytest.approx(LN2 - s, abs=1e-6)
        assert ledger.delta_s_tot > 1e-4

    def test_ledger_identities_random_models(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            h = random_hamiltonian(dim, rng)
            model = random_efficient_model(dim, int(rng.integers(2, 5)), rng)
            ledger = run_cycle(h, 1.0, model)
            assert abs(ledger.work_total - (ledger.work_fb + ledger.delta_e_meas)) < 1e-9
            assert abs(ledger.work_fb - ledger.delta_s_meas) < 1e-9
            report = ledger.report
            assert report.delta_s_tot == report.shannon_outcomes - ledger.delta_s_meas
            assert ledger.closure_distance < 1e-8
            assert ledger.delta_s_tot >= -1e-9

    def test_ledger_keeps_the_outcome_stacks_apply_built(self, monkeypatch, rng):
        built = []

        def recording_apply(*args):
            built.append(apply(*args))
            return built[-1]

        monkeypatch.setattr(feedback, "apply", recording_apply)
        h, n = random_hamiltonian(3, rng), 3
        ledger = run_cycle(h, 0.8, random_efficient_model(3, n, rng))
        assert len(built) == 1 and ledger.outcomes is built[0]
        works = ledger.works
        assert works.shape == (n,) and not works.flags.writeable
        assert ledger.work_total == float(sum((ledger.outcomes.probabilities * works).tolist()))
        # one record per outcome: the per-outcome copy and its dropped indices are gone
        assert not hasattr(qfeedback, "OutcomeLedger")
        assert not hasattr(ledger, "dropped_outcomes")

    def test_ledger_keeps_the_names_perfbench_reads(self, rng):
        h = random_hamiltonian(2, rng)
        ledger = run_cycle(h, 1.5, random_efficient_model(2, 2, rng))
        assert ledger.k == 1.0
        assert ledger.delta_s_tot == ledger.report.delta_s_tot

    def test_boltzmann_constant_threads_through(self):
        # the temperature is kT: k_B·T at 300 K in joules, an SI energy
        t = 1.380649e-23 * 300.0
        ledger = run_cycle(Hamiltonian.zero(2), t, MeasurementModel.bare([PROJ_0, PROJ_1]))
        assert ledger.work_fb == pytest.approx(t * LN2, rel=1e-6)
        assert ledger.heat_from_bath == t * ledger.delta_s_meas


class TestPureOutcomes:
    """Pure outcomes are planned on their support, so the feedback reaches
    W_fb = kT·ΔS_meas to round-off, with no floor to bias it."""

    @pytest.mark.parametrize("name", ["energy-measurement", "szilard"])
    def test_presets_reach_the_bound(self, name):
        config = load_config(name)
        ledger = run_cycle(config.hamiltonian, config.temperature, config.model)
        assert abs(ledger.work_fb - config.temperature * ledger.delta_s_meas) <= 1e-13

    def test_rank_one_ensemble_reaches_the_bound(self):
        for h, t, model in rank_one_cases(120, 16):
            ledger = run_cycle(h, t, model)
            assert abs(ledger.work_fb - t * ledger.delta_s_meas) <= 1e-13
            assert abs(ledger.work_total - ledger.delta_e_meas - t * ledger.delta_s_meas) <= 1e-13

    def test_szilard_at_the_largest_temperature(self):
        # -kT ln λ stays finite on the support; the kernel level is +inf at no work
        t = 1e308
        ledger = run_cycle(Hamiltonian.zero(2), t, MeasurementModel.bare([PROJ_0, PROJ_1]))
        assert ledger.work_fb == t * LN2
        assert ledger.delta_s_meas == LN2


class TestRunTransform:
    def test_same_hamiltonian_reduces_to_cycle(self):
        model = MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS])
        cycle = run_cycle(H2LEVEL, 1.0, model)
        result = run_transform(H2LEVEL, H2LEVEL, 1.0, model)
        assert result.delta_f == pytest.approx(0.0, abs=1e-12)
        assert result.work_fb == pytest.approx(cycle.work_fb, abs=1e-12)

    def test_trivial_measurement_harvests_free_energy(self):
        h1 = Hamiltonian.diagonal([0.0, 2.0])
        h2 = Hamiltonian.zero(2)
        trivial = MeasurementModel.bare([np.eye(2, dtype=complex)])
        result = run_transform(h1, h2, 1.0, trivial)
        exact = LN2 - math.log(1.0 + math.exp(-2.0))
        assert result.delta_f == pytest.approx(exact, abs=1e-12)
        assert result.work_fb == pytest.approx(exact, abs=1e-9)

    def test_dimension_mismatch(self):
        """A 2-level cycle cannot expand onto a 3-level Hamiltonian."""
        model = MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS])
        with pytest.raises(DimensionMismatchError, match="dims differ: 2 vs 3"):
            run_transform(H2LEVEL, Hamiltonian.diagonal([0.0, 1.0, 2.0]), 1.0, model)

    def test_transform_identity_random_models(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            h1 = random_hamiltonian(dim, rng)
            h2 = random_hamiltonian(dim, rng)
            model = random_efficient_model(dim, int(rng.integers(2, 5)), rng)
            result = run_transform(h1, h2, 1.0, model)
            residual = result.work_fb - (result.delta_f + result.ledger.delta_s_meas)
            assert abs(residual) < 1e-8


def weak_z(epsilon):
    return MeasurementModel.weak(PAULI_Z, epsilon)


class TestRunContinuous:
    @pytest.mark.parametrize("n_steps", [2.5, 3.0, np.float64(2.0)])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(TypeError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), n_steps)

    @pytest.mark.parametrize("n_steps", [0, -2, np.int64(0), False])
    def test_step_count_below_one_is_a_range_error(self, n_steps):
        with pytest.raises(ArgumentRangeError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), n_steps)

    def test_numpy_step_count_is_reported_as_an_int(self):
        result = run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), np.int64(3))
        assert type(result.n_steps) is int and result.n_steps == 3
        assert result.cumulative_work_total == 3 * result.per_cycle.work_total

    def test_epsilon_guards(self):
        with pytest.raises(ValueError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(1e-7), 1)
        with pytest.raises(ValueError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.6), 1)

    def test_guards_are_input_errors(self):
        with pytest.raises(InputError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.6), 1)
        with pytest.raises(InputError):
            run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), 0)

    def test_rejects_non_weak_model(self):
        model = MeasurementModel.bare([PROJ_0, PROJ_1])
        with pytest.raises(InvalidModelError, match="weak"):
            run_continuous(Hamiltonian.zero(2), 1.0, model, 1)

    def test_quadratic_scaling(self):
        r1 = run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), 1)
        r2 = run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.05), 1)
        assert abs(r1.scaling_ratio - r2.scaling_ratio) / r2.scaling_ratio < 0.05
        assert r2.scaling_ratio == pytest.approx(0.5, rel=0.05)

    def test_cumulative_work_additivity(self):
        single = run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), 1)
        ten = run_continuous(Hamiltonian.zero(2), 1.0, weak_z(0.1), 10)
        assert ten.cumulative_work_total == pytest.approx(
            10.0 * single.cumulative_work_total, abs=1e-10
        )


class TestInefficientModels:
    def test_dephasing_cycle_negative_work(self):
        model = MeasurementModel.inefficient([[PROJ_X_PLUS, PROJ_X_MINUS]])
        ledger = run_cycle(H2LEVEL, 1.0, model)
        assert ledger.delta_s_meas < 0
        assert ledger.work_fb < 0
        assert abs(ledger.work_fb - ledger.delta_s_meas) < 1e-8
        assert abs(ledger.work_total - (ledger.work_fb + ledger.delta_e_meas)) < 1e-8
        assert ledger.closure_distance < 1e-8
        assert ledger.delta_s_tot >= -1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cycle_identity_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    h = random_hamiltonian(dim, rng)
    model = random_efficient_model(dim, int(rng.integers(2, 4)), rng)
    ledger = run_cycle(h, 1.0, model)
    assert abs(ledger.work_fb - ledger.delta_s_meas) < 1e-8
    assert ledger.delta_s_tot >= -1e-9
