"""The branch step both pictures share: ``feedback.plan_branches`` measures the
thermal state and plans every kept outcome once per run, for the measurement
cycle and the controller alike."""

import dataclasses
import sys

import numpy as np
import pytest

from qfeedback import controller, feedback
from qfeedback.controller import run_controller_cycle
from qfeedback.errors import InvalidModelError
from qfeedback.feedback import plan_branches, run_continuous, run_cycle, run_transform
from qfeedback.measurement import DEFAULT_P_FLOOR, MeasurementModel, apply, measurement_energy_cost
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian
from qfeedback.thermo import DensityMatrix, Hamiltonian, thermal_state, thermo_reading

from conftest import PROJ_0, PROJ_1

# keyword arguments both pictures take, at their defaults
FLOORS = dict(p_floor=DEFAULT_P_FLOOR)


@pytest.fixture
def steps(monkeypatch):
    """Every BranchPlans that plan_branches returns, through every module that binds it."""
    made = []
    original = feedback.plan_branches

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qfeedback" and getattr(module, "plan_branches", None) is original:
            monkeypatch.setattr(module, "plan_branches", recording)
    return made


@pytest.fixture
def blocks(monkeypatch):
    """The per-outcome blocks each controller cycle hands to feedback_unitary."""
    seen = []
    original = controller.feedback_unitary

    def recording(unitaries):
        seen.append([np.array(u) for u in unitaries])
        return original(seen[-1])

    monkeypatch.setattr(controller, "feedback_unitary", recording)
    return seen


def bare_inputs(seed, dim=3, n=3):
    rng = np.random.default_rng(seed)
    h, t = random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0))
    return h, t, random_bare_model(dim, n, rng)


@pytest.mark.parametrize(
    "run",
    [
        lambda h, t, m: run_cycle(h, t, m),
        lambda h, t, m: run_transform(h, random_hamiltonian(3, np.random.default_rng(9)), t, m),
        lambda h, t, m: run_controller_cycle(h, t, m),
        lambda h, t, m: run_continuous(h, t, MeasurementModel.weak(np.diag([1, -1, 0.5]), 0.1), 4),
    ],
    ids=["cycle", "transform", "controller", "continuous"],
)
def test_each_driver_plans_once(steps, run):
    h, t, model = bare_inputs(1)
    run(h, t, model)
    assert len(steps) == 1


@pytest.mark.parametrize("seed", range(6))
def test_controller_blocks_are_the_cycle_plans(steps, blocks, seed):
    h, t, model = bare_inputs(seed, dim=2 + seed % 3, n=2 + seed % 3)
    run_cycle(h, t, model)
    run_controller_cycle(h, t, model)
    cycle_step, _ = steps
    (controller_blocks,) = blocks
    assert [p.outcome for p in cycle_step.plans] == [r.n for r in cycle_step.outcomes]
    for plan in cycle_step.plans:
        assert controller_blocks[plan.outcome].tobytes() == plan.basis_unitary.tobytes()


def test_dropped_outcome_gets_the_identity_block(steps, blocks):
    # the third outcome never fires on any state: p = 0, so apply drops it
    model = MeasurementModel.bare([PROJ_0, PROJ_1, np.zeros((2, 2), dtype=complex)])
    h = Hamiltonian.diagonal([0.0, 1.0])
    run_cycle(h, 1.0, model)
    result = run_controller_cycle(h, 1.0, model)
    cycle_step, controller_step = steps
    assert cycle_step.outcomes.dropped == controller_step.outcomes.dropped == (2,)
    assert np.array_equal(blocks[0][2], np.eye(2))
    assert len(result.probabilities) == 2


def test_record_holds_the_shared_step():
    h, t, model = bare_inputs(4)
    step = plan_branches(h, t, model, **FLOORS)
    rho = thermal_state(h, t)
    assert step.rho.matrix.tobytes() == rho.matrix.tobytes()
    assert step.initial == thermo_reading(rho, h, t)
    outcomes = apply(model, rho, h, p_floor=FLOORS["p_floor"])
    assert [r.n for r in step.outcomes] == [r.n for r in outcomes]
    assert step.delta_e_meas == measurement_energy_cost(outcomes, step.initial.energy)
    assert step.clamp_flag is False


def test_pure_outcome_leaves_the_clamp_flag_clear():
    # a projective outcome is pure: its kernel level is raised to +inf, and nothing clamps
    model = MeasurementModel.bare([PROJ_0, PROJ_1])
    step = plan_branches(Hamiltonian.diagonal([0.0, 1.0]), 1.0, model, **FLOORS)
    for plan in step.plans:
        assert plan.levels[0] == 0.0 and plan.levels[1] == np.inf
    assert step.clamp_flag is False


def test_clamped_outcome_state_sets_the_clamp_flag(monkeypatch):
    clamped = DensityMatrix.from_matrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    assert clamped.clamped

    def clamping_apply(*args, **kwargs):
        outcomes = apply(*args, **kwargs)
        first = dataclasses.replace(outcomes[0], state=clamped)
        return dataclasses.replace(outcomes, records=(first, *outcomes[1:]))

    monkeypatch.setattr(feedback, "apply", clamping_apply)
    model = MeasurementModel.bare([PROJ_0, PROJ_1])
    step = plan_branches(Hamiltonian.diagonal([0.0, 1.0]), 1.0, model, **FLOORS)
    assert step.clamp_flag is True
    # the clamped state's eig is recomputed, and its kernel is planned like any other
    assert step.plans[0].levels[1] == np.inf


def test_controller_rejects_a_general_kraus_model_after_planning(steps):
    h, t, _ = bare_inputs(2)
    model = random_efficient_model(3, 3, np.random.default_rng(2))
    with pytest.raises(InvalidModelError):
        run_controller_cycle(h, t, model)
    assert len(steps) == 1
