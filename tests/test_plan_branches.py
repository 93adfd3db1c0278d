"""The branch step both pictures share: ``feedback.plan_branches`` measures the
thermal state and plans every kept outcome once per run, for the measurement
cycle and the controller alike."""

import sys
from collections import Counter

import numpy as np
import pytest

from qfeedback import controller, feedback
from qfeedback.controller import run_controller_cycle
from qfeedback.feedback import plan_branches, run_continuous, run_cycle, run_transform
from qfeedback.measurement import MeasurementModel, apply, measurement_energy_cost
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian
from qfeedback.thermo import DensityMatrix, Hamiltonian, thermal_state, thermo_reading

from conftest import PROJ_0, PROJ_1, with_row


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
    """The (N, d, d) stack of blocks each controller cycle hands to feedback_unitary."""
    seen = []
    original = controller.feedback_unitary

    def recording(stack):
        seen.append(np.array(stack))
        return original(seen[-1])

    monkeypatch.setattr(controller, "feedback_unitary", recording)
    return seen


def bare_inputs(seed, dim=3, n=3):
    rng = np.random.default_rng(seed)
    h, t = random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0))
    return h, t, random_bare_model(dim, n, rng)


@pytest.fixture
def calls(monkeypatch):
    """How often plan_feedback and execute_plan are called, each through the feedback
    module, where plan_branches and the measurement picture look them up."""
    counts = Counter()
    for name in ("plan_feedback", "execute_plan"):

        def counting(*args, _name=name, _original=getattr(feedback, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(feedback, name, counting)
    return counts


DRIVERS = {
    "cycle": lambda h, t, m: run_cycle(h, t, m),
    "transform": lambda h, t, m: run_transform(
        h, random_hamiltonian(3, np.random.default_rng(9)), t, m
    ),
    "controller": lambda h, t, m: run_controller_cycle(h, t, m),
    "continuous": lambda h, t, m: run_continuous(
        h, t, MeasurementModel.weak(np.diag([1, -1, 0.5]), 0.1), 4
    ),
}


@pytest.mark.parametrize("run", DRIVERS.values(), ids=DRIVERS.keys())
def test_each_driver_plans_once(steps, run):
    h, t, model = bare_inputs(1)
    run(h, t, model)
    assert len(steps) == 1


@pytest.mark.parametrize("run", DRIVERS.values(), ids=DRIVERS.keys())
def test_every_outcome_is_planned_and_executed_in_one_call(calls, run):
    h, t, model = bare_inputs(1)
    run(h, t, model)
    # the controller takes the plans' unitaries as its blocks and executes no plan
    executed = 0 if run is DRIVERS["controller"] else 1
    assert calls == Counter(plan_feedback=1, execute_plan=executed)


@pytest.mark.parametrize("seed", range(6))
def test_controller_blocks_are_the_cycle_plans(steps, blocks, seed):
    h, t, model = bare_inputs(seed, dim=2 + seed % 3, n=2 + seed % 3)
    run_cycle(h, t, model)
    run_controller_cycle(h, t, model)
    cycle_step, _ = steps
    (controller_blocks,) = blocks
    plan = cycle_step.plan
    assert plan.outcomes.tolist() == [r.n for r in cycle_step.outcomes]
    assert controller_blocks[plan.outcomes].tobytes() == plan.basis_unitaries.tobytes()


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
    step = plan_branches(h, t, model)
    rho = thermal_state(h, t)
    assert step.rho.matrix.tobytes() == rho.matrix.tobytes()
    assert step.initial == thermo_reading(rho, h, t)
    outcomes = apply(model, rho, h)
    assert [r.n for r in step.outcomes] == [r.n for r in outcomes]
    assert step.delta_e_meas == measurement_energy_cost(outcomes, step.initial.energy)


def test_pure_outcome_raises_its_kernel_level_to_inf():
    # a projective outcome is pure: its kernel level is raised to +inf at no work
    model = MeasurementModel.bare([PROJ_0, PROJ_1])
    step = plan_branches(Hamiltonian.diagonal([0.0, 1.0]), 1.0, model)
    assert step.plan.levels.tolist() == [[0.0, np.inf], [0.0, np.inf]]


def test_negative_round_off_eigenvalue_is_planned_as_kernel(monkeypatch):
    # an outcome state keeps an eigenvalue in [-STATE_TOL, 0) as it stands; the plan
    # reads it as a zero population, whose level goes to +inf
    state = DensityMatrix.from_matrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
    assert state.eig.eigenvalues[-1] < 0.0

    def round_off_apply(*args, **kwargs):
        outcomes = apply(*args, **kwargs)
        dec = state.eig
        rows = dict(states=state.matrix, eigenvalues=dec.eigenvalues, eigenvectors=dec.eigenvectors)
        return with_row(outcomes, 0, **rows)

    monkeypatch.setattr(feedback, "apply", round_off_apply)
    model = MeasurementModel.bare([PROJ_0, PROJ_1])
    step = plan_branches(Hamiltonian.diagonal([0.0, 1.0]), 1.0, model)
    assert step.plan.levels[0].tolist() == [0.0, np.inf]
    assert step.plan.populations[0].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("n", [1, 3])
def test_controller_runs_a_general_kraus_model_from_one_plan(steps, blocks, n):
    """An efficient model runs in the controller from the one plan, its blocks the
    plan's unitaries and its branches the outcomes that plan keeps."""
    h, t, _ = bare_inputs(2)
    model = random_efficient_model(3, n, np.random.default_rng(2))
    result = run_controller_cycle(h, t, model)
    (step,) = steps
    (controller_blocks,) = blocks
    assert controller_blocks[step.plan.outcomes].tobytes() == step.plan.basis_unitaries.tobytes()
    assert len(result.probabilities) == len(step.outcomes)
    np.testing.assert_allclose(result.probabilities, step.outcomes.probabilities, atol=1e-12)
    assert result.delta_e_meas == step.delta_e_meas
