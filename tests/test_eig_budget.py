"""Eig-call budget of one cycle on fresh inputs.  Each Hermitian matrix is
diagonalized once and its spectrum carried on the frozen state or Hamiltonian
that owns it, a state built from a known spectrum keeps it (a thermal state
its Gibbs weights on H's eigenvectors, a plan's landing target its Gibbs
weights on the retuned levels, a decohered joint its branch states), a state
that is PSD by construction (the correlated V ρ V†, the rotated U J U†, the
finalized p ⊗ ρ_T and the cycle's endpoint Σ p_n ρ_T) takes no eig until
something reads its spectrum, and a measurement model keeps its validation
report, so these counts hold.  They are exact, not ceilings: a decomposition
made around ``eig_hermitian`` would lower them.

The ``eig_calls`` fixture in conftest.py records one entry per call holding
the number of matrices in its stack, so each test pins both the calls and
the matrices.  With N outcomes, a fresh H (one eig) and a fresh model (N eigs
to validate a bare one, none for an efficient one), a cycle makes N + 3
calls (2N + 3 bare) on 3N + 2 matrices (4N + 2 bare): H, each outcome state,
one stacked call in ``execute_plan`` on the N rotated states and their N
differences from the landing targets (which gives each rotated state's
entropy and each landing distance), then the closure distance.  A transform
makes one more call, for H2.  A bare controller cycle makes 2N + 4 calls on
3N + 3 matrices: H, the N operators, the N outcome states, one stacked call
in ``decohere_controller`` on its N diagonal blocks, the system closure
distance and the controller marginal, whose entropy the reset reads.  The
system marginal is PSD by construction, and the controller closure compares
two equal matrices, which takes no eig."""

import numpy as np
import pytest

from qfeedback.cli import main
from qfeedback.controller import run_controller_cycle
from qfeedback.feedback import run_continuous, run_cycle, run_transform
from qfeedback.measurement import MeasurementModel, apply, validate
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import Hamiltonian, thermal_state

from conftest import PAULI_Z


def fresh_inputs(make_model, n, dim=3):
    rng = np.random.default_rng(100 + n)
    return random_hamiltonian(dim, rng), make_model(dim, n, rng)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_efficient_cycle(eig_calls, n):
    h, model = fresh_inputs(random_efficient_model, n)
    eig_calls.clear()
    run_cycle(h, 1.0, model)
    assert len(eig_calls) == n + 3
    assert sum(eig_calls) == 3 * n + 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bare_cycle(eig_calls, n):
    h, model = fresh_inputs(random_bare_model, n)
    eig_calls.clear()
    run_cycle(h, 1.0, model)
    assert len(eig_calls) == 2 * n + 3
    assert sum(eig_calls) == 4 * n + 2


# per_outcome: the matrices an outcome costs, whose stacked two are one call
@pytest.mark.parametrize(
    "make_model, per_outcome", [(random_efficient_model, 3), (random_bare_model, 4)]
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_transform(eig_calls, n, make_model, per_outcome):
    h, model = fresh_inputs(make_model, n)
    h2 = random_hamiltonian(3, np.random.default_rng(200 + n))
    eig_calls.clear()
    run_transform(h, h2, 1.0, model)
    assert len(eig_calls) == (per_outcome - 2) * n + 4
    assert sum(eig_calls) == per_outcome * n + 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controller_cycle(eig_calls, n):
    h, model = fresh_inputs(random_bare_model, n)
    eig_calls.clear()
    run_controller_cycle(h, 1.0, model)
    assert len(eig_calls) == 2 * n + 4
    assert sum(eig_calls) == 3 * n + 3


def test_model_is_checked_once(eig_calls):
    h, model = fresh_inputs(random_bare_model, 3)
    rho = thermal_state(h, 1.0)
    validate(model)
    eig_calls.clear()
    validate(model)
    assert len(eig_calls) == 0
    outcomes = apply(model, rho, h)
    assert len(eig_calls) == len(outcomes)  # one per outcome state, none for the model


def test_continuous_cost_does_not_grow_with_steps(eig_calls):
    counts = []
    for steps in (1, 10):
        h = Hamiltonian.diagonal([0.0, 1.0])
        model = MeasurementModel.weak(PAULI_Z, 0.1)
        eig_calls.clear()
        run_continuous(h, 1.0, model, steps)
        counts.append(len(eig_calls))
    assert counts[0] == counts[1] > 0


def test_continuous_costs_one_cycle(eig_calls):
    """run_continuous runs the model it is given: no rebuild, one cycle."""
    counts = []
    for run in (
        lambda h, model: run_continuous(h, 1.0, model, 5),
        lambda h, model: run_cycle(h, 1.0, model),
    ):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(3, rng)
        generator = random_hermitian(3, rng)
        model = MeasurementModel.weak(generator / np.abs(np.linalg.eigvalsh(generator)).max(), 0.2)
        eig_calls.clear()
        run(h, model)
        counts.append(len(eig_calls))
    assert counts[0] == counts[1] > 0


CONTINUOUS_CONFIG = """\
scenario_id: budget-continuous
run: {mode: continuous}
system: {dim: 2, hamiltonian: [0.0, 1.0]}
bath: {temperature: 1.0}
measurement:
  kind: weak
  generator:
    - [[1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0]]
  epsilon: 0.3
continuous: {steps: 3}
"""


def test_cli_continuous_run(eig_calls, tmp_path, capsys):
    """Config parsing builds the weak model once; the run reuses it."""
    path = tmp_path / "continuous.yaml"
    path.write_text(CONTINUOUS_CONFIG)
    eig_calls.clear()
    assert main(["run", str(path)]) == 0
    assert len(eig_calls) <= 19
