"""Eig-call budget of one cycle on fresh inputs.  Each Hermitian matrix is
diagonalized once and its spectrum carried on the frozen state or Hamiltonian
that owns it, a state built from a known spectrum keeps it (a thermal state
its Gibbs weights on H's eigenvectors, a plan's landing target its Gibbs
weights on the retuned levels), a state that is PSD by construction (the
correlated V ρ V†, the rotated U J U†, the finalized p ⊗ ρ_T, its two
marginals and the cycle's endpoint Σ p_n ρ_T) takes no eig until something
reads its spectrum, a check that reads only eigenvalues asks
``eigvals_hermitian`` for them and no eigenvectors, and a measurement model
keeps its validation report, so these counts hold.  They are exact, not
ceilings: a decomposition made around ``eig_hermitian`` or
``eigvals_hermitian`` would lower them.

The ``eig_calls`` and ``eigvals_calls`` fixtures in conftest.py record one
entry per call holding the number of matrices in its stack, so each test pins
both the calls and the matrices of each.  They count where each LAPACK routine
runs, ``eig_hermitian`` for eigh and ``linalg._eigvals`` for eigvalsh, so the
cycle's eigenvalue-only calls, which skip the public ``eigvals_hermitian``,
count too.  With N outcomes, a fresh H (one eig)
and a fresh model (one stacked call on its N operators to validate a bare one,
none for an efficient one), a cycle makes 2 eig calls (3 bare) on N + 1
matrices (2N + 1 bare): H and one stacked call in ``apply`` on the N outcome
states.  It makes two eigenvalue-only calls: one in ``execute_plan``, on the
N rotated states and their N differences from the landing targets, which
gives each rotated state's entropy and spectrum floor and each landing
distance, and one for the closure distance: 3N + 2 matrices in all (4N + 2
bare), each checked once.  The closure distance compares Σ p_n ρ_T with ρ_T,
which differ only when the renormalized p_n fail to sum to 1 bit for bit,
and two equal matrices take no call: the efficient draw with N = 2 has p_n
that sum to exactly 1, so ``CLOSURE_EIG`` pins it one call and one matrix
lower.  A transform makes one eig call more, for H2, and its closure
distance always takes an eigenvalue-only call.  A bare controller cycle makes
3 eig calls on 2N + 1 matrices: H, the N operators and the N outcome states.
Its eigenvalue-only calls are one stacked call in ``decohere_controller`` on
its N diagonal blocks, which gives every block's spectrum floor and the
branch entropies, and one for the system closure distance: 3N + 2 matrices
in all, as before.  No branch state is built.  The reset reads the
record entropy from the controller marginal's diagonal, and the controller
closure compares two equal matrices, which takes no call.

The ``residual_calls`` fixture counts ``linalg.hermitian_residual``, the
M − M† test, likewise.  A matrix is tested once: where a caller hands it to a
public call or the cycle forms it by a product (X X†, U ρ U†), never where the
cycle builds it from checked ones by exactly Hermitian steps (a thermal state,
``execute_plan``'s eigenvalue-only stack, the endpoint, the pinched and
finalized joints, both marginals, and the decohered blocks and their
eigenvalue-only call), which ``test_exact_hermitian.py`` holds to residual 0.
The one exception is a bare or weak model's report: one stacked call tests all N
operators, and the stacked eig on those that pass tests them again.  So
``RESIDUAL_BUDGET`` pins every test a fresh run makes."""

import numpy as np
import pytest

from qfeedback.cli import main
from qfeedback.controller import (
    correlate,
    decohere_controller,
    finalize_branches,
    reset_controller,
    run_controller_cycle,
)
from qfeedback.feedback import run_continuous, run_cycle, run_transform
from qfeedback.measurement import MeasurementModel, apply, validate
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import Hamiltonian, thermal_state, von_neumann_entropy

from conftest import PAULI_Z, PROJ_0, PROJ_1
from oracles import validation_report_reference


def fresh_inputs(make_model, n, dim=3):
    rng = np.random.default_rng(100 + n)
    return random_hamiltonian(dim, rng), make_model(dim, n, rng)


# whether the closure distance of the efficient draw with n outcomes takes a call
CLOSURE_EIG = {2: 0, 3: 1, 4: 1}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_efficient_cycle(eig_calls, eigvals_calls, n):
    h, model = fresh_inputs(random_efficient_model, n)
    eig_calls.clear()
    run_cycle(h, 1.0, model)
    assert len(eig_calls) == 2
    assert sum(eig_calls) == n + 1
    assert eigvals_calls == [2 * n] + [1] * CLOSURE_EIG[n]
    assert sum(eig_calls) + sum(eigvals_calls) == 3 * n + 1 + CLOSURE_EIG[n]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bare_cycle(eig_calls, eigvals_calls, n):
    h, model = fresh_inputs(random_bare_model, n)
    eig_calls.clear()
    run_cycle(h, 1.0, model)
    assert len(eig_calls) == 3
    assert sum(eig_calls) == 2 * n + 1
    assert eigvals_calls == [2 * n, 1]
    assert sum(eig_calls) + sum(eigvals_calls) == 4 * n + 2


# per_outcome: the matrices an outcome costs; a bare model's operators take one call
@pytest.mark.parametrize(
    "make_model, per_outcome", [(random_efficient_model, 3), (random_bare_model, 4)]
)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_transform(eig_calls, eigvals_calls, n, make_model, per_outcome):
    h, model = fresh_inputs(make_model, n)
    h2 = random_hamiltonian(3, np.random.default_rng(200 + n))
    eig_calls.clear()
    run_transform(h, h2, 1.0, model)
    assert len(eig_calls) == 3 + (make_model is random_bare_model)
    assert eigvals_calls == [2 * n, 1]
    assert sum(eig_calls) + sum(eigvals_calls) == per_outcome * n + 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controller_cycle(eig_calls, eigvals_calls, n):
    h, model = fresh_inputs(random_bare_model, n)
    eig_calls.clear()
    run_controller_cycle(h, 1.0, model)
    assert len(eig_calls) == 3
    assert sum(eig_calls) == 2 * n + 1
    assert eigvals_calls == [n, 1]
    assert sum(eig_calls) + sum(eigvals_calls) == 3 * n + 2


def _cycle(h, h2, model):
    return run_cycle(h, 1.0, model)


def _transform(h, h2, model):
    return run_transform(h, h2, 1.0, model)


def _controller(h, h2, model):
    return run_controller_cycle(h, 1.0, model)


# hermitian_residual calls of a fresh run at N = 2, 3, 4.  A measurement cycle makes
# four, H's eig, apply's check of its X X† / p stack and the eig on that stack, and
# execute_plan's check of U ρ U†, and one for its closure distance when that takes a
# call (as CLOSURE_EIG says for an efficient cycle, always for the other runs).  A bare
# model adds two at any N, one stacked test of its N operators and their one stacked
# eig, and a transform H2's eig.  A bare controller cycle makes H's eig, the model's
# two, apply's two, the rotated U J U† and the system closure's call; the correlated
# X X†, built from the checked ρ and model, is hermitized and not tested.
RESIDUAL_BUDGET = [
    ("efficient-cycle", random_efficient_model, _cycle, [4, 5, 5]),
    ("bare-cycle", random_bare_model, _cycle, [7, 7, 7]),
    ("efficient-transform", random_efficient_model, _transform, [6, 6, 6]),
    ("bare-transform", random_bare_model, _transform, [8, 8, 8]),
    ("bare-controller", random_bare_model, _controller, [7, 7, 7]),
]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "make_model, run, budget",
    [case[1:] for case in RESIDUAL_BUDGET],
    ids=[case[0] for case in RESIDUAL_BUDGET],
)
def test_residual_budget(residual_calls, n, make_model, run, budget):
    """Each matrix is tested for Hermiticity once, where it is given or formed by a
    product: no matrix the run builds exactly Hermitian from checked ones is tested."""
    h, model = fresh_inputs(make_model, n)
    h2 = random_hamiltonian(3, np.random.default_rng(200 + n))
    residual_calls.clear()
    run(h, h2, model)
    assert len(residual_calls) == budget[n - 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reset_reads_the_marginal_without_an_eig(eig_calls, n):
    """The finalized joint diag(p) ⊗ ρ_T has a diagonal controller marginal, whose
    diagonal, sorted, is its spectrum: the reset's S({p_n}) is the one an eig gives."""
    h, model = fresh_inputs(random_bare_model, n)
    rho = thermal_state(h, 1.0)
    kept = range(n)
    joint, branches = decohere_controller(correlate(rho, model), kept)
    s = von_neumann_entropy(rho)
    final, bath = finalize_branches(joint, rho, branches, s)
    eig_calls.clear()
    marginal = final.controller_state()
    _, bath = reset_controller(marginal, bath)
    assert eig_calls == []
    spectrum = marginal.eig.eigenvalues
    assert spectrum.tobytes() == np.sort(np.diag(marginal.matrix).real)[::-1].tobytes()
    assert bath.reset_addition == von_neumann_entropy(marginal)


def test_bare_report_is_one_call(eig_calls):
    """A fresh bare model's positivity check diagonalizes every operator that passes
    the Hermiticity test in one call, and reports as the check one at a time does."""
    skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)  # not Hermitian
    negative = np.diag([0.6, -0.2]).astype(complex)  # Hermitian, not positive
    model = MeasurementModel.bare([skew, PROJ_0, negative, PROJ_1])
    eig_calls.clear()
    report = validate(model)
    assert eig_calls == [3]
    assert report == validation_report_reference(model)
    assert [n for n, _ in report.non_positive] == [0, 2]


def test_model_is_checked_once(eig_calls):
    h, model = fresh_inputs(random_bare_model, 3)
    rho = thermal_state(h, 1.0)
    validate(model)
    eig_calls.clear()
    validate(model)
    assert len(eig_calls) == 0
    outcomes = apply(model, rho, h)
    assert eig_calls == [len(outcomes)]  # one call on every outcome state, none for the model


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
