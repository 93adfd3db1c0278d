"""One factor per branch for both pictures: X_nj = A_nj ρ^½, with ρ^½ read from ρ's
decomposition.  ``apply`` builds ρ_n = Σ_j X_nj X_nj† / p_n with p_n = Σ_j ‖X_nj‖²_F, and
``correlate`` the joint X X† with X the stack of the X_n, so an outcome's round-off scales
with its p_n, in either picture."""

import numpy as np
import pytest

from qfeedback.controller import correlate, run_controller_cycle
from qfeedback.feedback import run_cycle
from qfeedback.linalg import dagger, max_abs
from qfeedback.measurement import MeasurementModel, apply
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import thermal_state

from conftest import random_inefficient_model


def tilted_ground_cases(count=600, seed=36):
    """(H, T, model): a random H on dims 2-4 at T of 1e-3 or 1e-2, measured by
    {|g'⟩⟨g'|, I - |g'⟩⟨g'|}, g' the ground state tilted toward the first excited state by
    10^U(-10, -6).  The second outcome's p_n is about the tilt squared, so some fall below
    measurement.P_FLOOR and the others are kept with p_n between 1e-14 and 1e-12."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        dim = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.choice([1e-3, 1e-2]))
        v = h.eig.eigenvectors  # by falling energy: the ground state is the last column
        tilted = v[:, -1] + 10.0 ** rng.uniform(-10, -6) * v[:, -2]
        tilted = tilted / np.linalg.norm(tilted)
        projector = np.outer(tilted, tilted.conj())
        cases.append((h, temperature, MeasurementModel.bare([projector, np.eye(dim) - projector])))
    return cases


@pytest.mark.parametrize("run", [run_cycle, run_controller_cycle], ids=["cycle", "controller"])
def test_small_probability_outcomes_run_in_both_pictures(run):
    # an outcome state formed as A ρ A† / p_n would carry the absolute round-off of
    # A ρ A† divided by p_n, past the 1e-10 state checks at these p_n
    small = 0
    for h, temperature, model in tilted_ground_cases():
        result = run(h, temperature, model)
        assert result.report.verdict
        p = [o.probability for o in result.outcomes] if run is run_cycle else result.probabilities
        small += len(p) == 2 and min(p) < 1e-8
    assert small > 100


def factor_cases():
    """The tilted-ground draws, then seeded bare and weak models on dims 2-6 at T from
    1e-3 to 2."""
    cases = tilted_ground_cases(150, seed=37)
    rng = np.random.default_rng(38)
    for dim in (2, 3, 4, 6):
        for temperature in (1e-3, 0.1, 2.0):
            h = random_hamiltonian(dim, rng)
            cases.append((h, temperature, random_bare_model(dim, int(rng.integers(2, 5)), rng)))
            g = random_hermitian(dim, rng)
            weak = MeasurementModel.weak(g / np.abs(np.linalg.eigvalsh(g)).max(), 0.3)
            cases.append((h, temperature, weak))
    return cases


def test_kept_joint_blocks_are_the_outcome_states():
    blocks = 0
    for h, temperature, model in factor_cases():
        rho = thermal_state(h, temperature)
        joint = correlate(rho, model)
        p = joint.probabilities()
        for record in apply(model, rho, h):
            n = record.n
            block = joint.blocks()[n, :, n, :] / p[n]
            assert max_abs(block - record.state.matrix) <= 1e-15
            blocks += 1
    assert blocks > 200


@pytest.mark.parametrize(
    "make_model",
    [random_bare_model, random_efficient_model, random_inefficient_model],
    ids=["bare", "efficient", "inefficient"],
)
def test_outcome_states_are_the_kraus_products(make_model):
    # where p_n is not small, Σ_j A_nj ρ A_nj† / p_n is as exact as the factor form
    rng = np.random.default_rng(39)
    for dim in (2, 3, 5):
        h = random_hamiltonian(dim, rng)
        model = make_model(dim, 3, rng)
        rho = thermal_state(h, float(rng.uniform(0.3, 2.0)))
        records = apply(model, rho, h)
        assert len(records) == 3
        for record in records:
            group = model.groups[record.n]
            numerator = sum(a @ rho.matrix @ dagger(a) for a in group)
            p = numerator.trace().real
            assert p > 1e-3
            assert max_abs(numerator / p - record.state.matrix) <= 1e-14
