"""Objects one cycle builds on fresh inputs, as ``test_eig_budget.py`` counts eig calls.

``measurement.apply`` hands every kept outcome on as (N, …) stacks: one stacked
``DensityMatrix.from_matrix`` call checks the outcome states and returns them with
their one stacked decomposition, and builds no state object.  So the
``DensityMatrix`` objects of a cycle do not grow with N: a measurement cycle builds
two, the thermal state and the cycle's endpoint Σ p_n ρ_T; a transform one more,
the thermal state of H2; and a controller cycle nine, the thermal state, the
correlated, rotated, decohered and finalized joints, the finalized joint's two
marginals, the reset controller and the |0⟩⟨0| its closure is measured from.  No
cycle builds an ``OutcomeRecord``: a record is a view that only indexing or
iterating a ``MeasurementOutcomes`` builds.
"""

from collections import Counter

import numpy as np
import pytest

from qfeedback.controller import run_controller_cycle
from qfeedback.feedback import run_cycle, run_transform
from qfeedback.measurement import OutcomeRecord, apply
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian
from qfeedback.thermo import DensityMatrix, thermal_state


@pytest.fixture
def built(monkeypatch):
    """How many ``DensityMatrix`` and ``OutcomeRecord`` objects are constructed."""
    counts = Counter()
    for cls in (DensityMatrix, OutcomeRecord):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def fresh_inputs(make_model, n, dim=3):
    rng = np.random.default_rng(100 + n)
    return random_hamiltonian(dim, rng), make_model(dim, n, rng)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("make_model", [random_efficient_model, random_bare_model])
def test_cycle(built, make_model, n):
    h, model = fresh_inputs(make_model, n)
    assert len(run_cycle(h, 1.0, model).outcomes) == n
    assert built == Counter(DensityMatrix=2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transform(built, n):
    h, model = fresh_inputs(random_efficient_model, n)
    h2 = random_hamiltonian(3, np.random.default_rng(200 + n))
    assert len(run_transform(h, h2, 1.0, model).ledger.outcomes) == n
    assert built == Counter(DensityMatrix=3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_controller_cycle(built, n):
    h, model = fresh_inputs(random_bare_model, n)
    assert len(run_controller_cycle(h, 1.0, model).probabilities) == n
    assert built == Counter(DensityMatrix=9)


def test_records_are_built_on_demand(built):
    h, model = fresh_inputs(random_efficient_model, 3)
    rho = thermal_state(h, 1.0)
    built.clear()
    outcomes = apply(model, rho, h)
    assert built == Counter()
    records = list(outcomes)
    # each view holds its state, built around the stack row and its decomposition
    assert built == Counter(OutcomeRecord=3, DensityMatrix=3)
    assert [r.n for r in records] == outcomes.outcomes.tolist()
