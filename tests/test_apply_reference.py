"""The stacked ``measurement.apply`` against the one-outcome-at-a-time form.

``apply`` forms every X_n X_n† by one batched product, a smaller group's X_n padded
with zero columns, checks the kept outcome states with one ``DensityMatrix.from_matrix``
call on their stack, and takes every energy Tr[H ρ_n] from one stacked product.  On a
seeded family (bare, efficient, inefficient with N = 1 among them, inefficient with
groups of unequal size, and weak models; dims 2-8; T from 3e-3 to 3, so that some
outcomes are dropped) and on the small-probability draws of ``test_branch_factors``,
every row of the outcome stacks, read through its ``OutcomeRecord`` view, with its
state's spectrum and eigenvectors, and the dropped indices must equal
``oracles.apply_reference`` byte for byte.  The views are checked against their rows.
"""

import numpy as np
import pytest

from qfeedback import thermo
from qfeedback.errors import DomainError, InvalidStateError
from qfeedback.measurement import MeasurementModel, OutcomeRecord, apply
from qfeedback.sampling import (
    _normalized_ginibre,
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import DensityMatrix, Hamiltonian, thermal_state

from conftest import PROJ_0, PROJ_1, maximally_mixed, random_inefficient_model, random_unitary
from oracles import apply_reference
from test_branch_factors import tilted_ground_cases

TEMPERATURES = (3e-3, 1e-2, 0.1, 1.0, 3.0)
KINDS = ("bare", "efficient", "inefficient", "weak")
STACKS = (
    "outcomes", "probabilities", "states", "eigenvalues", "eigenvectors", "entropies", "energies"
)


def _random_model(kind, h, n, rng):
    dim = h.dim
    if kind == "bare":
        return random_bare_model(dim, n, rng)
    if kind == "efficient":
        return random_efficient_model(dim, n, rng)
    if kind == "inefficient":
        return random_inefficient_model(dim, n, rng, ops_per_outcome=int(rng.integers(1, 4)))
    g = random_hermitian(dim, rng)
    return MeasurementModel.weak(g / np.abs(np.linalg.eigvalsh(g)).max(), rng.uniform(0.05, 0.9))


def _energy_model(kind, h, n, rng):
    """Projectors onto n groups of H's eigenvectors, each rotated by a random unitary
    (efficient) or split over 1-3 rotated operators (inefficient): at small T an outcome
    on excited levels only has p_n below the floor, and is dropped."""
    groups = np.array_split(h.eig.eigenvectors, min(n, h.dim), axis=1)
    projectors = [v @ v.conj().T for v in groups]
    if kind == "bare":
        return MeasurementModel.bare(projectors)
    if kind == "efficient":
        return MeasurementModel.efficient([random_unitary(h.dim, rng) @ p for p in projectors])
    k = int(rng.integers(1, 4))
    return MeasurementModel.inefficient(
        [[random_unitary(h.dim, rng) @ p / np.sqrt(k) for _ in range(k)] for p in projectors]
    )


def seeded_cases(kind, count=120, seed=0):
    """(H, T, model) triples of one model kind on dims 2-8: random models and, for every
    kind but weak, every other one an energy-basis model; the inefficient ones start at
    N = 1."""
    rng = np.random.default_rng([seed, KINDS.index(kind)])
    lowest = 1 if kind == "inefficient" else 2
    cases = []
    for i in range(count):
        dim = int(rng.integers(2, 9))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.choice(TEMPERATURES))
        make = _energy_model if i % 2 and kind != "weak" else _random_model
        cases.append((h, temperature, make(kind, h, int(rng.integers(lowest, 5)), rng)))
    return cases


def assert_same_outcomes(got, want):
    """Every row of ``got``'s stacks, read through its record view, is ``want``'s record."""
    assert got.dropped == want.dropped
    assert len(got) == len(want.records)
    for record, reference in zip(got, want.records):
        assert record.n == reference.n
        for field in ("probability", "entropy", "energy"):
            value, expected = getattr(record, field), getattr(reference, field)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(expected).tobytes(), field
        assert record.state.matrix.tobytes() == reference.state.matrix.tobytes()
        assert record.state.eig.eigenvalues.tobytes() == reference.state.eig.eigenvalues.tobytes()
        assert (
            record.state.eig.eigenvectors.tobytes() == reference.state.eig.eigenvectors.tobytes()
        )


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_apply_is_the_reference(kind):
    dropped = single = 0
    for h, temperature, model in seeded_cases(kind):
        rho = thermal_state(h, temperature)
        got = apply(model, rho, h)
        assert_same_outcomes(got, apply_reference(model, rho, h))
        dropped += bool(got.dropped)
        single += model.n_outcomes == 1
    if kind != "weak":  # a weak outcome keeps p_n near 1/2 at any T
        assert dropped > 10
    assert single > 10 or kind != "inefficient"


def unequal_group_cases(count=120, seed=0):
    """(H, T, model) triples of inefficient models whose outcomes hold 1, 2 or 3 operators,
    never all the same number: random ones, and every other one an energy-basis model
    whose projectors are each split over rotated copies (so some outcomes are dropped)."""
    rng = np.random.default_rng([seed, 17])
    cases = []
    for i in range(count):
        dim = int(rng.integers(2, 9))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.choice(TEMPERATURES))
        n = min(int(rng.integers(2, 5)), dim) if i % 2 else int(rng.integers(2, 5))
        sizes = rng.permutation([1, 2, 3, 1][:n]).tolist()
        if i % 2:
            groups = np.array_split(h.eig.eigenvectors, n, axis=1)
            model = MeasurementModel.inefficient(
                [
                    [random_unitary(dim, rng) @ v @ v.conj().T / np.sqrt(k) for _ in range(k)]
                    for v, k in zip(groups, sizes)
                ]
            )
        else:
            operators = iter(_normalized_ginibre(dim, sum(sizes), rng))
            groups = [[next(operators) for _ in range(k)] for k in sizes]
            model = MeasurementModel.inefficient(groups)
        cases.append((h, temperature, model))
    return cases


def test_unequal_groups_are_the_reference():
    dropped = 0
    for h, temperature, model in unequal_group_cases():
        assert len({len(group) for group in model.groups}) > 1
        rho = thermal_state(h, temperature)
        got = apply(model, rho, h)
        assert_same_outcomes(got, apply_reference(model, rho, h))
        dropped += bool(got.dropped)
    assert dropped > 10


@pytest.mark.parametrize("kind", KINDS + ("unequal",))
def test_records_are_views_of_the_stack_rows(kind):
    """Every field of each ``OutcomeRecord`` view, and its state's decomposition, is its
    stack row byte for byte; every stack is read-only; and the read
    ``perfbench/workloads.py`` makes, the probabilities and then each record's entropy,
    gives the stacks' values."""
    cases = unequal_group_cases(20, seed=3) if kind == "unequal" else seeded_cases(kind, 20, 3)
    for h, temperature, model in cases:
        outcomes = apply(model, thermal_state(h, temperature), h)
        for name in STACKS:
            assert not getattr(outcomes, name).flags.writeable, name
        records = list(outcomes)
        assert len(records) == len(outcomes) == len(outcomes.outcomes)
        for i, record in enumerate(records):
            assert type(record) is OutcomeRecord
            assert type(record.n) is int and record.n == outcomes.outcomes[i]
            for field, stack in (
                ("probability", outcomes.probabilities),
                ("entropy", outcomes.entropies),
                ("energy", outcomes.energies),
            ):
                value = getattr(record, field)
                assert type(value) is float
                assert np.float64(value).tobytes() == stack[i].tobytes(), field
            assert record.state.matrix.tobytes() == outcomes.states[i].tobytes()
            assert record.state.eig.eigenvalues.tobytes() == outcomes.eigenvalues[i].tobytes()
            assert record.state.eig.eigenvectors.tobytes() == outcomes.eigenvectors[i].tobytes()
        p_ref = outcomes.probabilities
        entropies = [r.entropy for r in outcomes]
        assert np.dot(p_ref, entropies) == np.dot(p_ref, outcomes.entropies)


def test_small_probability_outcomes_are_the_reference():
    kept = dropped = 0
    for h, temperature, model in tilted_ground_cases(300, seed=41):
        rho = thermal_state(h, temperature)
        got = apply(model, rho, h)
        assert_same_outcomes(got, apply_reference(model, rho, h))
        kept += len(got) == 2 and got[1].probability < 1e-8
        dropped += bool(got.dropped)
    assert kept > 20 and dropped > 20


def test_apply_makes_one_state_call(eig_calls):
    calls = []
    original = DensityMatrix.from_matrix.__func__

    def counting(cls, matrix, where="state"):
        calls.append(np.shape(matrix))
        return original(cls, matrix, where)

    h, temperature, model = seeded_cases("bare", count=1, seed=3)[0]
    rho = thermal_state(h, temperature)
    model.report  # a fresh bare model's validation is one eig call of its own
    eig_calls.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DensityMatrix, "from_matrix", classmethod(counting))
        outcomes = apply(model, rho, h)
    assert calls == [(len(outcomes), h.dim, h.dim)]
    assert eig_calls == [len(outcomes)]


def test_a_failing_outcome_is_named(monkeypatch):
    """The stack's first slice is outcome 1 when outcome 0 is dropped: the error names
    outcome 1, as the call on that outcome alone does."""

    def refuse(lam_min, where):
        raise InvalidStateError(f"{where}: refused")

    h = Hamiltonian.diagonal([0.0, 1.0])
    rho = thermal_state(h, 0.02)  # outcome 0's p_n, about exp(-50), is below the floor
    model = MeasurementModel.bare([PROJ_1, PROJ_0])
    assert apply(model, rho, h).dropped == (0,)
    monkeypatch.setattr(thermo, "_check_spectrum_floor", refuse)
    with pytest.raises(InvalidStateError, match="^outcome 1: refused$"):
        apply(model, rho, h)
    with pytest.raises(InvalidStateError, match="^outcome 1: refused$"):
        apply_reference(model, rho, h)


@pytest.mark.parametrize("row", range(4))
def test_a_failing_outcome_costs_one_call_per_slice_up_to_it(monkeypatch, row):
    """A kept row that fails its floor check costs the stacked call and one call per slice
    up to and including it, and no call per outcome on top, and is named as outcome n."""
    rng = np.random.default_rng(29)
    h = random_hamiltonian(3, rng)
    rho = thermal_state(h, 1.0)
    model = random_efficient_model(3, 4, rng)
    clean = apply(model, rho, h)
    least = clean.eigenvalues[:, -1].tolist()
    assert len(clean) == 4 and len(set(least)) == 4
    floor = thermo._check_spectrum_floor

    def refuse(lam_min, where):  # keyed on this row's least eigenvalue alone
        if lam_min == least[row]:
            raise InvalidStateError(f"{where}: refused")
        floor(lam_min, where)

    calls = []
    original = DensityMatrix.from_matrix.__func__

    def counting(cls, matrix, where="state"):
        calls.append(np.shape(matrix))
        return original(cls, matrix, where)

    monkeypatch.setattr(thermo, "_check_spectrum_floor", refuse)
    monkeypatch.setattr(DensityMatrix, "from_matrix", classmethod(counting))
    with pytest.raises(InvalidStateError, match=f"^outcome {clean.outcomes[row]}: refused$"):
        apply(model, rho, h)
    assert calls[0] == (4, 3, 3)
    assert len(calls) <= 1 + (row + 1)


@pytest.mark.parametrize("n", [0, 1])
def test_an_imaginary_energy_is_a_domain_error(n):
    # built directly, so Hamiltonian.from_matrix's checks never ran: Tr[H ρ_n] is -0.4i
    # on outcome n alone, whichever slice of the stack that is
    diagonal = np.zeros(2, dtype=complex)
    diagonal[n] = -0.4j
    h = Hamiltonian(matrix=np.diag(diagonal))
    model = MeasurementModel.bare([PROJ_0, PROJ_1])
    with pytest.raises(DomainError, match=r"^Tr\[Hρ\] has imaginary part -4\.000e-01$"):
        apply(model, maximally_mixed(2), h)
