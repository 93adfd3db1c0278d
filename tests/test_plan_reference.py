"""Stacked feedback plans and their execution against the one-outcome-at-a-time forms.

``feedback.plan_feedback`` plans every kept outcome as one stacked ``FeedbackPlan``,
and ``execute_plan`` reads its stacks to build the rotated states, their populations
and the landing targets, checked by one ``thermo._unit_trace`` call, and returns the
works.  On a seeded family (bare, efficient and inefficient models, and projective
ones whose rank-1 outcomes are pure, so their kernel levels are +inf; dims 1-16,
N 1-4, T from 1e-3 to 1e3) slice n of every stacked field must equal
``oracles.plan_feedback_reference`` for outcome n, and every work
``oracles.execute_plan_reference``'s, byte for byte.  One failing outcome among good
ones must raise the reference's exception class and message.
"""

import dataclasses

import numpy as np
import pytest

from qfeedback.errors import ArgumentRangeError, DomainError, InvalidStateError, PlanMismatchError
from qfeedback import feedback
from qfeedback.feedback import execute_plan, plan_feedback
from qfeedback.measurement import MeasurementModel, apply
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian
from qfeedback.thermo import DensityMatrix, Hamiltonian, thermal_state, thermo_reading

from conftest import random_inefficient_model, random_unitary, stacked_outcomes, with_row
from oracles import execute_plan_reference, plan_feedback_reference

CASES = 160


def _projective_model(dim, n, rng):
    """n projectors onto a random basis: n - 1 of rank 1, whose outcomes are pure, and
    the projector onto the rest."""
    basis = random_unitary(dim, rng)
    n = min(n, dim)
    groups = [basis[:, i : i + 1] for i in range(n - 1)] + [basis[:, n - 1 :]]
    return MeasurementModel.bare([g @ g.conj().T for g in groups])


MODELS = (random_bare_model, random_efficient_model, random_inefficient_model, _projective_model)


def _case(i):
    """Seeded (h, T, records, E) with ``records`` the outcomes apply keeps at h's thermal
    state of temperature T, and E that state's energy."""
    rng = np.random.default_rng(7300 + i)
    dim = int(rng.integers(1, 17))
    n = int(rng.integers(1, 5))
    temperature = float(10.0 ** rng.uniform(-3.0, 3.0))
    h = random_hamiltonian(dim, rng)
    model = MODELS[i % len(MODELS)](dim, n, rng)
    rho = thermal_state(h, temperature)
    return h, temperature, apply(model, rho, h), thermo_reading(rho, h, temperature).energy


def _result(call):
    """What ``call`` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared with the reference's, class and message
        return type(exc), str(exc)


def _plan_bytes(plan):
    """Slice n of every field of the stacked ``plan``, for each n."""
    return [
        (
            int(plan.outcomes[n]),
            plan.basis_unitaries[n].tobytes(),
            plan.energy_basis.tobytes(),
            plan.levels[n].tobytes(),
            plan.shifts[n].tobytes(),
            plan.populations[n].tobytes(),
        )
        for n in range(len(plan.outcomes))
    ]


def _reference_bytes(plans):
    """The same fields of each per-outcome reference plan."""
    return [
        (
            p.outcome,
            p.basis_unitary.tobytes(),
            p.energy_basis.tobytes(),
            p.levels.tobytes(),
            np.float64(p.shift).tobytes(),
            p.populations.tobytes(),
        )
        for p in plans
    ]


def _work_bytes(works):
    return [np.float64(work).tobytes() for work in works]


def _plans(records, h, temperature, e):
    return tuple(plan_feedback_reference(r, h, temperature, e) for r in records)


def _raised(result):
    return isinstance(result, tuple) and result and isinstance(result[0], type)


def _compare(result, reference, as_bytes, reference_bytes=None):
    if _raised(reference):
        assert result == reference
    else:
        assert as_bytes(result) == (reference_bytes or as_bytes)(reference)


def test_family_reaches_every_branch():
    cases = [_case(i) for i in range(CASES)]
    assert {len(records) for _, _, records, _ in cases} == {1, 2, 3, 4}
    assert {h.dim for h, _, _, _ in cases} == set(range(1, 17))
    # pure outcomes, whose kernel levels are +inf, in most projective cases
    kernels = sum(
        any(np.isinf(plan_feedback_reference(r, h, t, e).levels).any() for r in records)
        for h, t, records, e in cases[3 :: len(MODELS)]
    )
    assert kernels >= CASES // len(MODELS) // 2


@pytest.mark.parametrize("i", range(CASES))
def test_stacked_plans_and_landing_match_the_reference(i):
    h, temperature, records, e = _case(i)
    reference = _result(lambda: _plans(records, h, temperature, e))
    plan = _result(lambda: plan_feedback(records, h, temperature, e))
    _compare(plan, reference, _plan_bytes, _reference_bytes)
    if _raised(reference):
        return
    assert plan.basis_unitaries.shape == (len(records), h.dim, h.dim)
    assert plan.energy_basis.shape == (h.dim, h.dim)
    works_reference = _result(lambda: execute_plan_reference(records, reference, temperature))
    works = _result(lambda: execute_plan(records, plan, temperature))
    _compare(works, works_reference, _work_bytes)


def _good_case(n=3):
    """A dim-3 efficient case with n kept outcomes that plans and lands: its records,
    stacked plan and reference plans."""
    rng = np.random.default_rng(11)
    h = random_hamiltonian(3, rng)
    rho = thermal_state(h, 0.9)
    records = apply(random_efficient_model(3, n, rng), rho, h)
    e = thermo_reading(rho, h, 0.9).energy
    return records, plan_feedback(records, h, 0.9, e), _plans(records, h, 0.9, e)


def _assert_same_error(error, call, reference):
    with pytest.raises(error) as raised:
        reference()
    with pytest.raises(error) as got:
        call()
    assert type(got.value) is type(raised.value)
    assert str(got.value) == str(raised.value)


@pytest.mark.parametrize("bad", range(3))
def test_non_finite_level_names_the_outcome(bad):
    # at kT = 1e308, -kT ln(0.1) overflows while -kT ln(0.5) and -kT ln(0.9) do not
    h = Hamiltonian.zero(2)
    states = [np.diag([0.5, 0.5]), np.diag([0.9, 0.1]), np.diag([0.5, 0.5])]
    states[0], states[bad] = states[bad], states[0]
    records = stacked_outcomes([DensityMatrix.from_matrix(m) for m in states], h, (4, 5, 6))
    _assert_same_error(
        DomainError,
        lambda: plan_feedback(records, h, 1e308, 0.0),
        lambda: _plans(records, h, 1e308, 0.0),
    )


def _fault(records, n, fault):
    """``records`` with row n made to fail execute_plan's check ``fault``: "landing" gives it
    the next outcome's state, which its plan was not made for (and whose entropy differs
    from its S_n, so its drift fails too), "entropy" moves its S_n by 1e-6 and
    "nan-entropy" makes it NaN."""
    if fault == "landing":
        return with_row(records, n, states=records.states[(n + 1) % len(records)])
    shift = 1e-6 if fault == "entropy" else np.nan
    return with_row(records, n, entropies=records.entropies[n] + shift)


@pytest.mark.parametrize("bad", range(3))
@pytest.mark.parametrize("fault", ["landing", "entropy", "nan-entropy"])
def test_plan_mismatch_names_the_outcome(bad, fault):
    records, plan, plans = _good_case()
    records = _fault(records, bad, fault)
    _assert_same_error(
        PlanMismatchError,
        lambda: execute_plan(records, plan, 0.9),
        lambda: execute_plan_reference(records, plans, 0.9),
    )


CHECK_MESSAGES = {"landing": "landed state is ", "entropy": "entropy drifted by 1.0"}


@pytest.mark.parametrize("first, second", [("entropy", "landing"), ("landing", "entropy")])
def test_first_failing_outcome_raises_its_first_failing_check(first, second):
    """Outcomes 0 and 1 fail different checks in one call: the stacked test raises outcome
    0's, as the one-outcome-at-a-time reference does; outcome 0's landing fault also
    fails its entropy check, and the landing check, which comes first, is raised."""
    records, plan, plans = _good_case()
    records = _fault(_fault(records, 0, first), 1, second)
    _assert_same_error(
        PlanMismatchError,
        lambda: execute_plan(records, plan, 0.9),
        lambda: execute_plan_reference(records, plans, 0.9),
    )
    named = f"^outcome {plan.outcomes[0]}: {CHECK_MESSAGES[first]}"
    with pytest.raises(PlanMismatchError, match=named):
        execute_plan(records, plan, 0.9)


@pytest.mark.parametrize("bad", range(3))
@pytest.mark.parametrize(
    "poison, error, message",
    [
        ("deviation", PlanMismatchError, r"landed state is nan from thermal \(tolerance 1e-09\)"),
        ("floor", InvalidStateError, r"minimum eigenvalue -2\.000e-10 below -1e-10"),
    ],
)
def test_spectra_that_fail_alone_name_their_outcome(monkeypatch, bad, poison, error, message):
    """Only outcome ``bad``'s row of the one eigenvalue-only call is spoiled: a NaN landing
    distance, or a least rotated eigenvalue below the floor (which no landing within
    PLAN_TOL rules out), fails it, and it alone is named."""
    records, plan, _ = _good_case()
    solver = feedback._eigvals

    def spoiled(m):
        spectra = solver(m).copy()
        if poison == "deviation":
            spectra[len(records) + bad] = np.nan
        else:
            spectra[bad, -1] = -2e-10
        return spectra

    monkeypatch.setattr(feedback, "_eigvals", spoiled)
    with pytest.raises(error, match=f"^outcome {plan.outcomes[bad]}: {message}$"):
        execute_plan(records, plan, 0.9)


@pytest.mark.parametrize("bad", range(3))
@pytest.mark.parametrize(
    "fault", ["trace", "hermitian", "not-finite", "trace-then-hermitian", "landing-then-trace"]
)
def test_invalid_rotated_state_raises_the_single_check(bad, fault):
    records, plan, plans = _good_case()
    m = records.states[bad]
    skew = np.triu(np.ones_like(m), 1)
    if fault == "trace":
        records = with_row(records, bad, states=1.5 * m)
    elif fault == "hermitian":
        records = with_row(records, bad, states=m + 1e-6 * (skew - skew.T))
    elif fault == "not-finite":
        records = with_row(records, bad, states=np.where(np.eye(3) > 0, m, np.inf))
    elif fault == "trace-then-hermitian":
        # the first failing slice's check is raised, though a later one fails first
        records = with_row(records, bad, states=1.5 * m)
        other = 2 if bad < 2 else 0
        records = with_row(records, other, states=records.states[other] + 1e-6 * skew)
    else:  # every state check comes before any landing check, whichever row comes first
        records = _fault(records, bad, "landing")
        other = 2 if bad < 2 else 0
        records = with_row(records, other, states=1.5 * records.states[other])
    with np.errstate(invalid="ignore", over="ignore"):  # inf entries in the products
        _assert_same_error(
            InvalidStateError,
            lambda: execute_plan(records, plan, 0.9),
            lambda: execute_plan_reference(records, plans, 0.9),
        )
    if fault == "landing-then-trace":
        with pytest.raises(InvalidStateError, match=r"^rotated outcome state: trace 1\.49"):
            execute_plan(records, plan, 0.9)


def test_no_outcome_is_an_argument_error():
    with pytest.raises(ArgumentRangeError, match="plan_feedback needs at least one outcome"):
        plan_feedback([], Hamiltonian.zero(2), 1.0, 0.0)
    _, plan, _ = _good_case()
    stacked = ("outcomes", "basis_unitaries", "levels", "shifts", "populations")
    empty = dataclasses.replace(plan, **{name: getattr(plan, name)[:0] for name in stacked})
    with pytest.raises(ArgumentRangeError, match="execute_plan needs at least one outcome"):
        execute_plan([], empty, 1.0)
