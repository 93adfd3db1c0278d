"""The work-extraction protocol: per-outcome feedback, isothermal expansion,
and the per-cycle ledgers that carry the second-law accounting.

Per outcome, the controller (i) rotates the post-measurement state into the
energy eigenbasis, (ii) orders populations so they fall with rising energy,
(iii) retunes the level spacings so those populations are exactly thermal at
the bath temperature, and (iv) shifts all levels to restore the original
average energy.  Steps (i)-(iv) extract E_n - E of work; the closing
isothermal expansion back to the original Hamiltonian extracts kT(S - S_n)
more and leaves the system in its initial thermal state.

Energy bookkeeping convention: unitary steps change Tr[Hρ] at fixed H and
count as work; Hamiltonian retunings at fixed ρ contribute work Tr[ΔH ρ];
the isothermal stage draws heat kT·(S - S_n) from the bath.  A temperature
is kT itself, in the Hamiltonian's energy units.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentRangeError, DimensionMismatchError, DomainError, InvalidModelError, PlanMismatchError
)
from .linalg import _eigvals, dagger, eig_hermitian, spectral_matrix
from .measurement import (
    MeasurementModel,
    MeasurementOutcomes,
    ModelKind,
    SecondLawReport,
    apply,
    entropy_reduction,
    measurement_energy_cost,
    second_law_verdict,
)
from .thermo import (
    STATE_TOL,
    DensityMatrix,
    Hamiltonian,
    ThermoReading,
    _check_spectrum_floor,
    _nats,
    _unit_trace,
    boltzmann_kt,
    gibbs_weights,
    thermal_state,
    thermo_reading,
    trace_distance,
)

# the landing's bound on a landed state's distance from thermal and entropy drift
PLAN_TOL = 1e-9
# Weak-measurement strengths run_continuous accepts; config validation reads it.
CONTINUOUS_EPSILON_RANGE = (1e-6, 0.5)


@dataclass(frozen=True)
class FeedbackPlan:
    """Reversible operations for every kept outcome, stacked along the first axis.

    ``basis_unitaries[n]`` implements steps (i)+(ii) for outcome ``outcomes[n]``:
    it maps the state's eigenbasis onto ``energy_basis``, H's eigenvectors by
    rising energy, with populations sorted against energy.  ``levels[n]`` are
    the retuned levels of step (iii) on that basis, ε_j = -kT ln λ_j on the
    outcome's support and +inf on its kernel, and ``shifts[n]`` is the uniform
    offset of step (iv) that restores the initial average energy.
    """

    outcomes: np.ndarray  # (N,) kept outcome indices
    basis_unitaries: np.ndarray  # (N, d, d)
    energy_basis: np.ndarray  # (d, d), one for every outcome
    levels: np.ndarray  # (N, d), ascending, +inf where the population is 0
    shifts: np.ndarray  # (N,)
    populations: np.ndarray  # (N, d), spectra, descending, negatives set to 0


@dataclass(frozen=True)
class BranchPlans:
    """The step both pictures share, from :func:`plan_branches`."""

    rho: DensityMatrix  # thermal state
    initial: ThermoReading  # E, S, F of rho
    outcomes: MeasurementOutcomes  # the outcomes apply keeps
    plan: FeedbackPlan  # the kept outcomes, in order
    delta_e_meas: float


@dataclass(frozen=True)
class CycleLedger:
    """Everything one feedback cycle did, with the second-law bottom line, in either
    picture.

    ``probabilities`` and ``entropies`` are the p_n and S_n that ΔS_meas sums, apply's in
    the measurement picture and read from the joint in the controller's, and ``works[n]``
    the work of branch n, feedback plus isothermal stage, each a read-only (N,) array by
    rising outcome index.
    ``work_total`` is their p-weighted sum, the average work extracted over the whole
    cycle including the recovery of measurement work; ``work_fb`` nets out the energy
    the measurement itself injected, and for a closed cycle equals kT·ΔS_meas.
    ``report`` carries ΔS_tot = S({p_n}) - ΔS_meas, the entropy change of the universe
    once the controller's record is reset, with its verdict.  ``outcomes`` is the record
    :func:`~qfeedback.measurement.apply` built, stacks and dropped indices.  Holding
    arrays, a ledger is not hashable, and ``==`` between two distinct ledgers raises.
    """

    initial: ThermoReading
    temperature: float  # kT
    outcomes: MeasurementOutcomes
    probabilities: np.ndarray  # (N,) p_n, read-only
    entropies: np.ndarray  # (N,) S_n, read-only
    works: np.ndarray  # (N,) ΔW_n, read-only
    delta_e_meas: float
    delta_s_meas: float
    work_total: float
    work_fb: float
    report: SecondLawReport
    heat_from_bath: float
    closure_distance: float

    # Kept for readers outside the package (perfbench/workloads.py) until they read
    # ``report.delta_s_tot`` and ``temperature`` as kT.
    @property
    def delta_s_tot(self) -> float:
        return self.report.delta_s_tot

    @property
    def k(self) -> float:
        """Boltzmann's constant, 1.0: ``temperature`` is kT."""
        return 1.0


@dataclass(frozen=True)
class TransformResult:
    """Cycle ledger for a run that ends on a different Hamiltonian, plus the
    free-energy drop ΔF = F₁ - F₂ the controller banked on top of kT·ΔS_meas."""

    delta_f: float
    free_energy_final: float
    work_fb: float
    ledger: CycleLedger


@dataclass(frozen=True)
class ContinuousResult:
    """Repeated weak-measurement cycles plus the ε²-scaling readout."""

    epsilon: float
    n_steps: int
    per_cycle: CycleLedger
    cumulative_work_total: float
    cumulative_work_fb: float
    delta_s_meas_per_step: float
    scaling_ratio: float  # ΔS_meas(ε) / ε²


def plan_feedback(
    outcomes: MeasurementOutcomes,
    h: Hamiltonian,
    temperature: float,
    e_initial: float,
) -> FeedbackPlan:
    """Build the steps (i)-(iv) plan of every outcome in ``outcomes``, each on its support,
    as one stack read from the outcomes' (K, d) eigenvalues and (K, d, d) eigenvectors.

    A level whose population is not positive is raised to +inf at no work:
    the limit of ε_j = -kT ln λ_j as λ_j → 0, which a pure outcome needs.  Not
    only an exact 0 counts: a pure outcome's eig can read a round-off -1e-18.
    """
    if not len(outcomes):
        raise ArgumentRangeError("plan_feedback needs at least one outcome")
    kt = boltzmann_kt(temperature)
    lam = np.clip(outcomes.eigenvalues, 0.0, None)
    lam = lam / lam.sum(axis=-1, keepdims=True)
    support = lam > 0.0

    # ascending energies, so the descending populations land on them in order
    energy_basis = h.eig.eigenvectors[:, ::-1]
    unitaries = energy_basis @ dagger(outcomes.eigenvectors)

    with np.errstate(divide="ignore", over="ignore"):  # checked below
        levels = np.where(support, -kt * np.log(lam), np.inf)
    failed = (support & ~np.isfinite(levels)).any(axis=-1)
    if failed.any():
        raise DomainError(
            f"outcome {outcomes.outcomes[int(failed.argmax())]}: a retuned level -kT ln(lambda) "
            f"is not finite (kT = {kt!r})"
        )
    # step (iv)'s shift c_n = E - Σ_j λ_j ε_j, the sum over the support
    mean_levels = np.array([np.dot(p[on], eps[on]) for eps, p, on in zip(levels, lam, support)])
    shifts = e_initial - mean_levels
    return FeedbackPlan(outcomes.outcomes, unitaries, energy_basis, levels, shifts, lam)


def plan_branches(h: Hamiltonian, temperature: float, model: MeasurementModel) -> BranchPlans:
    """Measure the thermal state of ``h`` and plan every kept outcome's feedback: the one
    place the drop rule and the plan run, for the cycle and the controller."""
    rho = thermal_state(h, temperature)
    initial = thermo_reading(rho, h, temperature)
    outcomes = apply(model, rho, h)
    plan = plan_feedback(outcomes, h, temperature, e_initial=initial.energy)
    delta_e_meas = measurement_energy_cost(outcomes, initial.energy)
    return BranchPlans(rho, initial, outcomes, plan, delta_e_meas)


def execute_plan(
    outcomes: MeasurementOutcomes, plan: FeedbackPlan, temperature: float
) -> np.ndarray:
    """Run steps (i)-(iv) for every kept outcome of a cycle, returning the (N,) works
    extracted.  Row n of the outcome stacks and slice n of the plan read the H the plan
    was made for.  The rotation U_n ρ_n U_n† takes one ``_unit_trace`` call, which checks
    and hermitizes the rotated states, and :func:`_land` checks where they landed and
    gives their works.
    """
    n_out = len(plan.outcomes)
    if len(outcomes) != n_out:
        raise PlanMismatchError(f"{len(outcomes)} outcomes but {n_out} plans")
    if not n_out:
        raise ArgumentRangeError("execute_plan needs at least one outcome")
    u = plan.basis_unitaries
    rotated, _ = _unit_trace(u @ outcomes.states @ dagger(u), "rotated outcome state")
    return _land(rotated, outcomes, plan, temperature)[0]


def _land(
    states: np.ndarray, outcomes: MeasurementOutcomes, plan: FeedbackPlan, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """Check where the feedback of ``plan`` left the (N, d, d) unit-trace, exactly
    Hermitian ``states``, row n that of outcome n of ``outcomes``, and return their (N,)
    works and entropies: both pictures land their branches here.  The work of row n is
    E_n - Tr[H ρ'] from the rotation at fixed H, plus Tr[H ρ'] - Tr[(H_n + c_n) ρ'] from
    the retune at fixed state ρ'.  One unchecked eigenvalue-only call over
    [ρ'_1 … ρ'_N, ρ'_1 - σ_1 … ρ'_N - σ_N], exactly Hermitian (σ_n, the Gibbs state of
    the retuned levels, comes hermitized from ``spectral_matrix``), gives the landing
    distances and the landed spectra, and the three checks run as one vectorized test.

    Raises, for the first outcome that fails, the first of these checks it fails:
    :class:`PlanMismatchError` if the landed state is not the Gibbs state of its retuned
    levels (the shift c_n cancels there), :class:`InvalidStateError` if its spectrum is
    below the floor, :class:`PlanMismatchError` if its entropy drifted from the outcome's.
    A NaN distance or drift fails.  A kernel level holds no population in that Gibbs
    state, so the distance also bounds the weight the feedback left there.
    """
    n_out, b = len(states), plan.energy_basis
    # Tr[H ρ'] cancels between the two stages; a kernel level is raised at no
    # work, so Tr[(H_n + c_n) ρ'] sums over the support only
    populations = np.einsum("ij,nij->nj", b.conj(), states @ b).real
    expected = spectral_matrix(b, gibbs_weights(plan.levels, temperature))
    spectra = _eigvals(np.concatenate([states, states - expected]))

    lam = spectra[:n_out]
    deviations = 0.5 * np.abs(spectra[n_out:]).sum(axis=-1)
    entropies = np.array([_nats(s) for s in lam])
    drifts = np.abs(entropies - outcomes.entropies)
    failed = ~(deviations <= PLAN_TOL) | (lam[:, -1] < -STATE_TOL) | ~(drifts <= PLAN_TOL)
    if failed.any():
        n = int(failed.argmax())
        outcome = plan.outcomes[n]
        if not deviations[n] <= PLAN_TOL:
            raise PlanMismatchError(
                f"outcome {outcome}: landed state is {deviations[n]:.3e} from thermal "
                f"(tolerance {PLAN_TOL:g})"
            )
        _check_spectrum_floor(float(lam[n, -1]), f"outcome {outcome}")
        raise PlanMismatchError(f"outcome {outcome}: entropy drifted by {drifts[n]:.3e}")
    on = np.isfinite(plan.levels)
    rows = zip(plan.levels, plan.shifts, populations, on)
    works = outcomes.energies - np.array([np.dot(e[s] + c, p[s]) for e, c, p, s in rows])
    return works, entropies


def _close(
    step: BranchPlans, temperature: float, branches: tuple, final: DensityMatrix,
    end: tuple[DensityMatrix, ThermoReading], ledger: type = CycleLedger, **extra,
) -> CycleLedger:
    """The ledger both pictures end in.  ``branches`` holds the (N,) p_n, S_n and
    feedback works of the landed branches, ``end`` the thermal state and reading the
    isothermal stage takes every branch on to, and ``final`` the system's state at the
    end, which gives the closure; ``extra`` fills a ``ledger`` subclass's own fields."""
    probabilities, entropies, works = branches
    rho_target, target = end
    # isothermal stage from the branch Hamiltonian to the target: the free-energy drop at
    # fixed T, the state tracking the instantaneous thermal state
    works = works + (
        (step.initial.energy - target.energy)
        + isothermal_work(target.entropy, entropies, temperature)
    )
    for a in (probabilities, entropies, works):
        a.setflags(write=False)
    delta_s_meas = entropy_reduction(probabilities, entropies, step.initial.entropy)
    work_total = float(sum((probabilities * works).tolist()))
    return ledger(
        initial=step.initial,
        temperature=temperature,
        outcomes=step.outcomes,
        probabilities=probabilities,
        entropies=entropies,
        works=works,
        delta_e_meas=step.delta_e_meas,
        delta_s_meas=delta_s_meas,
        work_total=work_total,
        work_fb=work_total - step.delta_e_meas,
        report=second_law_verdict(probabilities, delta_s_meas),
        heat_from_bath=temperature * delta_s_meas,
        closure_distance=trace_distance(final, rho_target),
        **extra,
    )


def isothermal_work(s_target: float, s_n: float, temperature: float) -> float:
    """Work extracted by quasi-static isothermal expansion, kT·(S_target - S_n)."""
    return temperature * (s_target - s_n)


def _step_count(n_steps: int) -> int:
    """``n_steps`` as an int of at least 1: a bool is its int, and a float raises TypeError."""
    n = operator.index(n_steps)
    if n < 1:
        raise ArgumentRangeError(f"n_steps must be >= 1, got {n_steps!r}")
    return n


def quasi_static_work(
    h_start: Hamiltonian,
    h_end: Hamiltonian,
    temperature: float,
    n_steps: int,
) -> float:
    """Numerically integrate the isothermal work along the linear Hamiltonian
    path H(s) = (1-s)·H_start + s·H_end, re-thermalizing at every step: one eig
    call diagonalizes the N path Hamiltonians H(j/N) at once.

    Converges to F(H_start, T) - F(H_end, T) with O(1/N) error; this is the
    independent validator for :func:`isothermal_work`.
    """
    kt = boltzmann_kt(temperature)
    n_steps = _step_count(n_steps)
    if h_end.dim != h_start.dim:
        raise DimensionMismatchError(f"Hamiltonian dims differ: {h_start.dim} vs {h_end.dim}")
    a, b = h_start.matrix, h_end.matrix
    s = np.arange(n_steps + 1) / n_steps
    path = eig_hermitian((1.0 - s[:-1, None, None]) * a + s[:-1, None, None] * b)
    # -Σ_j (s_j+1 - s_j) Σ_l w_jl <v_jl|H_end - H_start|v_jl>, w_jl the Gibbs weights
    slopes = np.einsum("jil,jil->jl", path.eigenvectors.conj(), (b - a) @ path.eigenvectors).real
    weights = gibbs_weights(path.eigenvalues, kt)
    return -float(np.dot(np.diff(s), (weights * slopes).sum(axis=-1)))


def _run(
    h1: Hamiltonian, h2: Hamiltonian, temperature: float, model: MeasurementModel
) -> tuple[CycleLedger, ThermoReading]:
    """The cycle from H1's thermal state to H2's, and H2's reading; its ledger keeps the
    outcome stacks :func:`plan_branches` returns and builds no per-outcome object."""
    if h2.dim != h1.dim:
        raise DimensionMismatchError(f"Hamiltonian dims differ: {h1.dim} vs {h2.dim}")
    step = plan_branches(h1, temperature, model)
    rho_target = step.rho if h2 is h1 else thermal_state(h2, temperature)
    target = step.initial if h2 is h1 else thermo_reading(rho_target, h2, temperature)

    outcomes = step.outcomes
    works = execute_plan(outcomes, step.plan, temperature)
    # every branch ends on rho_target
    endpoint = sum(p * rho_target.matrix for p in outcomes.probabilities.tolist())
    final = DensityMatrix._exact(endpoint, "cycle endpoint")
    branches = (outcomes.probabilities, outcomes.entropies, works)
    return _close(step, temperature, branches, final, (rho_target, target)), target


def run_cycle(h: Hamiltonian, temperature: float, model: MeasurementModel) -> CycleLedger:
    """One closed cycle: thermal start, measure, feed back per outcome, expand
    isothermally home.  The ledger's ``work_fb`` equals kT·ΔS_meas up to
    numerical error."""
    ledger, _ = _run(h, h, temperature, model)
    return ledger


def run_transform(
    h1: Hamiltonian, h2: Hamiltonian, temperature: float, model: MeasurementModel
) -> TransformResult:
    """Like :func:`run_cycle` but the closing expansion targets the thermal
    state of ``h2``; the net work picks up the free-energy drop ΔF."""
    ledger, target = _run(h1, h2, temperature, model)
    return TransformResult(
        delta_f=ledger.initial.free_energy - target.free_energy,
        free_energy_final=target.free_energy,
        work_fb=ledger.work_fb,
        ledger=ledger,
    )


def run_continuous(
    h: Hamiltonian, temperature: float, model: MeasurementModel, n_steps: int
) -> ContinuousResult:
    """Drive repeated cycles of one weak measurement, one per time step; its
    strength ``model.strength`` is the ε of the scaling readout.

    Each cycle returns the system to its thermal state, so the steps are
    independent and identically ledgered: one cycle is computed and its work
    scaled by ``n_steps``.  The result reports the cumulative work and the
    per-step ΔS_meas(ε)/ε² ratio that exposes the quadratic weak-measurement
    scaling.
    """
    if model.kind is not ModelKind.WEAK:
        raise InvalidModelError(f"continuous runs need a weak model, got kind {model.kind.value}")
    epsilon = model.strength
    lo, hi = CONTINUOUS_EPSILON_RANGE
    if not lo <= epsilon <= hi:
        raise ArgumentRangeError(f"epsilon must lie in [{lo:g}, {hi:g}], got {epsilon!r}")
    n_steps = _step_count(n_steps)
    cycle = run_cycle(h, temperature, model)
    return ContinuousResult(
        epsilon=epsilon,
        n_steps=n_steps,
        per_cycle=cycle,
        cumulative_work_total=n_steps * cycle.work_total,
        cumulative_work_fb=n_steps * cycle.work_fb,
        delta_s_meas_per_step=cycle.delta_s_meas,
        scaling_ratio=cycle.delta_s_meas / epsilon**2,
    )
