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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentRangeError, DomainError, InvalidModelError, PlanMismatchError
from .linalg import dagger, eig_hermitian, eigvals_hermitian, read_only, spectral_matrix
from .measurement import (
    MeasurementModel,
    MeasurementOutcomes,
    ModelKind,
    OutcomeRecord,
    SecondLawReport,
    apply,
    entropy_reduction,
    measurement_energy_cost,
    second_law_verdict,
)
from .thermo import (
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

# execute_plan's bound on a landed state's distance from thermal and entropy drift
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
class OutcomeLedger:
    """Per-outcome slice of the cycle ledger."""

    n: int
    probability: float
    entropy: float  # S_n
    energy: float  # E_n
    delta_e: float  # E_n - E
    work: float  # ΔW_n = step work + isothermal work


@dataclass(frozen=True)
class CycleLedger:
    """Everything one feedback cycle did, with the second-law bottom line.

    ``work_total`` is the average work extracted over the whole cycle
    including the recovery of measurement work; ``work_fb`` nets out the
    energy the measurement itself injected, and for a closed cycle equals
    kT·ΔS_meas.  ``report`` carries ΔS_tot = S({p_n}) - ΔS_meas, the entropy
    change of the universe once the controller's record is reset, with its
    verdict, as the controller picture's result does.
    """

    initial: ThermoReading
    temperature: float  # kT
    outcomes: tuple[OutcomeLedger, ...]
    delta_e_meas: float
    delta_s_meas: float
    work_total: float
    work_fb: float
    report: SecondLawReport
    heat_from_bath: float
    closure_distance: float
    dropped_outcomes: tuple[int, ...]

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
    records: Sequence[OutcomeRecord],
    h: Hamiltonian,
    temperature: float,
    e_initial: float = 0.0,
) -> FeedbackPlan:
    """Build the steps (i)-(iv) plan of every outcome in ``records``, each on its support,
    as one stack over the stacked outcome spectra.

    A level whose population is not positive is raised to +inf at no work:
    the limit of ε_j = -kT ln λ_j as λ_j → 0, which a pure outcome needs.  Not
    only an exact 0 counts: a pure outcome's eig can read a round-off -1e-18.
    """
    if not records:
        raise ArgumentRangeError("plan_feedback needs at least one outcome")
    kt = boltzmann_kt(temperature)
    lam = np.clip(np.array([r.state.eig.eigenvalues for r in records]), 0.0, None)
    lam = lam / lam.sum(axis=-1, keepdims=True)
    support = lam > 0.0

    # ascending energies, so the descending populations land on them in order
    energy_basis = h.eig.eigenvectors[:, ::-1]
    unitaries = energy_basis @ dagger(np.array([r.state.eig.eigenvectors for r in records]))

    with np.errstate(divide="ignore", over="ignore"):  # checked below
        levels = np.where(support, -kt * np.log(lam), np.inf)
    failed = (support & ~np.isfinite(levels)).any(axis=-1)
    if failed.any():
        raise DomainError(
            f"outcome {records[int(failed.argmax())].n}: a retuned level -kT ln(lambda) "
            f"is not finite (kT = {kt!r})"
        )
    # step (iv)'s shift c_n = E - Σ_j λ_j ε_j, the sum over the support
    mean_levels = np.array([np.dot(p[on], eps[on]) for eps, p, on in zip(levels, lam, support)])
    outcomes = np.array([r.n for r in records])
    return FeedbackPlan(outcomes, unitaries, energy_basis, levels, e_initial - mean_levels, lam)


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
    records: Sequence[OutcomeRecord],
    plan: FeedbackPlan,
    temperature: float,
) -> tuple[tuple[DensityMatrix, float], ...]:
    """Run steps (i)-(iv) for every kept outcome of a cycle, returning per outcome
    the resulting thermal state and the work extracted: E_n - Tr[H ρ'] from the
    rotation at fixed H, plus Tr[H ρ'] - Tr[(H_n + c_n) ρ'] from the retune at
    fixed state ρ'.  Record n and slice n of the plan read the H the plan was made for.
    It reads the plan's (N, d, d) stacks: one ``_unit_trace`` call checks the rotated
    states, and one eigenvalue-only call over [ρ'_1 … ρ'_N, ρ'_1 - σ_1 … ρ'_N - σ_N],
    σ_n the Gibbs state of the retuned levels, gives the landing distances and the rotated
    spectra, for the -STATE_TOL floor and the entropies; a landed state keeps no eig.

    Raises :class:`PlanMismatchError`, naming the first outcome that fails, if
    a landed state is not the Gibbs state of its retuned levels (the shift c_n
    cancels there), or if the rotation failed to preserve the outcome's
    entropy.  A kernel level holds no population in that Gibbs state, so the
    distance also bounds the weight the rotation left there.
    """
    n_out = len(plan.outcomes)
    if len(records) != n_out:
        raise PlanMismatchError(f"{len(records)} outcomes but {n_out} plans")
    if not n_out:
        raise ArgumentRangeError("execute_plan needs at least one outcome")
    u, b = plan.basis_unitaries, plan.energy_basis
    states = np.array([record.state.matrix for record in records])
    rotated, _ = _unit_trace(u @ states @ dagger(u), "rotated outcome state")
    # Tr[H ρ'] cancels between the two stages; a kernel level is raised at no
    # work, so Tr[(H_n + c_n) ρ'] sums over the support only
    populations = np.einsum("ij,nij->nj", b.conj(), rotated @ b).real
    expected = spectral_matrix(b, gibbs_weights(plan.levels, temperature))
    spectra = eigvals_hermitian(np.concatenate([rotated, rotated - expected]))

    landed = []
    for n, (record, outcome, levels) in enumerate(zip(records, plan.outcomes, plan.levels)):
        deviation = 0.5 * float(np.abs(spectra[n_out + n]).sum())
        if not deviation <= PLAN_TOL:
            raise PlanMismatchError(
                f"outcome {outcome}: landed state is {deviation:.3e} from thermal "
                f"(tolerance {PLAN_TOL:g})"
            )
        _check_spectrum_floor(float(spectra[n, -1]), f"outcome {outcome}")
        drift = abs(_nats(np.clip(spectra[n], 0.0, None)) - record.entropy)
        if not drift <= PLAN_TOL:
            raise PlanMismatchError(f"outcome {outcome}: entropy drifted by {drift:.3e}")
        on = np.isfinite(levels)
        work = record.energy - float(np.dot(levels[on] + plan.shifts[n], populations[n][on]))
        landed.append((DensityMatrix(matrix=read_only(rotated[n])), work))  # checked as a stack
    return tuple(landed)


def isothermal_work(s_target: float, s_n: float, temperature: float) -> float:
    """Work extracted by quasi-static isothermal expansion, kT·(S_target - S_n)."""
    return temperature * (s_target - s_n)


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
    if n_steps < 1:
        raise ArgumentRangeError(f"n_steps must be >= 1, got {n_steps!r}")
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
    step = plan_branches(h1, temperature, model)
    rho_target = step.rho if h2 is h1 else thermal_state(h2, temperature)
    target = step.initial if h2 is h1 else thermo_reading(rho_target, h2, temperature)

    branches = []
    landed = execute_plan(step.outcomes, step.plan, temperature)
    for record, (_, work_steps) in zip(step.outcomes, landed):
        # isothermal stage from the branch Hamiltonian to h2: work equals the
        # free-energy drop at fixed T, and the state tracks the instantaneous
        # thermal state, so every branch ends on rho_target.
        work_iso = (step.initial.energy - target.energy) + isothermal_work(
            target.entropy, record.entropy, temperature
        )
        branches.append(
            OutcomeLedger(
                n=record.n,
                probability=record.probability,
                entropy=record.entropy,
                energy=record.energy,
                delta_e=record.energy - step.initial.energy,
                work=work_steps + work_iso,
            )
        )

    probabilities = step.outcomes.probabilities
    delta_s_meas = entropy_reduction(
        probabilities, [r.entropy for r in step.outcomes], step.initial.entropy
    )
    work_total = float(sum(b.probability * b.work for b in branches))
    final = DensityMatrix.from_psd(
        sum(b.probability * rho_target.matrix for b in branches), where="cycle endpoint"
    )
    ledger = CycleLedger(
        initial=step.initial,
        temperature=temperature,
        outcomes=tuple(branches),
        delta_e_meas=step.delta_e_meas,
        delta_s_meas=delta_s_meas,
        work_total=work_total,
        work_fb=work_total - step.delta_e_meas,
        report=second_law_verdict(probabilities, delta_s_meas),
        heat_from_bath=temperature * delta_s_meas,
        closure_distance=trace_distance(final, rho_target),
        dropped_outcomes=step.outcomes.dropped,
    )
    return ledger, target


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
    if n_steps < 1:
        raise ArgumentRangeError(f"n_steps must be >= 1, got {n_steps!r}")
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
