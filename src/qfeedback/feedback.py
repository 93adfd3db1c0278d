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
from .linalg import EigenDecomposition, dagger, eig_hermitian, spectral_matrix
from .measurement import (
    DEFAULT_P_FLOOR,
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
    boltzmann_kt,
    gibbs_weights,
    thermal_state,
    thermo_reading,
    trace_distance,
    von_neumann_entropy,
)

# execute_plan's bound on a landed state's distance from thermal and entropy drift
PLAN_TOL = 1e-9
# Weak-measurement strengths run_continuous accepts; config validation reads it.
CONTINUOUS_EPSILON_RANGE = (1e-6, 0.5)


@dataclass(frozen=True)
class FeedbackPlan:
    """Reversible operations for one measurement outcome.

    ``basis_unitary`` implements steps (i)+(ii): it maps the state's
    eigenbasis onto ``energy_basis``, H's eigenvectors by rising energy, with
    populations sorted against energy.  ``levels`` are the retuned levels of
    step (iii) on that basis, ε_j = -kT ln λ_j on the outcome's support and
    +inf on its kernel, and ``shift`` is the uniform offset of step (iv) that
    restores the initial average energy.
    """

    outcome: int
    basis_unitary: np.ndarray
    energy_basis: np.ndarray
    levels: np.ndarray  # ascending, +inf where the population is 0
    shift: float
    populations: np.ndarray  # spectrum, descending, negatives set to 0


@dataclass(frozen=True)
class BranchPlans:
    """The step both pictures share, from :func:`plan_branches`."""

    rho: DensityMatrix  # thermal state
    initial: ThermoReading  # E, S, F of rho
    outcomes: MeasurementOutcomes  # the outcomes apply keeps
    plans: tuple[FeedbackPlan, ...]  # one per kept outcome, in order
    delta_e_meas: float
    clamp_flag: bool  # any outcome state clamped


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
    clamp_flag: bool
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
    record: OutcomeRecord,
    h: Hamiltonian,
    temperature: float,
    e_initial: float = 0.0,
) -> FeedbackPlan:
    """Build the steps (i)-(iv) plan for one outcome, on its support.

    A level whose population is not positive is raised to +inf at no work:
    the limit of ε_j = -kT ln λ_j as λ_j → 0, which a pure outcome needs.  Not
    only an exact 0 counts, since a clamped state's eig, recomputed, can read
    -1e-18 again.
    """
    kt = boltzmann_kt(temperature)
    dec_state = record.state.eig
    lam = np.clip(dec_state.eigenvalues, 0.0, None)
    lam = lam / lam.sum()
    support = lam > 0.0

    dec_h = h.eig
    # ascending energies, so the descending populations land on them in order
    energy_basis = dec_h.eigenvectors[:, ::-1]
    basis_unitary = energy_basis @ dagger(dec_state.eigenvectors)

    levels = np.full(lam.shape, np.inf)
    with np.errstate(over="ignore"):  # checked on the next line
        levels[support] = -kt * np.log(lam[support])
    if not np.isfinite(levels[support]).all():
        raise DomainError(
            f"outcome {record.n}: a retuned level -kT ln(lambda) is not finite (kT = {kt!r})"
        )
    shift = e_initial - float(np.dot(lam[support], levels[support]))
    return FeedbackPlan(
        outcome=record.n,
        basis_unitary=basis_unitary,
        energy_basis=energy_basis,
        levels=levels,
        shift=shift,
        populations=lam,
    )


def plan_branches(
    h: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    p_floor: float,
) -> BranchPlans:
    """Measure the thermal state of ``h`` and plan every kept outcome's feedback: the one
    place the drop rule, the plans and the clamp rule run, for the cycle and the controller.
    The thermal state is PSD by construction, so only an outcome state can clamp."""
    rho = thermal_state(h, temperature)
    initial = thermo_reading(rho, h, temperature)
    outcomes = apply(model, rho, h, p_floor=p_floor)
    plans = tuple(plan_feedback(r, h, temperature, e_initial=initial.energy) for r in outcomes)
    delta_e_meas = measurement_energy_cost(outcomes, initial.energy)
    clamp = any(r.state.clamped for r in outcomes)
    return BranchPlans(rho, initial, outcomes, plans, delta_e_meas, clamp)


def execute_plan(
    records: Sequence[OutcomeRecord],
    plans: Sequence[FeedbackPlan],
    temperature: float,
) -> tuple[tuple[DensityMatrix, float], ...]:
    """Run steps (i)-(iv) for every kept outcome of a cycle, returning per outcome
    the resulting thermal state and the work extracted: E_n - Tr[H ρ'] from the
    rotation at fixed H, plus Tr[H ρ'] - Tr[(H_n + c_n) ρ'] from the retune at
    fixed state ρ'.  Each record and its plan read the H the plan was made for.
    One eig call over [ρ'_1 … ρ'_N, ρ'_1 - σ_1 … ρ'_N - σ_N], σ_n the Gibbs state
    of the retuned levels, gives the landing distances and the rotated spectra.

    Raises :class:`PlanMismatchError`, naming the first outcome that fails, if
    a landed state is not the Gibbs state of its retuned levels (the shift c_n
    cancels there), or if the rotation failed to preserve the outcome's
    entropy.  A kernel level holds no population in that Gibbs state, so the
    distance also bounds the weight the rotation left there.
    """
    if len(records) != len(plans):
        raise PlanMismatchError(f"{len(records)} outcomes but {len(plans)} plans")
    rotated, differences, works = [], [], []
    for record, plan in zip(records, plans):
        u, b, support = plan.basis_unitary, plan.energy_basis, np.isfinite(plan.levels)
        rho = DensityMatrix.from_psd(u @ record.state.matrix @ dagger(u), "rotated outcome state")
        # Tr[H ρ'] cancels between the two stages; a kernel level is raised at no
        # work, so Tr[(H_n + c_n) ρ'] sums over the support only
        populations = np.einsum("ij,ij->j", b.conj(), rho.matrix @ b).real[support]
        works.append(record.energy - float(np.dot(plan.levels[support] + plan.shift, populations)))
        expected = spectral_matrix(b, gibbs_weights(plan.levels, temperature))
        rotated.append(rho.matrix)
        differences.append(rho.matrix - expected)
    dec = eig_hermitian(np.stack(rotated + differences))

    landed = []
    for n, (record, plan) in enumerate(zip(records, plans)):
        deviation = 0.5 * float(np.abs(dec.eigenvalues[len(rotated) + n]).sum())
        if deviation > PLAN_TOL:
            raise PlanMismatchError(
                f"outcome {plan.outcome}: landed state is {deviation:.3e} from thermal "
                f"(tolerance {PLAN_TOL:g})"
            )
        spectrum = EigenDecomposition(dec.eigenvalues[n], dec.eigenvectors[n])
        state = DensityMatrix._with_eig(rotated[n], spectrum)
        drift = abs(von_neumann_entropy(state) - record.entropy)
        if drift > PLAN_TOL:
            raise PlanMismatchError(f"outcome {plan.outcome}: entropy drifted by {drift:.3e}")
        landed.append((state, works[n]))
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
    h1: Hamiltonian,
    h2: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    p_floor: float,
) -> tuple[CycleLedger, ThermoReading]:
    step = plan_branches(h1, temperature, model, p_floor)
    rho_target = step.rho if h2 is h1 else thermal_state(h2, temperature)
    target = thermo_reading(rho_target, h2, temperature)

    branches = []
    landed = execute_plan(step.outcomes, step.plans, temperature)
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
        clamp_flag=step.clamp_flag,
        dropped_outcomes=step.outcomes.dropped,
    )
    return ledger, target


def run_cycle(
    h: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    p_floor: float = DEFAULT_P_FLOOR,
) -> CycleLedger:
    """One closed cycle: thermal start, measure, feed back per outcome, expand
    isothermally home.  The ledger's ``work_fb`` equals kT·ΔS_meas up to
    numerical error."""
    ledger, _ = _run(h, h, temperature, model, p_floor)
    return ledger


def run_transform(
    h1: Hamiltonian,
    h2: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    p_floor: float = DEFAULT_P_FLOOR,
) -> TransformResult:
    """Like :func:`run_cycle` but the closing expansion targets the thermal
    state of ``h2``; the net work picks up the free-energy drop ΔF."""
    ledger, target = _run(h1, h2, temperature, model, p_floor)
    return TransformResult(
        delta_f=ledger.initial.free_energy - target.free_energy,
        free_energy_final=target.free_energy,
        work_fb=ledger.work_fb,
        ledger=ledger,
    )


def run_continuous(
    h: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    n_steps: int,
    p_floor: float = DEFAULT_P_FLOOR,
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
    cycle = run_cycle(h, temperature, model, p_floor=p_floor)
    return ContinuousResult(
        epsilon=epsilon,
        n_steps=n_steps,
        per_cycle=cycle,
        cumulative_work_total=n_steps * cycle.work_total,
        cumulative_work_fb=n_steps * cycle.work_fb,
        delta_s_meas_per_step=cycle.delta_s_meas,
        scaling_ratio=cycle.delta_s_meas / epsilon**2,
    )
