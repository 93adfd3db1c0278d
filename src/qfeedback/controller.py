"""Measurement-free formulation: an N-state quantum controller is correlated
with the system by an isometry, steers it with a controlled unitary, and
decoheres when the bath branches become macroscopically distinct.

The bath is never a Hilbert space here.  It enters as an entropy ledger: each
branch ends with bath entropy S_B - (S - S_n), and resetting the controller
dumps another S({p_n}) into it.  Total-entropy accounting over system,
controller, and bath then gives ΔS_tot = S({p_n}) - ΔS_meas ≥ 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BranchMismatchError,
    DimensionMismatchError,
    IncompleteModelError,
    InvalidModelError,
    InvalidStateError,
    NonUnitaryBlockError,
)
from .linalg import dagger, dephase_blocks, hermitize, max_abs, partial_trace, tensor
from .feedback import DEFAULT_LAMBDA_FLOOR, FeedbackPlan, plan_feedback
from .measurement import (
    DEFAULT_P_FLOOR,
    MeasurementModel,
    ModelKind,
    apply,
    measurement_energy_cost,
    validate,
)
from .thermo import (
    DensityMatrix,
    Hamiltonian,
    ThermoReading,
    average_energy,
    shannon_entropy,
    thermal_state,
    thermo_reading,
    trace_distance,
    von_neumann_entropy,
)

# A cycle passes the second law when ΔS_tot ≥ SECOND_LAW_TOL, and preserved
# the universe's entropy (is efficient) when ΔS_tot < EFFICIENCY_TOL.
SECOND_LAW_TOL = -1e-9
EFFICIENCY_TOL = 1e-8


@dataclass(frozen=True)
class JointState:
    """Controller⊗system density matrix with N×N blocks of size d×d.

    Diagonal blocks hold p_n ρ_n; off-diagonal blocks hold the coherences
    between controller basis states.
    """

    matrix: DensityMatrix
    n_outcomes: int
    system_dim: int

    def __post_init__(self):
        if self.matrix.dim != self.n_outcomes * self.system_dim:
            raise DimensionMismatchError(
                f"joint dim {self.matrix.dim} != {self.n_outcomes}*{self.system_dim}"
            )

    def block(self, n: int, m: int) -> np.ndarray:
        d = self.system_dim
        return self.matrix.matrix[n * d : (n + 1) * d, m * d : (m + 1) * d]

    def block_probability(self, n: int) -> float:
        return float(np.trace(self.block(n, n)).real)

    def probabilities(self) -> np.ndarray:
        return np.array([self.block_probability(n) for n in range(self.n_outcomes)])

    def controller_state(self) -> DensityMatrix:
        reduced = partial_trace(
            self.matrix.matrix, (self.n_outcomes, self.system_dim), over="B"
        )
        return DensityMatrix.from_matrix(reduced, where="controller marginal")

    def system_state(self) -> DensityMatrix:
        reduced = partial_trace(
            self.matrix.matrix, (self.n_outcomes, self.system_dim), over="A"
        )
        return DensityMatrix.from_matrix(reduced, where="system marginal")


@dataclass(frozen=True)
class BathLedger:
    """Entropy bookkeeping for the bath, relative to an arbitrary offset S_B."""

    initial_entropy: float
    branch_entropies: tuple[float, ...]  # S_B - (S - S_n) per surviving branch
    reset_addition: float = 0.0  # entropy dumped by controller resets


@dataclass(frozen=True)
class SecondLawReport:
    """Second-law verdict for one cycle, from outcome statistics alone."""

    shannon_outcomes: float
    delta_s_meas: float
    delta_s_tot: float
    verdict: bool  # ΔS_tot ≥ SECOND_LAW_TOL
    efficiency_flag: bool  # ΔS_tot < EFFICIENCY_TOL: cycle preserved universe entropy


def correlate(rho: DensityMatrix, model: MeasurementModel) -> JointState:
    """Correlate a fresh |0⟩ controller with the system.

    Implemented as the isometry V = Σ_n |n⟩ ⊗ P_n, which fixes the joint
    blocks to P_n ρ P_m; completeness of the model guarantees the result is a
    valid state.  Requires positive (bare or weak) operator families.
    """
    if model.kind not in (ModelKind.BARE, ModelKind.WEAK):
        raise InvalidModelError(
            f"controller correlation needs positive operators, got kind {model.kind.value}"
        )
    report = validate(model)
    if report.completeness_residual > 1e-8:
        raise IncompleteModelError(
            f"operators do not resolve the identity "
            f"(residual {report.completeness_residual:.3e})"
        )
    if not report.ok:
        raise InvalidModelError(f"model failed validation:\n{report.describe()}")
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    d = rho.dim
    n = model.n_outcomes
    v = np.zeros((n * d, d), dtype=complex)
    for i, group in enumerate(model.groups):
        v[i * d : (i + 1) * d, :] = group[0]
    joint = v @ rho.matrix @ dagger(v)
    return JointState(
        matrix=DensityMatrix.from_matrix(joint, where="correlated joint state"),
        n_outcomes=n,
        system_dim=d,
    )


def feedback_unitary(plans) -> np.ndarray:
    """Controlled unitary Σ_n |n⟩⟨n| ⊗ U_n from per-outcome plans (or raw
    unitary blocks)."""
    blocks = []
    for item in plans:
        u = item.basis_unitary if isinstance(item, FeedbackPlan) else np.asarray(item, complex)
        residual = max_abs(dagger(u) @ u - np.eye(u.shape[0]))
        if residual > 1e-10:
            raise NonUnitaryBlockError(
                f"block {len(blocks)} unitarity residual {residual:.3e}"
            )
        blocks.append(u)
    dims = {b.shape[0] for b in blocks}
    if len(dims) != 1:
        raise DimensionMismatchError(f"blocks have mixed dims {sorted(dims)}")
    d = dims.pop()
    n = len(blocks)
    out = np.zeros((n * d, n * d), dtype=complex)
    for i, b in enumerate(blocks):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = b
    return out


def apply_joint_unitary(joint: JointState, u: np.ndarray) -> JointState:
    """ρ → U ρ U† on the joint space."""
    if u.shape[0] != joint.matrix.dim:
        raise DimensionMismatchError(
            f"unitary dim {u.shape[0]} != joint dim {joint.matrix.dim}"
        )
    m = hermitize(u @ joint.matrix.matrix @ dagger(u))
    return replace(joint, matrix=DensityMatrix.from_matrix(m, where="joint state"))


def decohere_controller(joint: JointState) -> JointState:
    """Remove all controller coherences (block-dephasing pinch)."""
    m = dephase_blocks(joint.matrix.matrix, [joint.system_dim] * joint.n_outcomes)
    return replace(joint, matrix=DensityMatrix.from_matrix(m, where="decohered joint"))


def decohere_via_ancilla(joint: JointState) -> JointState:
    """Same map, built explicitly: maximally entangle the controller basis
    with an N-dim auxiliary through a generalized CNOT, then trace the
    auxiliary out.  Kept as the independent construction the fast path is
    checked against."""
    n = joint.n_outcomes
    d = joint.system_dim
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    aux0 = np.zeros((n, n), dtype=complex)
    aux0[0, 0] = 1.0
    total = tensor(joint.matrix.matrix, aux0)
    u = np.zeros((n * d * n, n * d * n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for ctrl in range(n):
        proj = np.zeros((n, n), dtype=complex)
        proj[ctrl, ctrl] = 1.0
        u += tensor(tensor(proj, np.eye(d, dtype=complex)), power)
        power = shift @ power
    total = u @ total @ dagger(u)
    reduced = partial_trace(total, (n * d, n), over="B")
    return replace(joint, matrix=DensityMatrix.from_matrix(reduced, where="decohered joint"))


def finalize_branches(
    joint: JointState,
    h: Hamiltonian,
    temperature: float,
    s_initial: float,
    e_initial: float,
    k: float = 1.0,
    s_bath: float = 0.0,
    p_floor: float = DEFAULT_P_FLOOR,
    tol: float = 1e-8,
) -> tuple[JointState, BathLedger]:
    """Replace every branch's system state by its isothermal endpoint.

    All branches must land on the same thermal state (they share entropy,
    temperature, and average energy), so the joint state factors as
    ρ_C ⊗ ρ_T.  The bath ledger records S_B - (S - S_n) per branch.
    """
    n = joint.n_outcomes
    d = joint.system_dim
    rho_t = thermal_state(h, temperature, k)
    probabilities = []
    branch_entropies = []
    endpoints = []
    for i in range(n):
        p = joint.block_probability(i)
        if p < p_floor:
            probabilities.append(0.0)
            branch_entropies.append(s_bath)  # empty branch: bath untouched
            continue
        branch = DensityMatrix.from_matrix(joint.block(i, i) / p, where=f"branch {i}")
        s_n = von_neumann_entropy(branch)
        probabilities.append(p)
        branch_entropies.append(s_bath - (s_initial - s_n))
        endpoints.append(rho_t)
    for a, b in zip(endpoints, endpoints[1:]):
        gap = trace_distance(a, b)
        if gap > tol:
            raise BranchMismatchError(f"branch endpoints differ by {gap:.3e}")

    p_vec = np.array(probabilities)
    p_vec = p_vec / p_vec.sum()
    controller = np.diag(p_vec.astype(complex))
    final = tensor(controller, rho_t.matrix)
    joint_final = JointState(
        matrix=DensityMatrix.from_matrix(final, where="finalized joint"),
        n_outcomes=n,
        system_dim=d,
    )
    ledger = BathLedger(
        initial_entropy=s_bath,
        branch_entropies=tuple(branch_entropies),
        reset_addition=0.0,
    )
    return joint_final, ledger


def total_entropy(probabilities, branch_system_entropies, s_bath: float = 0.0) -> float:
    """S({p_n}) + Σ p_n S_n + S_B, the universe entropy after the cycle."""
    p = np.asarray(probabilities, dtype=float)
    s_n = np.asarray(branch_system_entropies, dtype=float)
    return shannon_entropy(p) + float(np.dot(p, s_n)) + s_bath


def total_entropy_assembled(joint_final: JointState, bath: BathLedger) -> float:
    """Universe entropy read off the assembled final structure: the
    controller-bath composite is classical over distinguishable branches, and
    the system factor rides along in its thermal state."""
    p = joint_final.probabilities()
    controller_bath = von_neumann_entropy(joint_final.controller_state()) + float(
        np.dot(p, np.asarray(bath.branch_entropies))
    )
    return controller_bath + von_neumann_entropy(joint_final.system_state())


def second_law_verdict(probabilities, delta_s_meas: float) -> SecondLawReport:
    """ΔS_tot = S({p_n}) - ΔS_meas, with pass/fail at ``SECOND_LAW_TOL`` and an
    efficiency flag when the cycle preserved universe entropy
    (< ``EFFICIENCY_TOL``)."""
    shannon = shannon_entropy(probabilities)
    delta_s_tot = shannon - delta_s_meas
    return SecondLawReport(
        shannon_outcomes=shannon,
        delta_s_meas=delta_s_meas,
        delta_s_tot=delta_s_tot,
        verdict=bool(delta_s_tot >= SECOND_LAW_TOL),
        efficiency_flag=bool(delta_s_tot < EFFICIENCY_TOL),
    )


def reset_controller(
    controller: DensityMatrix, bath: BathLedger
) -> tuple[DensityMatrix, BathLedger]:
    """Swap the controller against a fresh |0⟩ ancilla and dump the ancilla
    into the bath: controller returns to |0⟩⟨0| and the bath entropy grows by
    the controller's record entropy S({p_n})."""
    off = controller.matrix - np.diag(np.diag(controller.matrix))
    if max_abs(off) > 1e-10:
        raise InvalidStateError("controller must be diagonal in the record basis")
    record_entropy = von_neumann_entropy(controller)
    reset = np.zeros((controller.dim, controller.dim), dtype=complex)
    reset[0, 0] = 1.0
    return (
        DensityMatrix.from_matrix(reset, where="reset controller"),
        replace(bath, reset_addition=bath.reset_addition + record_entropy),
    )


@dataclass(frozen=True)
class ControllerCycleResult:
    """Full quantum-controller cycle: joint dynamics, ledgers, and verdict."""

    initial: ThermoReading
    probabilities: np.ndarray
    branch_entropies: tuple[float, ...]  # S_n per branch
    delta_e_meas: float
    delta_s_meas: float
    work_fb: float
    report: SecondLawReport
    bath: BathLedger
    system_closure: float  # trace distance of final system state from ρ_T
    controller_closure: float  # trace distance of reset controller from |0⟩⟨0|
    bath_entropy_increase: float  # total bath gain over the cycle
    clamp_flag: bool


def run_controller_cycle(
    h: Hamiltonian,
    temperature: float,
    model: MeasurementModel,
    k: float = 1.0,
    s_bath: float = 0.0,
    lambda_floor: float = DEFAULT_LAMBDA_FLOOR,
    p_floor: float = DEFAULT_P_FLOOR,
) -> ControllerCycleResult:
    """One full cycle in the measurement-free picture: correlate, feed back,
    decohere, finalize, reset.  Entropy accounting comes from the joint state
    itself; the per-outcome feedback unitaries are planned from the
    equivalent measurement records."""
    rho_t = thermal_state(h, temperature, k)
    initial = thermo_reading(rho_t, h, temperature, k, thermal=True)

    joint = correlate(rho_t, model)
    records = apply(model, rho_t, h, p_floor=p_floor)
    by_outcome = {r.n: r for r in records}
    blocks = []
    clamp = rho_t.clamped
    for n in range(model.n_outcomes):
        record = by_outcome.get(n)
        if record is None:
            blocks.append(np.eye(model.dim, dtype=complex))  # dropped branch
            continue
        plan = plan_feedback(
            record, h, temperature, k=k, e_initial=initial.energy, lambda_floor=lambda_floor
        )
        clamp = clamp or plan.clamped
        blocks.append(plan.basis_unitary)
    u_fb = feedback_unitary(blocks)
    joint = apply_joint_unitary(joint, u_fb)
    joint = decohere_controller(joint)

    # branch data read back from the joint state (pre-finalize blocks hold the
    # rotated p_n ρ_n, whose entropies and probabilities are basis-invariant)
    p = joint.probabilities()
    kept = [n for n in range(model.n_outcomes) if p[n] >= p_floor]
    branch_states = [
        DensityMatrix.from_matrix(joint.block(n, n) / p[n], where=f"branch {n}") for n in kept
    ]
    branch_entropies = tuple(von_neumann_entropy(s) for s in branch_states)
    probabilities = np.array([p[n] for n in kept])
    probabilities = probabilities / probabilities.sum()
    delta_s_meas = initial.entropy - float(np.dot(probabilities, branch_entropies))
    # measurement work read from the pre-feedback blocks via the records
    delta_e_meas = measurement_energy_cost(records, initial.energy)

    joint_final, bath = finalize_branches(
        joint,
        h,
        temperature,
        s_initial=initial.entropy,
        e_initial=initial.energy,
        k=k,
        s_bath=s_bath,
        p_floor=p_floor,
    )
    report = second_law_verdict(probabilities, delta_s_meas)
    system_closure = trace_distance(joint_final.system_state(), rho_t)

    controller_final = joint_final.controller_state()
    controller_reset, bath = reset_controller(controller_final, bath)
    controller_closure = trace_distance(
        controller_reset, DensityMatrix.from_vector(np.eye(model.n_outcomes)[0])
    )
    # bath gain: isothermal stage took (S - S_n) out per branch, reset put
    # S({p_n}) back in; net is ΔS_tot
    bath_gain = (
        float(np.dot(probabilities, np.asarray(bath.branch_entropies)[kept]))
        - bath.initial_entropy
        + bath.reset_addition
    )
    return ControllerCycleResult(
        initial=initial,
        probabilities=probabilities,
        branch_entropies=branch_entropies,
        delta_e_meas=delta_e_meas,
        delta_s_meas=delta_s_meas,
        work_fb=k * temperature * delta_s_meas,
        report=report,
        bath=bath,
        system_closure=system_closure,
        controller_closure=controller_closure,
        bath_entropy_increase=bath_gain,
        clamp_flag=clamp,
    )
