"""Measurement-free formulation: an N-state quantum controller is correlated
with the system by an isometry, steers it with a controlled unitary, and
decoheres when the bath branches become macroscopically distinct.

The bath is never a Hilbert space here.  It enters as an entropy ledger: each
branch changes the bath entropy by S_n - S, and resetting the controller
dumps another S({p_n}) into it.  Total-entropy accounting over system,
controller, and bath then gives ΔS_tot = S({p_n}) - ΔS_meas ≥ 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidModelError,
    InvalidStateError,
    NonUnitaryBlockError,
)
from .linalg import (
    EigenDecomposition,
    dagger,
    dephase_blocks,
    eig_hermitian,
    max_abs,
    partial_trace,
    read_only,
    spectral_matrix,
    tensor,
)
from .feedback import plan_branches
from .measurement import (
    DEFAULT_P_FLOOR,
    MeasurementModel,
    ModelKind,
    SecondLawReport,
    entropy_reduction,
    require_valid,
    second_law_verdict,
)
from .thermo import (
    STATE_TOL,
    DensityMatrix,
    Hamiltonian,
    ThermoReading,
    _nats,
    _unit_trace,
    trace_distance,
    von_neumann_entropy,
)

# Largest entry allowed in U†U - I of a feedback block, and in the
# off-diagonal part of a controller about to be reset.
STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class JointState:
    """Controller⊗system density matrix with N×N blocks of size d×d.

    Diagonal blocks hold p_n ρ_n, off-diagonal blocks the coherences between
    controller basis states.  Each joint the cycle builds is PSD by
    construction and takes no eig of its own, nor do its two marginals,
    partial traces of a PSD matrix.
    A branch state ρ_n is built from its block on first use and then kept;
    :func:`decohere_controller` hands over the ones its checks built.
    """

    matrix: DensityMatrix
    n_outcomes: int
    system_dim: int

    def __post_init__(self):
        if self.matrix.dim != self.n_outcomes * self.system_dim:
            raise DimensionMismatchError(
                f"joint dim {self.matrix.dim} != {self.n_outcomes}*{self.system_dim}"
            )

    @cached_property
    def _branch_states(self) -> dict[int, DensityMatrix]:
        return {}

    def block(self, n: int, m: int) -> np.ndarray:
        d = self.system_dim
        return self.matrix.matrix[n * d : (n + 1) * d, m * d : (m + 1) * d]

    def block_probability(self, n: int) -> float:
        return float(np.trace(self.block(n, n)).real)

    def probabilities(self) -> np.ndarray:
        return np.array([self.block_probability(n) for n in range(self.n_outcomes)])

    def branch_state(self, n: int) -> DensityMatrix:
        """The system state p_n ρ_n / p_n in the diagonal block of controller index n."""
        if n not in self._branch_states:
            block = _branch_block(self.block(n, n), n)
            self._branch_states[n] = DensityMatrix.from_matrix(block, where=f"branch {n}")
        return self._branch_states[n]

    def branch_entropies(self, outcomes: Iterable[int]) -> dict[int, float]:
        """S_n of the branch state of each controller index in ``outcomes``,
        keyed by that index."""
        return {n: von_neumann_entropy(self.branch_state(n)) for n in outcomes}

    def controller_state(self) -> DensityMatrix:
        reduced = partial_trace(self.matrix.matrix, (self.n_outcomes, self.system_dim), over="B")
        return DensityMatrix.from_psd(reduced, where="controller marginal")

    def system_state(self) -> DensityMatrix:
        reduced = partial_trace(self.matrix.matrix, (self.n_outcomes, self.system_dim), over="A")
        return DensityMatrix.from_psd(reduced, where="system marginal")


def _branch_block(block: np.ndarray, n: int) -> np.ndarray:
    """p_n ρ_n / p_n, once its trace p_n is checked positive."""
    p = float(block.trace().real)
    if not p > 0.0:
        raise InvalidStateError(f"branch {n}: block trace {p!r} is not positive")
    return block / p


@dataclass(frozen=True)
class BathLedger:
    """Entropy bookkeeping for the bath: its change per branch and from resets."""

    branch_entropies: tuple[float, ...]  # S_n - S per branch, 0 for a dropped one
    reset_addition: float = 0.0  # entropy dumped by controller resets


def correlate(rho: DensityMatrix, model: MeasurementModel) -> JointState:
    """Correlate a fresh |0⟩ controller with the system.

    Implemented as the isometry V = Σ_n |n⟩ ⊗ P_n, which fixes the joint
    blocks to P_n ρ P_m.  V ρ V† = (V ρ^½)(V ρ^½)† is PSD for any V, and
    completeness of the model gives it trace 1.  Requires positive (bare or
    weak) operator families.
    """
    if model.kind not in (ModelKind.BARE, ModelKind.WEAK):
        raise InvalidModelError(
            f"controller correlation needs positive operators, got kind {model.kind.value}"
        )
    require_valid(model)
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    v = np.vstack([group[0] for group in model.groups])  # the blocks P_n, top to bottom
    return JointState(
        matrix=DensityMatrix.from_psd(v @ rho.matrix @ dagger(v), "correlated joint state"),
        n_outcomes=model.n_outcomes,
        system_dim=rho.dim,
    )


def feedback_unitary(unitaries) -> np.ndarray:
    """Controlled unitary Σ_n |n⟩⟨n| ⊗ U_n from the per-outcome blocks U_n."""
    blocks = []
    for item in unitaries:
        u = np.asarray(item, complex)
        residual = max_abs(dagger(u) @ u - np.eye(u.shape[0]))
        if residual > STRUCTURE_TOL:
            raise NonUnitaryBlockError(f"block {len(blocks)} unitarity residual {residual:.3e}")
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
    """ρ → U ρ U† on the joint space, PSD for any U; a U that changes the trace raises."""
    if u.shape[0] != joint.matrix.dim:
        raise DimensionMismatchError(
            f"unitary dim {u.shape[0]} != joint dim {joint.matrix.dim}"
        )
    rotated = DensityMatrix.from_psd(u @ joint.matrix.matrix @ dagger(u), "joint state")
    return replace(joint, matrix=rotated)


def decohere_controller(joint: JointState, kept: Iterable[int] = ()) -> JointState:
    """Remove all controller coherences (block-dephasing pinch).

    The result ⊕ p_n ρ_n has the union of its blocks' spectra, so it is checked
    block by block, all N blocks in one eig call.  A block in ``kept`` becomes
    its branch state ρ_n by the checks and clamp rule of
    :meth:`DensityMatrix.from_matrix`, and the result keeps that state.  Any
    other block is diagonalized as it stands: an outcome dropped for its tiny
    weight holds only round-off, which is no state.  A clamp in any block
    clamps the joint, which then holds p_n times each repaired branch state and
    every other block with its negative eigenvalues set to zero.
    """
    d, n_out = joint.system_dim, joint.n_outcomes
    pinched = dephase_blocks(joint.matrix.matrix, [d] * n_out)
    state = DensityMatrix.from_psd(pinched, "decohered joint")
    m = state.matrix
    blocks = [slice(n * d, (n + 1) * d) for n in range(n_out)]
    kept = set(kept)
    stack = [
        _unit_trace(_branch_block(m[b, b], n), f"branch {n}")[0] if n in kept else m[b, b]
        for n, b in enumerate(blocks)
    ]
    dec = eig_hermitian(np.stack(stack))
    lam_min = dec.eigenvalues[:, -1]
    branches = {}
    for n in range(n_out):
        if n in kept:
            spectrum = EigenDecomposition(dec.eigenvalues[n], dec.eigenvectors[n])
            branches[n] = DensityMatrix._from_eig(stack[n], spectrum, f"branch {n}")
        elif lam_min[n] < -STATE_TOL:
            raise InvalidStateError(
                f"branch {n}: minimum eigenvalue {lam_min[n]:.3e} below -{STATE_TOL:g}"
            )
    dropped = [n for n in range(n_out) if n not in kept]
    if any(rho.clamped for rho in branches.values()) or (lam_min[dropped] < 0.0).any():
        repaired = np.zeros_like(m)
        for n, b in enumerate(blocks):
            if n in branches:
                repaired[b, b] = m[b, b].trace().real * branches[n].matrix
            else:
                lam = np.clip(dec.eigenvalues[n], 0.0, None)
                repaired[b, b] = spectral_matrix(dec.eigenvectors[n], lam)
        state = DensityMatrix(matrix=read_only(repaired / repaired.trace().real), clamped=True)
    decohered = replace(joint, matrix=state)
    decohered.__dict__["_branch_states"] = branches
    return decohered


def finalize_branches(
    joint: JointState,
    rho_t: DensityMatrix,
    branch_entropies: Mapping[int, float],
    s_initial: float,
) -> tuple[JointState, BathLedger]:
    """Replace every branch's system state by the isothermal endpoint ρ_T.

    ``branch_entropies`` holds S_n for each surviving branch, keyed by
    controller index; a branch it leaves out was dropped and gets weight 0.
    Every branch lands on ρ_T, so the joint state factors as ρ_C ⊗ ρ_T.  The
    bath ledger records S_n - S per branch.
    """
    n = joint.n_outcomes
    p_vec = np.array(
        [joint.block_probability(i) if i in branch_entropies else 0.0 for i in range(n)]
    )
    p_vec = p_vec / p_vec.sum()
    final = tensor(np.diag(p_vec.astype(complex)), rho_t.matrix)
    joint_final = JointState(
        matrix=DensityMatrix.from_psd(final, "finalized joint"),
        n_outcomes=n,
        system_dim=joint.system_dim,
    )
    ledger = BathLedger(
        # an empty branch leaves the bath untouched
        branch_entropies=tuple(
            branch_entropies[i] - s_initial if i in branch_entropies else 0.0
            for i in range(n)
        ),
    )
    return joint_final, ledger


def reset_controller(
    controller: DensityMatrix, bath: BathLedger
) -> tuple[DensityMatrix, BathLedger]:
    """Swap the controller against a fresh |0⟩ ancilla and dump the ancilla
    into the bath: controller returns to |0⟩⟨0| and the bath entropy grows by
    the controller's record entropy S({p_n}), read from its diagonal: the
    controller must be diagonal in the record basis, so that is its spectrum."""
    record = np.diag(controller.matrix)
    if max_abs(controller.matrix - np.diag(record)) > STRUCTURE_TOL:
        raise InvalidStateError("controller must be diagonal in the record basis")
    # descending, as an eig orders them, so the sum runs in the same order
    record_entropy = _nats(np.clip(np.sort(record.real)[::-1], 0.0, None))
    return (
        DensityMatrix.from_vector(np.eye(controller.dim)[0]),
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
    p_floor: float = DEFAULT_P_FLOOR,
) -> ControllerCycleResult:
    """One full cycle in the measurement-free picture: correlate, feed back, decohere,
    finalize, reset, over the branches :func:`~qfeedback.feedback.plan_branches` plans."""
    step = plan_branches(h, temperature, model, p_floor)
    kept = [r.n for r in step.outcomes]
    blocks = [np.eye(model.dim, dtype=complex)] * model.n_outcomes  # dropped: left alone
    for plan in step.plans:
        blocks[plan.outcome] = plan.basis_unitary
    joint = correlate(step.rho, model)
    joint = decohere_controller(apply_joint_unitary(joint, feedback_unitary(blocks)), kept)

    # the kept branches read back from the joint state (pre-finalize blocks hold
    # the rotated p_n ρ_n, whose entropies and probabilities are basis-invariant)
    entropies = joint.branch_entropies(kept)
    branch_entropies = tuple(entropies.values())
    p = joint.probabilities()[kept]
    probabilities = p / p.sum()
    delta_s_meas = entropy_reduction(probabilities, branch_entropies, step.initial.entropy)

    joint_final, bath = finalize_branches(joint, step.rho, entropies, step.initial.entropy)
    report = second_law_verdict(probabilities, delta_s_meas)
    system_closure = trace_distance(joint_final.system_state(), step.rho)

    controller_reset, bath = reset_controller(joint_final.controller_state(), bath)
    controller_closure = trace_distance(
        controller_reset, DensityMatrix.from_vector(np.eye(model.n_outcomes)[0])
    )
    # bath gain: isothermal stage took (S - S_n) out per branch, reset put
    # S({p_n}) back in; net is ΔS_tot
    branch_gains = np.asarray(bath.branch_entropies)[kept]
    bath_gain = float(np.dot(probabilities, branch_gains)) + bath.reset_addition
    return ControllerCycleResult(
        initial=step.initial,
        probabilities=probabilities,
        branch_entropies=branch_entropies,
        delta_e_meas=step.delta_e_meas,
        delta_s_meas=delta_s_meas,
        work_fb=temperature * delta_s_meas,
        report=report,
        bath=bath,
        system_closure=system_closure,
        controller_closure=controller_closure,
        bath_entropy_increase=bath_gain,
        clamp_flag=step.clamp_flag,
    )
