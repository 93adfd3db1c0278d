"""Measurement-free formulation: an N-state quantum controller is correlated
with the system by an isometry, steers it with a controlled unitary, and
decoheres when the bath branches become macroscopically distinct.

The bath is never a Hilbert space here.  It enters as an entropy ledger: each
branch changes the bath entropy by S_n - S, and resetting the controller
dumps another S({p_n}) into it.  Total-entropy accounting over system,
controller, and bath then gives ΔS_tot = S({p_n}) - ΔS_meas ≥ 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import (
    ArgumentRangeError, DimensionMismatchError, InvalidModelError, InvalidStateError,
    NonUnitaryBlockError,
)
from .linalg import _eigvals, dagger, hermitize, max_abs
from .feedback import plan_branches
from .measurement import (
    MeasurementModel,
    ModelKind,
    SecondLawReport,
    _branch_factors,
    entropy_reduction,
    require_valid,
    second_law_verdict,
)
from .thermo import (
    DensityMatrix,
    Hamiltonian,
    ThermoReading,
    _check_spectrum_floor,
    _nats,
    _normalized,
    trace_distance,
)

# Largest entry allowed in U†U - I of a feedback block, and in the
# off-diagonal part of a controller about to be reset.
STRUCTURE_TOL = 1e-10
CONTROLLER_KINDS = (ModelKind.BARE, ModelKind.WEAK)  # positive operators, as correlate needs


@dataclass(frozen=True)
class JointState:
    """Controller⊗system density matrix with N×N blocks of size d×d.

    Row n·d + i is controller state n, system state i, so :meth:`blocks` reads
    the matrix as one read-only (N, d, N, d) view whose [n, :, m, :] is block
    (n, m); the diagonal blocks, their traces and both marginals are read from
    it.  Diagonal blocks hold p_n ρ_n, off-diagonal blocks the coherences between
    controller basis states.  Each joint the cycle builds is PSD by
    construction and takes no eig of its own, nor do its two marginals,
    partial traces of a PSD matrix.  The branches ρ_n are read off by
    :func:`decohere_controller`, which returns the kept ones' p_n and S_n.
    """

    matrix: DensityMatrix
    n_outcomes: int
    system_dim: int

    def __post_init__(self):
        if self.matrix.dim != self.n_outcomes * self.system_dim:
            raise DimensionMismatchError(
                f"joint dim {self.matrix.dim} != {self.n_outcomes}*{self.system_dim}"
            )

    def _index(self, n: int) -> int:
        if not 0 <= n < self.n_outcomes:
            raise ArgumentRangeError(f"controller index {n} is outside 0…{self.n_outcomes - 1}")
        return operator.index(n)  # a bool is its int; a float raises TypeError

    def blocks(self) -> np.ndarray:
        """The matrix as one read-only (N, d, N, d) view: [n, :, m, :] is block (n, m)."""
        n, d = self.n_outcomes, self.system_dim
        return self.matrix.matrix.reshape(n, d, n, d)

    def diagonal_blocks(self) -> np.ndarray:
        """The N diagonal blocks p_n ρ_n as one read-only (N, d, d) view of the matrix."""
        return self.blocks().diagonal(axis1=0, axis2=2).transpose(2, 0, 1)

    def probabilities(self) -> np.ndarray:
        """Every block's trace p_n by one stacked trace, each the bytes of its own np.trace."""
        return self.diagonal_blocks().trace(axis1=1, axis2=2).real

    def controller_state(self) -> DensityMatrix:
        """The system traced out: entry (n, m) is the trace of block (n, m)."""
        return DensityMatrix._exact(np.einsum("abcb->ac", self.blocks()), "controller marginal")

    def system_state(self) -> DensityMatrix:
        """The controller traced out: the sum of the diagonal blocks."""
        return DensityMatrix._exact(np.einsum("abad->bd", self.blocks()), "system marginal")


@dataclass(frozen=True)
class KeptBranches:
    """The kept branches of a decohered joint, by rising controller index: each one's
    block trace p_n and the entropy S_n of its state ρ_n, the block over p_n."""

    outcomes: np.ndarray  # (K,) controller indices
    probabilities: np.ndarray  # (K,) p_n, not renormalized
    entropies: np.ndarray  # (K,) S_n


@dataclass(frozen=True)
class BathLedger:
    """Entropy bookkeeping for the bath: its change per branch and from resets."""

    branch_entropies: tuple[float, ...]  # S_n - S per branch, 0 for a dropped one
    reset_addition: float = 0.0  # entropy dumped by controller resets


def correlate(rho: DensityMatrix, model: MeasurementModel) -> JointState:
    """Correlate a fresh |0⟩ controller with the system.

    Implemented as the isometry V = Σ_n |n⟩ ⊗ P_n, which fixes the joint
    blocks to P_n ρ P_m.  V ρ V† = X X†, X = V ρ^½ the stack of the factors
    X_n = P_n ρ^½ that :func:`~qfeedback.measurement.apply` reads, is PSD by
    construction, and completeness of the model gives it trace 1: it is hermitized and only
    its trace is checked.  Requires positive (bare or weak) operator families.
    """
    if model.kind not in CONTROLLER_KINDS:
        raise InvalidModelError(
            f"controller correlation needs positive operators, got kind {model.kind.value}"
        )
    require_valid(model)
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    # the X_n, top to bottom, from a checked ρ and a validated model: X X† cannot overflow
    x = _branch_factors(model, rho).reshape(-1, rho.dim)
    return JointState(
        matrix=DensityMatrix._exact(hermitize(x @ dagger(x)), "correlated joint state"),
        n_outcomes=model.n_outcomes,
        system_dim=rho.dim,
    )


def feedback_unitary(blocks) -> np.ndarray:
    """Controlled unitary Σ_n |n⟩⟨n| ⊗ U_n from the (N, d, d) stack of blocks U_n."""
    try:
        u = np.asarray(blocks, complex)
    except ValueError as exc:  # ragged blocks
        raise DimensionMismatchError(f"blocks must form an (N, d, d) stack: {exc}") from None
    if u.ndim != 3 or 0 in u.shape or u.shape[1] != u.shape[2]:
        raise DimensionMismatchError(f"blocks must form an (N, d, d) stack, got shape {u.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual fails below
        residuals = np.abs(dagger(u) @ u - np.eye(u.shape[1])).max(axis=(1, 2))
    failed = ~(residuals <= STRUCTURE_TOL)  # NaN too
    if failed.any():
        k = int(failed.argmax())
        raise NonUnitaryBlockError(f"block {k} unitarity residual {residuals[k]:.3e}")
    return _block_diagonal(u)


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """Σ_n |n⟩⟨n| ⊗ A_n from the (N, d, d) stack of the A_n, zero off the diagonal blocks."""
    n, d = stack.shape[:2]
    out = np.zeros((n, d, n, d), dtype=complex)
    out[np.arange(n), :, np.arange(n), :] = stack
    return out.reshape(n * d, n * d)


def apply_joint_unitary(joint: JointState, u: np.ndarray) -> JointState:
    """ρ → U ρ U† on the joint space, PSD for any U, with every check of ``from_psd``, as a
    caller's U can overflow it; a U that is not D × D (D the joint's dimension) or changes
    the trace raises."""
    u, d = np.asarray(u, dtype=complex), joint.matrix.dim
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} != joint shape {(d, d)}")
    rotated = DensityMatrix.from_psd(u @ joint.matrix.matrix @ dagger(u), "joint state")
    return replace(joint, matrix=rotated)


def decohere_controller(
    joint: JointState, kept: Iterable[int] = ()
) -> tuple[JointState, KeptBranches]:
    """Remove all controller coherences (block-dephasing pinch), and read off the
    branches in ``kept``.

    The result ⊕ p_n ρ_n is PSD by construction, and has the union of its
    blocks' spectra, so one eigenvalue-only call on all N blocks checks each
    against the -STATE_TOL floor.  The blocks in ``kept``, checked for a positive
    trace and, over it, for a unit trace, each named ``branch {n}``, enter that call
    over their traces, which gives their entropies.  Any other block is checked as it
    stands: an outcome dropped for its tiny weight holds only round-off, which is no
    state.  No block is tested for Hermiticity: the joint was, where it was built, and a
    diagonal block of it, over a real trace or not, is as exact.  The first failing block
    raises, and so does an index outside 0…N-1 (:class:`ArgumentRangeError`).  Returns
    the pinched joint and the kept branches.
    """
    pinched = _block_diagonal(joint.diagonal_blocks())
    decohered = replace(joint, matrix=DensityMatrix._exact(pinched, "decohered joint"))
    kept = np.array(sorted({decohered._index(n) for n in kept}), dtype=int)
    blocks, p = decohered.diagonal_blocks(), decohered.probabilities()
    positive = p[kept] > 0.0  # NaN is not
    head = kept[: len(kept) if positive.all() else int(positive.argmin())]
    stack = blocks.copy()
    stack[head] = _normalized(blocks[head] / p[head, None, None], [f"branch {n}" for n in head])[0]
    if len(head) < len(kept):  # kept[len(head)] is the first with no positive trace
        n = int(kept[len(head)])
        raise InvalidStateError(f"branch {n}: block trace {float(p[n])!r} is not positive")
    spectra = _eigvals(stack)
    for n, lam in enumerate(spectra[:, -1].tolist()):
        _check_spectrum_floor(lam, f"branch {n}")
    entropies = np.array([_nats(s) for s in spectra[kept]])
    return decohered, KeptBranches(kept, p[kept], entropies)


def finalize_branches(
    joint: JointState,
    rho_t: DensityMatrix,
    branches: KeptBranches,
    s_initial: float,
) -> tuple[JointState, BathLedger]:
    """Replace every branch's system state by the isothermal endpoint ρ_T.

    A branch that ``branches`` leaves out was dropped and gets weight 0.
    Every branch lands on ρ_T, so the joint state factors as ρ_C ⊗ ρ_T, exactly
    Hermitian with a checked ρ_T and real p_n, and only its trace is checked.  The
    bath ledger records S_n - S per branch.
    """
    n = joint.n_outcomes
    p_vec, gains = np.zeros(n), np.zeros(n)  # an empty branch leaves the bath untouched
    p_vec[branches.outcomes] = branches.probabilities
    gains[branches.outcomes] = branches.entropies - s_initial
    # diag(p) ⊗ ρ_T as np.kron forms it, -0.0 entries and all: [n, i, m, j] is p_nm ρ_ij
    p_diag = np.diag((p_vec / p_vec.sum()).astype(complex))[:, None, :, None]
    final = (p_diag * rho_t.matrix[None, :, None, :]).reshape(joint.matrix.dim, -1)
    joint_final = JointState(DensityMatrix._exact(final, "finalized joint"), n, joint.system_dim)
    return joint_final, BathLedger(branch_entropies=tuple(gains.tolist()))


def reset_controller(
    controller: DensityMatrix, bath: BathLedger
) -> tuple[DensityMatrix, BathLedger]:
    """Swap the controller against a fresh |0⟩ ancilla and dump the ancilla
    into the bath: controller returns to |0⟩⟨0| and the bath entropy grows by
    the controller's record entropy S({p_n}), read from its diagonal: the
    controller must be diagonal in the record basis, so that is its spectrum."""
    record = np.diag(controller.matrix)
    if not max_abs(controller.matrix - np.diag(record)) <= STRUCTURE_TOL:  # NaN too
        raise InvalidStateError("controller must be diagonal in the record basis")
    # descending, as an eig orders them, so the sum runs in the same order
    record_entropy = _nats(np.sort(record.real)[::-1])
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


def run_controller_cycle(
    h: Hamiltonian, temperature: float, model: MeasurementModel
) -> ControllerCycleResult:
    """One full cycle in the measurement-free picture: correlate, feed back, decohere,
    finalize, reset, over the branches :func:`~qfeedback.feedback.plan_branches` plans."""
    step = plan_branches(h, temperature, model)
    kept = step.plan.outcomes.tolist()
    # a dropped outcome's block leaves the system alone
    blocks = np.eye(model.dim, dtype=complex)[None].repeat(model.n_outcomes, axis=0)
    blocks[kept] = step.plan.basis_unitaries
    joint = apply_joint_unitary(correlate(step.rho, model), feedback_unitary(blocks))
    joint, branches = decohere_controller(joint, kept)

    # the kept branches read back from the joint state (pre-finalize blocks hold
    # the rotated p_n ρ_n, whose entropies and probabilities are basis-invariant)
    branch_entropies = tuple(branches.entropies.tolist())
    probabilities = branches.probabilities / branches.probabilities.sum()
    delta_s_meas = entropy_reduction(probabilities, branch_entropies, step.initial.entropy)

    joint_final, bath = finalize_branches(joint, step.rho, branches, step.initial.entropy)
    report = second_law_verdict(probabilities, delta_s_meas)
    system_closure = trace_distance(joint_final.system_state(), step.rho)

    controller_reset, bath = reset_controller(joint_final.controller_state(), bath)
    controller_closure = trace_distance(
        controller_reset, DensityMatrix.from_vector(np.eye(model.n_outcomes)[0])
    )
    # bath gain: isothermal stage took (S - S_n) out per branch, reset put
    # S({p_n}) back in; net is ΔS_tot
    branch_gains = np.asarray(bath.branch_entropies)[branches.outcomes]
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
    )
