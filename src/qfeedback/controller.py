"""Measurement-free formulation: an N-state quantum controller is correlated
with the system by an isometry, steers it with a controlled unitary, and
decoheres when the bath branches become macroscopically distinct.

The bath is never a Hilbert space here.  It enters as entropy alone: each
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
    ArgumentRangeError, DimensionMismatchError, InvalidStateError, NonUnitaryBlockError,
)
from .linalg import _complex_array, _eigvals, dagger, hermitize, max_abs
from .feedback import CycleLedger, _close, _land, plan_branches
from .measurement import MeasurementModel, _branch_factors, require_valid
from .thermo import (
    DensityMatrix,
    Hamiltonian,
    _check_spectrum_floor,
    _nats,
    _normalized,
    trace_distance,
)

# Largest entry allowed in U†U - I of a feedback block, and in the
# off-diagonal part of a controller about to be reset.
STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class JointState:
    """Controller⊗system density matrix with N×N blocks of size d×d.

    Row n·d + i is controller state n, system state i, so :meth:`blocks` reads
    the matrix as one read-only (N, d, N, d) view whose [n, :, m, :] is block
    (n, m); the diagonal blocks, their traces and both marginals are read from
    it.  Diagonal blocks hold p_n ρ_n, off-diagonal blocks the coherences between
    controller basis states.  Each joint the cycle builds is PSD by
    construction and takes no eig of its own, nor do its two marginals,
    partial traces of a PSD matrix.  The kept branches ρ_n are read off by
    :func:`decohere_controller`.
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


def correlate(rho: DensityMatrix, model: MeasurementModel) -> JointState:
    """Correlate a fresh |0⟩ controller with the system, for a model of any kind.

    Implemented as the isometry V = Σ_{n,j} |n⟩ ⊗ |j⟩ ⊗ A_nj, with the index j of the
    Kraus operators within an outcome traced out.  The joint is X X†, X = V ρ^½ read as
    the (N·d, k·d) stack of the factors X_n = [X_n1 … X_nk] that
    :func:`~qfeedback.measurement.apply` reads: its block (n, m) is Σ_j A_nj ρ A_mj†.
    It is PSD by construction for any operators, and completeness of the model gives it
    trace 1: it is hermitized and only its trace is checked.
    """
    require_valid(model)
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    # the X_n, top to bottom, from a checked ρ and a validated model: X X† cannot overflow
    x = _branch_factors(model, rho)
    x = x.reshape(-1, x.shape[-1])
    return JointState(
        matrix=DensityMatrix._exact(hermitize(x @ dagger(x)), "correlated joint state"),
        n_outcomes=model.n_outcomes,
        system_dim=rho.dim,
    )


def feedback_unitary(blocks) -> np.ndarray:
    """Controlled unitary Σ_n |n⟩⟨n| ⊗ U_n from the (N, d, d) stack of blocks U_n."""
    u = _complex_array(blocks, "blocks must form an (N, d, d) stack")
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
    u, d = _complex_array(u, "the unitary must be a numeric matrix"), joint.matrix.dim
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} != joint shape {(d, d)}")
    rotated = DensityMatrix.from_psd(u @ joint.matrix.matrix @ dagger(u), "joint state")
    return replace(joint, matrix=rotated)


def decohere_controller(
    joint: JointState, kept: Iterable[int] = ()
) -> tuple[JointState, np.ndarray, np.ndarray]:
    """Remove all controller coherences (block-dephasing pinch), and read off the
    branches in ``kept``.

    The result ⊕ p_n ρ_n is PSD by construction.  The blocks in ``kept`` are checked
    for a positive trace and, over it, for a unit trace, each named ``branch {n}``.
    Their spectra are the landing's to read, which checks their floor.  Any other block
    is checked as it stands against the -STATE_TOL floor, by one eigenvalue-only call:
    an outcome dropped for its tiny weight holds only round-off, which is no state.  No
    block is tested for Hermiticity: the joint was, where it was built, and a diagonal
    block of it, over a real trace or not, is as exact.  The first failing block raises,
    and so does an index outside 0…N-1 (:class:`ArgumentRangeError`).  Returns the
    pinched joint, and by rising index the kept blocks' traces p_n, not renormalized, as
    one (K,) array and the blocks over them as one (K, d, d) stack, both read-only.
    """
    pinched = _block_diagonal(joint.diagonal_blocks())
    decohered = replace(joint, matrix=DensityMatrix._exact(pinched, "decohered joint"))
    kept = np.array(sorted({decohered._index(n) for n in kept}), dtype=int)
    blocks, p = decohered.diagonal_blocks(), decohered.probabilities()
    positive = p[kept] > 0.0  # NaN is not
    head = kept[: len(kept) if positive.all() else int(positive.argmin())]
    states, _ = _normalized(blocks[head] / p[head, None, None], [f"branch {n}" for n in head])
    if len(head) < len(kept):  # kept[len(head)] is the first with no positive trace
        n = int(kept[len(head)])
        raise InvalidStateError(f"branch {n}: block trace {float(p[n])!r} is not positive")
    if len(kept) < joint.n_outcomes:  # the dropped blocks, as they stand
        dropped = np.delete(np.arange(joint.n_outcomes), kept)
        for n, lam in zip(dropped.tolist(), _eigvals(blocks[dropped])[:, -1].tolist()):
            _check_spectrum_floor(lam, f"branch {n}")
    p = p[kept]
    for a in (p, states):
        a.setflags(write=False)
    return decohered, p, states


def finalize_branches(
    joint: JointState, rho_t: DensityMatrix, kept: Iterable[int], weights: np.ndarray
) -> JointState:
    """Replace every branch's system state by the isothermal endpoint ρ_T.

    Branch ``kept[k]`` gets weight ``weights[k]``, renormalized over them all, and a
    branch that ``kept`` leaves out was dropped and gets weight 0.  Every branch lands on
    ρ_T, so the joint state factors as ρ_C ⊗ ρ_T, exactly Hermitian with a checked ρ_T
    and real p_n, and only its trace is checked.
    """
    n = joint.n_outcomes
    p_vec = np.zeros(n)
    p_vec[list(kept)] = weights
    # diag(p) ⊗ ρ_T as np.kron forms it, -0.0 entries and all: [n, i, m, j] is p_nm ρ_ij
    p_diag = np.diag((p_vec / p_vec.sum()).astype(complex))[:, None, :, None]
    final = (p_diag * rho_t.matrix[None, :, None, :]).reshape(joint.matrix.dim, -1)
    return JointState(DensityMatrix._exact(final, "finalized joint"), n, joint.system_dim)


def reset_controller(controller: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Swap the controller against a fresh |0⟩ ancilla and dump the ancilla into the
    bath.  Returns the controller's |0⟩⟨0| and the record entropy S({p_n}) the bath
    gains, read from the controller's diagonal: the controller must be diagonal in the
    record basis, so that is its spectrum."""
    record = np.diag(controller.matrix)
    if not max_abs(controller.matrix - np.diag(record)) <= STRUCTURE_TOL:  # NaN too
        raise InvalidStateError("controller must be diagonal in the record basis")
    # descending, as an eig orders them, so the sum runs in the same order
    record_entropy = _nats(np.sort(record.real)[::-1])
    return DensityMatrix.from_vector(np.eye(controller.dim)[0]), record_entropy


@dataclass(frozen=True)
class ControllerCycleResult(CycleLedger):
    """The cycle ledger of the measurement-free picture, read from the controller's joint,
    and what the controller alone has."""

    controller_closure: float  # trace distance of reset controller from |0⟩⟨0|
    bath_entropy_increase: float  # total bath gain over the cycle

    # Kept for readers outside the package (perfbench/workloads.py) until they read
    # ``closure_distance``, the final system state's trace distance from ρ_T.
    @property
    def system_closure(self) -> float:
        return self.closure_distance


def run_controller_cycle(
    h: Hamiltonian, temperature: float, model: MeasurementModel
) -> ControllerCycleResult:
    """One full cycle in the measurement-free picture: correlate, feed back, decohere,
    finalize, reset, over the branches :func:`~qfeedback.feedback.plan_branches` plans.
    Each kept branch is landed as it left the feedback, its block of the decohered joint
    over its trace p_n, so the works and S_n of the ledger come from the joint."""
    step = plan_branches(h, temperature, model)
    kept = step.plan.outcomes.tolist()
    # a dropped outcome's block leaves the system alone
    blocks = np.eye(model.dim, dtype=complex)[None].repeat(model.n_outcomes, axis=0)
    blocks[kept] = step.plan.basis_unitaries
    joint = apply_joint_unitary(correlate(step.rho, model), feedback_unitary(blocks))
    joint, p, states = decohere_controller(joint, kept)
    probabilities = p / p.sum()
    works, entropies = _land(states, step.outcomes, step.plan, temperature)

    joint_final = finalize_branches(joint, step.rho, kept, p)
    controller_reset, record_entropy = reset_controller(joint_final.controller_state())
    controller_closure = trace_distance(
        controller_reset, DensityMatrix.from_vector(np.eye(model.n_outcomes)[0])
    )
    # bath gain: isothermal stage took (S - S_n) out per branch, reset put
    # S({p_n}) back in; net is ΔS_tot
    bath_gain = float(np.dot(probabilities, entropies - step.initial.entropy)) + record_entropy
    branches, end = (probabilities, entropies, works), (step.rho, step.initial)
    return _close(
        step, temperature, branches, joint_final.system_state(), end, ControllerCycleResult,
        controller_closure=controller_closure, bath_entropy_increase=bath_gain,
    )
