"""Reference implementations the tests check the program against.

None of these runs in a scenario.  Each is an independent construction of
something the program computes another way: a cyclic Jacobi eigensolver for
LAPACK ``eigh``, an explicit ancilla dilation for block dephasing, the
universe entropy summed literally and read off the assembled final state,
the controller's joint states diagonalized and clamped as ``from_matrix``
builds a state, the average post-measurement state, the quasi-static work
integral one path step at a time, and a measurement model's validation
report with one eig per operator.
``eig_hermitian_reference`` is the straightforward form of the LAPACK
wrapper, which the program's must match byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from qfeedback.controller import BathLedger, JointState
from qfeedback.errors import (
    ArgumentRangeError,
    DomainError,
    NoConvergenceError,
    NonPositiveTemperatureError,
    NotHermitianError,
)
from qfeedback.ledger import LedgerRow
from qfeedback.linalg import (
    HERMITICITY_TOL,
    EigenDecomposition,
    _as_square,
    _frobenius,
    dagger,
    eig_hermitian,
    hermitian_residual,
    hermitize,
    is_hermitian,
    max_abs,
    partial_trace,
    spectral_matrix,
    tensor,
)
from qfeedback.measurement import (
    COMPLETENESS_TOL,
    MeasurementModel,
    ModelKind,
    ValidationReport,
)
from qfeedback.thermo import (
    DensityMatrix,
    Hamiltonian,
    shannon_entropy,
    thermal_state,
    von_neumann_entropy,
)

# off-diagonal Frobenius norm target, relative to ||M||_F
JACOBI_REL_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100
# At or below this |a_pq| (zero, or deep in the subnormals) 1/|a_pq| overflows,
# so the element's phase cannot be formed.
_PHASE_MIN = 2.0**-1024
# Beyond this |tau|, tau * tau overflows and the rotation angle is zero.
_TAU_MAX = math.sqrt(np.finfo(float).max)


def reconstruct(dec: EigenDecomposition) -> np.ndarray:
    """V diag(λ) V†, not hermitized, so a residual shows the factors' own error."""
    v = dec.eigenvectors
    return v @ np.diag(dec.eigenvalues.astype(complex)) @ dagger(v)


def _norm(a: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # _frobenius rescales on overflow
        return _frobenius(a)


def _offdiag_norm(a: np.ndarray) -> float:
    return _norm(a - np.diag(np.diag(a)))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Zero the (p, q) element of Hermitian ``a`` by a complex Givens rotation,
    accumulating the rotation into ``v``.  Modifies both arrays in place.
    """
    apq = a[p, q]
    mag = abs(apq)
    if mag <= _PHASE_MIN:
        # far too small to move the diagonal: drop the pair instead of rotating
        a[p, q] = a[q, p] = 0.0
        return
    phase = apq / mag  # e^{i phi}; diag(1, e^{-i phi}) makes the 2x2 block real
    gap = a[q, q].real - a[p, p].real
    t = 0.0  # the angle when tau = gap / (2|a_pq|) is too large to square
    # |gap| <= 2|a_pq|·_TAU_MAX, tested without the product, which overflows
    if abs(gap) / (2.0 * _TAU_MAX) <= mag:
        tau = gap / (2.0 * mag)
        t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
        if tau < 0.0:
            t = -t
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    phase_c = phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * phase_c * col_q
    a[:, q] = s * col_p + c * phase_c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * phase * row_q
    a[q, :] = s * row_p + c * phase * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vcol_p = v[:, p].copy()
    vcol_q = v[:, q].copy()
    v[:, p] = c * vcol_p - s * phase_c * vcol_q
    v[:, q] = s * vcol_p + c * phase_c * vcol_q


def jacobi_eig(m: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Converges when the off-diagonal Frobenius norm drops below
    ``JACOBI_REL_TOL * ||M||_F`` and raises :class:`NoConvergenceError` after
    ``max_sweeps`` sweeps otherwise.  Eigenvalues come back sorted descending;
    eigenvector phases are left as the rotations made them.
    """
    a = hermitize(np.asarray(m, dtype=complex))
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    target = JACOBI_REL_TOL * _norm(a)
    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q)
    else:
        if _offdiag_norm(a) > target:
            raise NoConvergenceError(
                f"Jacobi sweeps did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {_offdiag_norm(a):.3e}, target {target:.3e})"
            )
    eigenvalues = np.real(np.diag(a)).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues=eigenvalues[order], eigenvectors=v[:, order])


def eig_hermitian_reference(m: np.ndarray) -> EigenDecomposition:
    """``linalg.eig_hermitian`` without its shortcuts: it always hermitizes,
    always checks the Frobenius norm, and finds each column's peak on its own."""
    a0 = _as_square(m)
    if not is_hermitian(a0):
        with np.errstate(over="ignore", invalid="ignore"):  # as in linalg: inf or nan, no warning
            residual = max_abs(a0 - dagger(a0))
        raise NotHermitianError(f"matrix is not Hermitian: max |M - M†| = {residual:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked on the next line
        a = hermitize(a0)
        norm = _frobenius(a)
    if not math.isfinite(norm):
        raise DomainError(f"matrix norm is not finite: max |M| = {max_abs(a):.3e}")
    try:
        ascending, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc

    order = np.argsort(-ascending, kind="stable")
    eigenvalues = ascending[order]
    vectors = v[:, order]
    for j in range(a.shape[0]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        component = vectors[k, j]
        if abs(component) > 0.0:
            vectors[:, j] *= component.conjugate() / abs(component)
    # read-only: states and Hamiltonians hand one decomposition to many callers
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


@dataclass(frozen=True)
class PolarFactors:
    """A = U P with U unitary and P positive semidefinite."""

    unitary: np.ndarray
    positive: np.ndarray


def polar_decompose(a: np.ndarray) -> PolarFactors:
    """Polar factorization A = U P with P = sqrt(A†A).

    When A is singular, U is completed on the null space of P by Gram-Schmidt
    over the standard basis vectors taken in index order, which makes the
    result deterministic.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    dec = eig_hermitian(hermitize(dagger(a) @ a))
    svals = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    w = dec.eigenvectors
    p = spectral_matrix(w, svals)

    s_max = float(svals[0]) if n else 0.0
    cutoff = n * np.finfo(float).eps * s_max
    columns: list[np.ndarray | None] = []
    for j in range(n):
        if svals[j] > cutoff:
            columns.append((a @ w[:, j]) / svals[j])
        else:
            columns.append(None)

    present = [c for c in columns if c is not None]
    for j in range(n):
        if columns[j] is not None:
            continue
        for k in range(n):
            candidate = np.zeros(n, dtype=complex)
            candidate[k] = 1.0
            for existing in present:
                candidate -= np.vdot(existing, candidate) * existing
            norm = float(np.linalg.norm(candidate))
            if norm > 1e-6:
                candidate /= norm
                # second orthogonalization pass for numerical cleanliness
                for existing in present:
                    candidate -= np.vdot(existing, candidate) * existing
                candidate /= float(np.linalg.norm(candidate))
                columns[j] = candidate
                present.append(candidate)
                break

    u = np.column_stack(columns) @ dagger(w)
    return PolarFactors(unitary=u, positive=p)


def decohere_via_ancilla(joint: JointState) -> JointState:
    """The controller's block dephasing, built explicitly: maximally entangle
    the controller basis with an N-dim auxiliary through a generalized CNOT,
    then trace the auxiliary out."""
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


def eig_checked_joint(rho: DensityMatrix, model: MeasurementModel, u: np.ndarray) -> JointState:
    """The rotated joint U V ρ V† U† with both stages built by ``DensityMatrix.from_matrix``,
    whose eig clamps round-off negatives and rebuilds the matrix from its spectrum.
    ``correlate`` and ``apply_joint_unitary`` store each stage as it stands instead."""
    v = np.vstack([group[0] for group in model.groups])
    correlated = DensityMatrix.from_matrix(v @ rho.matrix @ dagger(v), "correlated joint state")
    rotated = DensityMatrix.from_matrix(hermitize(u @ correlated.matrix @ dagger(u)), "joint state")
    return JointState(matrix=rotated, n_outcomes=model.n_outcomes, system_dim=rho.dim)


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


def average_post_state(records) -> DensityMatrix:
    """ρ_after = Σ p_n ρ_n."""
    acc = np.zeros_like(records[0].state.matrix)
    for r in records:
        acc = acc + r.probability * r.state.matrix
    return DensityMatrix.from_matrix(acc, where="average post-measurement state")


def quasi_static_work_reference(
    h_start: Hamiltonian, h_end: Hamiltonian, temperature: float, n_steps: int
) -> float:
    """``feedback.quasi_static_work`` one step at a time: the thermal state of each
    path Hamiltonian built on its own, and -Tr[ΔH_j ρ_j] summed over the steps."""
    if temperature <= 0.0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature!r}")
    if n_steps < 1:
        raise ArgumentRangeError(f"n_steps must be >= 1, got {n_steps!r}")
    a = h_start.matrix
    b = h_end.matrix
    work_out = 0.0
    for j in range(n_steps):
        s0 = j / n_steps
        s1 = (j + 1) / n_steps
        h_here = Hamiltonian.from_matrix((1.0 - s0) * a + s0 * b)
        rho_here = thermal_state(h_here, temperature)
        dh = (s1 - s0) * (b - a)
        work_out -= float(np.trace(dh @ rho_here.matrix).real)
    return work_out


def validation_report_reference(model: MeasurementModel) -> ValidationReport:
    """``MeasurementModel.report`` with one eig call per operator that passes the
    Hermiticity test, in place of one stacked call over them."""
    residual = model.completeness_residual()
    bad = []
    if model.kind in (ModelKind.BARE, ModelKind.WEAK) and math.isfinite(residual):
        for n, group in enumerate(model.groups):
            asymmetry = hermitian_residual(group[0])[0]
            if not asymmetry <= HERMITICITY_TOL:
                bad.append((n, asymmetry))
                continue
            lam_min = float(eig_hermitian(group[0]).eigenvalues[-1])
            if lam_min < -COMPLETENESS_TOL:
                bad.append((n, lam_min))
    ok = residual <= COMPLETENESS_TOL and not bad
    return ValidationReport(ok=ok, completeness_residual=residual, non_positive=tuple(bad))


def parse_json(text: str) -> list[LedgerRow]:
    """Inverse of ``ledger.emit_json``."""
    return [LedgerRow(**entry) for entry in json.loads(text)]
