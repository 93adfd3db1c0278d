"""Reference implementations the tests check the program against.

None of these runs in a scenario.  Each is an independent construction of
something the program computes another way: a cyclic Jacobi eigensolver for
LAPACK ``eigh``, an explicit ancilla dilation for block dephasing, the
universe entropy summed literally and read off the assembled final state,
the controller's joint states formed as Σ_j V_j ρ V_j† and checked by the eig of
``from_matrix``, the decohered joint checked block by block with its branch
entropies from a full eig, the average post-measurement state, the quasi-static work
integral one path step at a time, a measurement model's validation
report with one eig per operator, a measurement applied one outcome at a
time, the feedback plans planned and executed one outcome at a time, each
rotated state checked on its own, and each branch's maximal work
F(ρ_n; H1) - F(ρ_T2; H2) from numpy's ``eigh``.
``eig_hermitian_reference`` is the straightforward form of the LAPACK
wrapper, which the program's must match byte for byte.  The controller's block
pinch is also copied one diagonal block at a time.  The oracles form their
Kronecker products, block slices and partial traces with ``np.kron``, slicing
and ``einsum`` directly, so they share none of that code with the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from qfeedback.controller import JointState, KeptBranches
from qfeedback.errors import (
    ArgumentRangeError,
    DegenerateStateError,
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    NoConvergenceError,
    NonPositiveTemperatureError,
    NotHermitianError,
    PlanMismatchError,
)
from qfeedback.feedback import PLAN_TOL
from qfeedback.ledger import LedgerRow
from qfeedback.linalg import (
    HERMITICITY_TOL,
    EigenDecomposition,
    _frobenius,
    dagger,
    eig_hermitian,
    hermitize,
    max_abs,
    spectral_matrix,
)
from qfeedback.measurement import (
    COMPLETENESS_TOL,
    P_FLOOR,
    MeasurementModel,
    ModelKind,
    OutcomeRecord,
    ValidationReport,
    require_valid,
)
from qfeedback.thermo import (
    STATE_TOL,
    DensityMatrix,
    Hamiltonian,
    _check_spectrum_floor,
    _unit_trace,
    boltzmann_kt,
    gibbs_weights,
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
    a0 = np.asarray(m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # as in linalg: inf or nan, no warning
        residual = max_abs(a0 - dagger(a0))
    if not residual <= HERMITICITY_TOL:
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
    total = np.kron(joint.matrix.matrix, aux0)
    u = np.zeros((n * d * n, n * d * n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for ctrl in range(n):
        proj = np.zeros((n, n), dtype=complex)
        proj[ctrl, ctrl] = 1.0
        u += np.kron(np.kron(proj, np.eye(d, dtype=complex)), power)
        power = shift @ power
    total = u @ total @ dagger(u)
    reduced = np.einsum("abcb->ac", total.reshape(n * d, n, n * d, n))  # auxiliary out
    return replace(joint, matrix=DensityMatrix.from_matrix(reduced, where="decohered joint"))


def pinch_by_slices(joint: JointState) -> np.ndarray:
    """The joint's matrix with its off-diagonal blocks zeroed, copied one diagonal
    block at a time."""
    d, m = joint.system_dim, joint.matrix.matrix
    out = np.zeros_like(m)
    for n in range(joint.n_outcomes):
        rows = slice(n * d, (n + 1) * d)
        out[rows, rows] = m[rows, rows]
    return out


def decohere_controller_reference(joint: JointState, kept=()) -> tuple[JointState, KeptBranches]:
    """The block-dephasing pinch checked one kept block at a time, its trace tested
    positive and its ``_unit_trace`` run on its own, then every block in one stacked
    ``eig_hermitian`` call, whose sorted, phase-fixed vectors each kept branch state
    keeps for ``von_neumann_entropy`` to read."""
    d, n_out = joint.system_dim, joint.n_outcomes
    state = DensityMatrix.from_psd(pinch_by_slices(joint), "decohered joint")
    blocks = [state.matrix[n * d : (n + 1) * d, n * d : (n + 1) * d] for n in range(n_out)]
    kept = sorted(set(kept))
    stack, probabilities = [], []
    for n, block in enumerate(blocks):
        if n in kept:
            p = float(block.trace().real)
            if not p > 0.0:
                raise InvalidStateError(f"branch {n}: block trace {p!r} is not positive")
            probabilities.append(p)
            block = _unit_trace(block / p, f"branch {n}")[0]
        stack.append(block)
    dec = eig_hermitian(np.stack(stack))
    entropies = []
    for n in range(n_out):
        if n in kept:
            spectrum = EigenDecomposition(dec.eigenvalues[n], dec.eigenvectors[n])
            branch = DensityMatrix._with_eig(stack[n], spectrum, f"branch {n}")
            entropies.append(von_neumann_entropy(branch))
        else:
            _check_spectrum_floor(float(dec.eigenvalues[n, -1]), f"branch {n}")
    branches = KeptBranches(np.array(kept, dtype=int), np.array(probabilities), np.array(entropies))
    return replace(joint, matrix=state), branches


def eig_checked_joint(rho: DensityMatrix, model: MeasurementModel, u: np.ndarray) -> JointState:
    """The rotated joint U (Σ_j V_j ρ V_j†) U† formed from the V_j and ρ themselves, V_j the
    vertical stack of every outcome's j-th Kraus operator (a zero matrix where an outcome
    has fewer), with both stages built by ``DensityMatrix.from_matrix``, whose eig checks
    their spectra.  ``correlate`` forms the joint as X X† from the factors
    X_n = [A_n1 ρ^½ … A_nk ρ^½], and ``correlate`` and ``apply_joint_unitary`` store each
    stage with no eig."""
    k = max(len(group) for group in model.groups)
    zero = np.zeros((rho.dim, rho.dim), dtype=complex)
    joint = sum(
        v @ rho.matrix @ dagger(v)
        for v in (np.vstack([g[j] if j < len(g) else zero for g in model.groups]) for j in range(k))
    )
    correlated = DensityMatrix.from_matrix(joint, "correlated joint state")
    rotated = DensityMatrix.from_matrix(hermitize(u @ correlated.matrix @ dagger(u)), "joint state")
    return JointState(matrix=rotated, n_outcomes=model.n_outcomes, system_dim=rho.dim)


def total_entropy(probabilities, branch_system_entropies, s_bath: float = 0.0) -> float:
    """S({p_n}) + Σ p_n S_n + S_B, the universe entropy after the cycle."""
    p = np.asarray(probabilities, dtype=float)
    s_n = np.asarray(branch_system_entropies, dtype=float)
    return shannon_entropy(p) + float(np.dot(p, s_n)) + s_bath


def total_entropy_assembled(joint_final: JointState, branch_gains) -> float:
    """Universe entropy read off the assembled final structure, with ``branch_gains`` the
    bath's entropy change S_n - S per controller index (0 for a dropped one): the
    controller-bath composite is classical over distinguishable branches, and the system
    factor rides along in its thermal state."""
    p = joint_final.probabilities()
    controller_bath = von_neumann_entropy(joint_final.controller_state()) + float(
        np.dot(p, np.asarray(branch_gains))
    )
    return controller_bath + von_neumann_entropy(joint_final.system_state())


def average_post_state(records) -> DensityMatrix:
    """ρ_after = Σ p_n ρ_n."""
    acc = np.zeros_like(records[0].state.matrix)
    for r in records:
        acc = acc + r.probability * r.state.matrix
    return DensityMatrix.from_matrix(acc, where="average post-measurement state")


@dataclass(frozen=True)
class ReferenceOutcomes:
    """What ``apply_reference`` keeps: one :class:`OutcomeRecord` per kept outcome, in
    order, and the dropped outcome indices."""

    records: tuple[OutcomeRecord, ...]
    dropped: tuple[int, ...]


def apply_reference(model: MeasurementModel, rho: DensityMatrix, h: Hamiltonian):
    """``measurement.apply`` one outcome at a time: each factor X_nj = A_nj ρ^½ by its own
    product, each X_n by ``np.hstack``, each kept outcome's state by its own
    ``from_matrix`` call and its energy by its own complex Tr[Hρ_n]; a
    :class:`ReferenceOutcomes`."""
    if not model.dim == rho.dim == h.dim:
        raise DimensionMismatchError(f"dims differ: {model.dim}, {rho.dim}, {h.dim}")
    require_valid(model)
    root = rho.eig.eigenvectors * np.sqrt(np.clip(rho.eig.eigenvalues, 0.0, None))
    raw, dropped = [], []
    for n, group in enumerate(model.groups):
        x = np.hstack([a @ root for a in group])  # X_n = [X_n1 … X_nk]
        p = float(np.vdot(x, x).real)
        if p <= 0.0 or p < P_FLOOR:
            dropped.append(n)
        else:
            raw.append((n, p, x))
    if not raw:
        raise DegenerateStateError(f"every outcome probability is below the floor {P_FLOOR:g}")
    total = sum(p for _, p, _ in raw)
    records = []
    for n, p, x in raw:
        state = DensityMatrix.from_matrix(x @ dagger(x) / p, where=f"outcome {n}")
        energy = complex((h.matrix @ state.matrix).trace()).real
        records.append(OutcomeRecord(n, p / total, state, von_neumann_entropy(state), energy))
    return ReferenceOutcomes(records=tuple(records), dropped=tuple(dropped))


def branch_max_work_reference(
    rho_n: np.ndarray, h1: Hamiltonian, h2: Hamiltonian, temperature: float
) -> float:
    """The most work a branch state ρ_n on H1 gives against a bath at kT, ending on the
    Gibbs state ρ_T2 of H2: F(ρ_n; H1) - F(ρ_T2; H2), with F(ρ; H) = Tr[Hρ] + kT·Tr[ρ ln ρ]
    and F(ρ_T2; H2) = -kT ln Z2, every spectrum from ``np.linalg.eigh``."""
    lam = np.linalg.eigh(hermitize(rho_n)).eigenvalues
    lam = lam[lam > 0.0]
    f_n = float(np.trace(h1.matrix @ rho_n).real) + temperature * float(np.dot(lam, np.log(lam)))
    energies = np.linalg.eigh(h2.matrix).eigenvalues
    lowest = energies.min()
    f_target = lowest - temperature * math.log(np.exp(-(energies - lowest) / temperature).sum())
    return f_n - f_target


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
    Hermiticity test, in place of one stacked call over them.  It tests a weak model's
    P± too, which the report leaves to their construction, so the two agree on a weak
    model only while that construction keeps them positive."""
    residual = model.completeness_residual()
    bad = []
    if model.kind in (ModelKind.BARE, ModelKind.WEAK) and math.isfinite(residual):
        for n, group in enumerate(model.groups):
            asymmetry = max_abs(group[0] - dagger(group[0]))
            if not asymmetry <= HERMITICITY_TOL:
                bad.append((n, asymmetry))
                continue
            lam_min = float(eig_hermitian(group[0]).eigenvalues[-1])
            if lam_min < -COMPLETENESS_TOL:
                bad.append((n, lam_min))
    ok = residual <= COMPLETENESS_TOL and not bad
    return ValidationReport(ok=ok, completeness_residual=residual, non_positive=tuple(bad))


def unit_trace_reference(matrix, where: str) -> tuple[np.ndarray, float]:
    """``thermo._unit_trace`` on one matrix: each check in turn, then the hermitized
    matrix over its trace, and that trace."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{where}: must be square, got {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: the checks below raise
        residual = max_abs(m - dagger(m))
        if not residual <= STATE_TOL:
            raise InvalidStateError(
                f"{where}: not Hermitian within {STATE_TOL:g} (residual {residual:.3e})"
            )
        m = hermitize(m)
        tr = float(m.trace().real)
        if not abs(tr - 1.0) <= STATE_TOL:
            raise InvalidStateError(f"{where}: trace {tr!r} is not 1 within {STATE_TOL:g}")
        m = m / tr
    if not np.isfinite(m).all():
        raise InvalidStateError(f"{where}: entries are not finite")
    return m, tr


@dataclass(frozen=True)
class OutcomePlan:
    """Slice n of a ``feedback.FeedbackPlan``: the plan of one outcome."""

    outcome: int
    basis_unitary: np.ndarray
    energy_basis: np.ndarray
    levels: np.ndarray
    shift: float
    populations: np.ndarray


def plan_feedback_reference(record, h: Hamiltonian, temperature: float, e_initial: float):
    """``feedback.plan_feedback`` for one outcome, on its own spectrum, as an
    :class:`OutcomePlan`."""
    kt = boltzmann_kt(temperature)
    dec_state = record.state.eig
    lam = np.clip(dec_state.eigenvalues, 0.0, None)
    lam = lam / lam.sum()
    support = lam > 0.0

    dec_h = h.eig
    energy_basis = dec_h.eigenvectors[:, ::-1]
    basis_unitary = energy_basis @ dagger(dec_state.eigenvectors)

    levels = np.full(lam.shape, np.inf)
    with np.errstate(over="ignore"):
        levels[support] = -kt * np.log(lam[support])
    if not np.isfinite(levels[support]).all():
        raise DomainError(
            f"outcome {record.n}: a retuned level -kT ln(lambda) is not finite (kT = {kt!r})"
        )
    shift = e_initial - float(np.dot(lam[support], levels[support]))
    return OutcomePlan(
        outcome=record.n,
        basis_unitary=basis_unitary,
        energy_basis=energy_basis,
        levels=levels,
        shift=shift,
        populations=lam,
    )


def execute_plan_reference(records, plans, temperature: float):
    """``feedback.execute_plan`` one outcome at a time, over one :class:`OutcomePlan` per
    record: each rotated state built by ``DensityMatrix.from_psd`` and its landing target
    by ``np.diag``, then one eig call over every rotated state and difference, checked
    outcome by outcome; returns the (N,) works."""
    if len(records) != len(plans):
        raise PlanMismatchError(f"{len(records)} outcomes but {len(plans)} plans")
    rotated, differences, works = [], [], []
    for record, plan in zip(records, plans):
        u, b, support = plan.basis_unitary, plan.energy_basis, np.isfinite(plan.levels)
        rho = DensityMatrix.from_psd(u @ record.state.matrix @ dagger(u), "rotated outcome state")
        populations = np.einsum("ij,ij->j", b.conj(), rho.matrix @ b).real[support]
        works.append(record.energy - float(np.dot(plan.levels[support] + plan.shift, populations)))
        weights = gibbs_weights(plan.levels, temperature)
        expected = hermitize(b @ np.diag(weights.astype(complex)) @ dagger(b))
        rotated.append(rho.matrix)
        differences.append(rho.matrix - expected)
    dec = eig_hermitian(np.stack(rotated + differences))

    for n, (record, plan) in enumerate(zip(records, plans)):
        deviation = 0.5 * float(np.abs(dec.eigenvalues[len(rotated) + n]).sum())
        if not deviation <= PLAN_TOL:  # NaN too
            raise PlanMismatchError(
                f"outcome {plan.outcome}: landed state is {deviation:.3e} from thermal "
                f"(tolerance {PLAN_TOL:g})"
            )
        spectrum = EigenDecomposition(dec.eigenvalues[n], dec.eigenvectors[n])
        state = DensityMatrix._with_eig(rotated[n], spectrum, f"outcome {plan.outcome}")
        drift = abs(von_neumann_entropy(state) - record.entropy)
        if not drift <= PLAN_TOL:  # NaN too
            raise PlanMismatchError(f"outcome {plan.outcome}: entropy drifted by {drift:.3e}")
    return np.array(works)


def parse_json(text: str) -> list[LedgerRow]:
    """Inverse of ``ledger.emit_json``."""
    return [LedgerRow(**entry) for entry in json.loads(text)]
