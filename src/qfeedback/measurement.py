"""Measurement models and their application to states.

Four model kinds share one internal form, a tuple of Kraus-operator groups
indexed by outcome:

* bare        - one positive operator P_n per outcome, Σ P_n² = I
* efficient   - one general operator A_n per outcome, Σ A_n†A_n = I
* inefficient - several operators A_nj per outcome (information discarded)
* weak        - two-outcome family P_± = sqrt((I ± εB)/2) built from a
                Hermitian generator B with ||B|| ≤ 1 and strength ε

Applying a model to a state yields its kept outcomes as read-only (K, …) stacks
of index, probability, post-measurement state with its decomposition, entropy
and average energy, from which the average entropy drop and energy added
derive.  The states are one batched X_n X_n† product of the factors
X_nj = A_nj ρ^½, PSD by construction at any probability, which the
controller's joint reads too.
The second-law report of a cycle, ΔS_tot = S({p_n}) - ΔS_meas with its
verdict and efficiency flag, is decided here too, for both pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionMismatchError,
    IncompleteModelError,
    InvalidModelError,
)
from .linalg import (
    HERMITICITY_TOL,
    EigenDecomposition,
    dagger,
    eig_hermitian,
    hermitian_residual,
    matrix_function,
    max_abs,
    read_only,
)
from .thermo import DensityMatrix, Hamiltonian, _energies, _nats, shannon_entropy

COMPLETENESS_TOL = 1e-10
# how far past 1 a weak model's generator norm may read
GENERATOR_NORM_TOL = 1e-12
WEAK_STRENGTH_RANGE = (0.0, 1.0)  # the open interval a weak model's strength ε lies in
# An outcome less likely than this is dropped, and so is one whose probability is not
# positive (its conditional state p_n ρ_n / p_n is undefined): apply reads it when called.
P_FLOOR = 1e-14
# The thresholds on ΔS_tot that judge_second_law applies.
SECOND_LAW_TOL = -1e-9
EFFICIENCY_TOL = 1e-8


def _square_family(operators, what: str = "operator") -> list[np.ndarray]:
    """Read-only copies of a non-empty family of non-empty square matrices of one shape:
    what every model constructor requires, and what the report's stacked positivity check
    needs."""
    try:
        family = [read_only(a) for a in operators]
    except (TypeError, ValueError) as exc:  # ragged or non-numeric input
        raise InvalidModelError(f"{what}s must be numeric matrices: {exc}") from None
    if not family:
        raise InvalidModelError(f"a measurement model needs at least one {what}")
    shape = family[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
        raise DimensionMismatchError(f"a {what} must be a non-empty square matrix, got {shape}")
    for i, a in enumerate(family):
        if a.shape != shape:
            raise DimensionMismatchError(f"{what} {i} has shape {a.shape}, {what} 0 has {shape}")
    return family


class ModelKind(str, Enum):
    BARE = "bare"
    EFFICIENT = "efficient"
    INEFFICIENT = "inefficient"
    WEAK = "weak"


@dataclass(frozen=True)
class MeasurementModel:
    """Tagged family of measurement operators, grouped by outcome.

    The builders store read-only copies of the operators and generator, so
    ``report`` and ``operator_stack``, computed on first use and then kept, stay
    true of them.
    """

    kind: ModelKind
    groups: tuple[tuple[np.ndarray, ...], ...]
    generator: np.ndarray | None = None  # weak models only
    strength: float | None = None  # weak models only

    @classmethod
    def bare(cls, operators: Sequence[np.ndarray]) -> "MeasurementModel":
        return cls(kind=ModelKind.BARE, groups=tuple((p,) for p in _square_family(operators)))

    @classmethod
    def efficient(cls, operators: Sequence[np.ndarray]) -> "MeasurementModel":
        return cls(kind=ModelKind.EFFICIENT, groups=tuple((a,) for a in _square_family(operators)))

    @classmethod
    def inefficient(cls, groups: Sequence[Sequence[np.ndarray]]) -> "MeasurementModel":
        groups = [tuple(g) for g in groups]
        if any(not g for g in groups):
            raise InvalidModelError("every outcome needs at least one operator")
        family = iter(_square_family([a for g in groups for a in g]))
        packed = tuple(tuple(next(family) for _ in g) for g in groups)
        return cls(kind=ModelKind.INEFFICIENT, groups=packed)

    @classmethod
    def weak(cls, generator: np.ndarray, strength: float) -> "MeasurementModel":
        """Two-outcome weak model P_± = sqrt((I ± εB)/2); the eig that reads ||B|| raises
        :class:`NotHermitianError` for a B that is not Hermitian."""
        (b,) = _square_family([generator], "generator")
        norm = float(np.abs(eig_hermitian(b).eigenvalues).max())
        if norm > 1.0 + GENERATOR_NORM_TOL:
            raise InvalidModelError(f"generator norm {norm!r} exceeds 1")
        lo, hi = WEAK_STRENGTH_RANGE
        if not lo < strength < hi:
            raise InvalidModelError(f"weak strength must lie in ({lo:g}, {hi:g}), got {strength!r}")
        eye = np.eye(b.shape[0], dtype=complex)
        halves = np.stack([(eye + strength * b) / 2.0, (eye - strength * b) / 2.0])
        p_plus, p_minus = matrix_function(halves, lambda x: math.sqrt(max(x, 0.0)))
        return cls(
            kind=ModelKind.WEAK,
            groups=((read_only(p_plus),), (read_only(p_minus),)),
            generator=b,
            strength=float(strength),
        )

    @cached_property
    def report(self) -> "ValidationReport":
        """Completeness and, for bare and weak operators, positivity: one eig call over
        every operator that passes the Hermiticity test."""
        residual = self.completeness_residual()
        bad = []
        # a non-finite residual means operators beyond the float range: the model
        # is invalid already, and its spectra cannot be computed
        if self.kind in (ModelKind.BARE, ModelKind.WEAK) and math.isfinite(residual):
            ops = self.operator_stack[:, 0]  # one operator per outcome
            worst = hermitian_residual(ops)[0]  # one residual per operator
            hermitian = worst <= HERMITICITY_TOL  # the others report their residual
            if hermitian.any():
                worst[hermitian] = eig_hermitian(ops[hermitian]).eigenvalues[:, -1]
            flagged = ~hermitian | (worst < -COMPLETENESS_TOL)
            bad = [(n, float(worst[n])) for n in np.flatnonzero(flagged).tolist()]
        ok = residual <= COMPLETENESS_TOL and not bad
        return ValidationReport(ok=ok, completeness_residual=residual, non_positive=tuple(bad))

    @cached_property
    def operator_stack(self) -> np.ndarray:
        """The operators as one read-only (N, k, d, d) stack, k the largest group's size:
        [n, j] is A_nj, and a smaller group ends in zero matrices."""
        k, zero = max(map(len, self.groups)), np.zeros_like(self.groups[0][0])
        return read_only([group + (zero,) * (k - len(group)) for group in self.groups])

    @property
    def dim(self) -> int:
        return self.groups[0][0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.groups)

    def completeness_residual(self) -> float:
        """Max-abs entry of Σ A†A - I; not finite for entries beyond about 1e154."""
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(dagger(a) @ a for group in self.groups for a in group)
            return max_abs(total - np.eye(self.dim))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of model validation; never raised, always returned."""

    ok: bool
    completeness_residual: float
    # (outcome index, min eigenvalue or hermiticity residual) for bad bare ops
    non_positive: tuple[tuple[int, float], ...] = ()

    def describe(self) -> str:
        lines = [f"completeness residual: {self.completeness_residual:.3e}"]
        for idx, value in self.non_positive:
            lines.append(f"operator {idx}: not positive (worst value {value:.3e})")
        lines.append("ok" if self.ok else "INVALID")
        return "\n".join(lines)


def validate(model: MeasurementModel) -> ValidationReport:
    """The model's kept :attr:`~MeasurementModel.report`."""
    return model.report


def require_valid(model: MeasurementModel) -> None:
    """Raise :class:`IncompleteModelError` if the operators do not resolve the
    identity, :class:`InvalidModelError` if they fail any other check."""
    report = validate(model)
    if not report.ok:
        complete = report.completeness_residual <= COMPLETENESS_TOL
        error = InvalidModelError if complete else IncompleteModelError
        raise error(f"model failed validation:\n{report.describe()}")


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement branch: index n, probability p_n, post-state ρ_n, entropy S_n
    (nats), and average energy E_n: a row of :class:`MeasurementOutcomes`, on demand."""

    n: int
    probability: float
    state: DensityMatrix
    entropy: float
    energy: float


@dataclass(frozen=True)
class MeasurementOutcomes(Sequence):
    """The kept outcomes of one measurement as read-only stacks, a row per outcome by rising
    index, and the dropped outcome indices; indexing or iterating it builds
    :class:`OutcomeRecord` views of its rows."""

    outcomes: np.ndarray  # (K,) outcome indices n
    probabilities: np.ndarray  # (K,) p_n, renormalized over the kept outcomes
    states: np.ndarray  # (K, d, d) ρ_n
    eigenvalues: np.ndarray  # (K, d) each ρ_n's spectrum, descending
    eigenvectors: np.ndarray  # (K, d, d) the matching eigenvectors, as columns
    entropies: np.ndarray  # (K,) S_n in nats
    energies: np.ndarray  # (K,) E_n = Tr[H ρ_n]
    dropped: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, i: int) -> OutcomeRecord:
        n = int(self.outcomes[i])
        dec = EigenDecomposition(self.eigenvalues[i], self.eigenvectors[i])
        state = DensityMatrix._with_eig(self.states[i], dec, f"outcome {n}")
        p, s, e = (float(a[i]) for a in (self.probabilities, self.entropies, self.energies))
        return OutcomeRecord(n, p, state, s, e)


def _branch_factors(model: MeasurementModel, rho: DensityMatrix) -> np.ndarray:
    """X_n = [X_n1 … X_nk], X_nj = A_nj ρ^½, of every outcome as one (N, d, k·d) stack, k the
    largest group's size (a smaller group's X_n ends in zero columns), with ρ^½ = V diag(√λ⁺)
    from ρ's decomposition.  X_n X_n† is PSD by construction, and its round-off scales with
    ‖X_n‖²_F = p_n, so ρ_n = X_n X_n† / p_n is exact to round-off at any p_n.  Both pictures
    read it: :func:`apply` per outcome, the controller's joint as X X†."""
    dec = rho.eig
    root = dec.eigenvectors * np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    x = (model.operator_stack @ root).transpose(0, 2, 1, 3)  # [n, :, j, :] is X_nj
    return x.reshape(*x.shape[:2], -1)


def apply(model: MeasurementModel, rho: DensityMatrix, h: Hamiltonian) -> MeasurementOutcomes:
    """Apply a measurement to ρ: outcome n gets ρ_n = X_n X_n† / p_n, p_n = ‖X_n‖²_F, X_n
    from :func:`_branch_factors`, by one batched product, one stacked
    :meth:`DensityMatrix.from_matrix` call on the kept ρ_n, each named ``outcome {n}`` so
    that a failing one raises under its own name, and one energy product.

    Outcomes with p_n below :data:`P_FLOOR` are dropped and the surviving probabilities
    renormalized proportionally; :class:`DegenerateStateError` is raised when none survives.
    """
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    require_valid(model)

    x = _branch_factors(model, rho)
    # one vdot per outcome over its own columns, in the order np.hstack lays them out
    widths = [len(group) * rho.dim for group in model.groups]
    p = np.array([np.vdot(xn[:, :w], xn[:, :w]).real for xn, w in zip(x, widths)])
    dropped = p < P_FLOOR  # a p_n that is not positive too
    outcomes = np.flatnonzero(~dropped)
    if not outcomes.size:
        raise DegenerateStateError(f"every outcome probability is below the floor {P_FLOOR:g}")

    p = p[outcomes]
    matrices = (x @ dagger(x))[outcomes] / p[:, None, None]
    states, dec = DensityMatrix.from_matrix(matrices, [f"outcome {n}" for n in outcomes.tolist()])
    entropies = np.array([_nats(s) for s in dec.eigenvalues])
    energies = _energies(h, states)
    probabilities = p / sum(p.tolist())
    for a in (outcomes, probabilities, entropies, energies):
        a.setflags(write=False)
    return MeasurementOutcomes(
        outcomes, probabilities, states, dec.eigenvalues, dec.eigenvectors, entropies, energies,
        dropped=tuple(np.flatnonzero(dropped).tolist()),
    )


def measurement_energy_cost(outcomes: MeasurementOutcomes, e_initial: float) -> float:
    """Average energy the measurement pumped into the system:
    ΔE_meas = Σ p_n E_n - E, summed in outcome order."""
    return sum((outcomes.probabilities * outcomes.energies).tolist()) - e_initial


def entropy_reduction(probabilities, entropies, s_initial: float) -> float:
    """Average entropy reduction ΔS_meas = S - Σ p_n S_n over the branches'
    probabilities and entropies.  Can be negative for inefficient measurements."""
    return float(s_initial - sum(p * s_n for p, s_n in zip(probabilities, entropies)))


@dataclass(frozen=True)
class SecondLawReport:
    """Second-law verdict for one cycle, from outcome statistics alone."""

    shannon_outcomes: float
    delta_s_meas: float
    delta_s_tot: float
    verdict: bool  # ΔS_tot ≥ SECOND_LAW_TOL
    efficiency_flag: bool  # SECOND_LAW_TOL ≤ ΔS_tot < EFFICIENCY_TOL


def judge_second_law(delta_s_tot: float) -> tuple[bool, bool]:
    """(verdict, efficiency flag) for a total entropy change ΔS_tot: a cycle
    passes when SECOND_LAW_TOL ≤ ΔS_tot, and preserved the universe's entropy
    (is efficient) when SECOND_LAW_TOL ≤ ΔS_tot < EFFICIENCY_TOL, so a failing
    cycle is never efficient."""
    verdict = bool(delta_s_tot >= SECOND_LAW_TOL)
    return verdict, verdict and bool(delta_s_tot < EFFICIENCY_TOL)


def second_law_verdict(probabilities, delta_s_meas: float) -> SecondLawReport:
    """ΔS_tot = S({p_n}) - ΔS_meas, judged by :func:`judge_second_law`."""
    shannon = shannon_entropy(probabilities)
    delta_s_tot = shannon - delta_s_meas
    return SecondLawReport(shannon, delta_s_meas, delta_s_tot, *judge_second_law(delta_s_tot))
