"""Measurement models and their application to states.

Four model kinds share one internal form, a tuple of Kraus-operator groups
indexed by outcome:

* bare        - one positive operator P_n per outcome, Σ P_n² = I
* efficient   - one general operator A_n per outcome, Σ A_n†A_n = I
* inefficient - several operators A_nj per outcome (information discarded)
* weak        - two-outcome family P_± = sqrt((I ± εB)/2) built from a
                Hermitian generator B with ||B|| ≤ 1 and strength ε

Applying a model to a state yields per-outcome records carrying probability,
post-measurement state, entropy, and average energy; the average entropy drop
and the average energy added by the measurement derive from those records.
The second-law report of a cycle, ΔS_tot = S({p_n}) - ΔS_meas with its
verdict and efficiency flag, is decided here too, for both pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    DimensionMismatchError,
    IncompleteModelError,
    InvalidModelError,
    NotHermitianError,
)
from .linalg import (
    HERMITICITY_TOL,
    dagger,
    eig_hermitian,
    hermitian_residual,
    is_hermitian,
    matrix_function,
    max_abs,
    read_only,
)
from .thermo import DensityMatrix, Hamiltonian, average_energy, shannon_entropy, von_neumann_entropy

COMPLETENESS_TOL = 1e-10
# how far past 1 a weak model's generator norm may read
GENERATOR_NORM_TOL = 1e-12
DEFAULT_P_FLOOR = 1e-14
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
    ``report``, computed on first use and then kept, stays true of them.
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
        """Two-outcome weak model P_± = sqrt((I ± εB)/2)."""
        (b,) = _square_family([generator], "generator")
        if not is_hermitian(b):
            raise NotHermitianError("weak-measurement generator must be Hermitian")
        norm = float(np.abs(eig_hermitian(b).eigenvalues).max())
        if norm > 1.0 + GENERATOR_NORM_TOL:
            raise InvalidModelError(f"generator norm {norm!r} exceeds 1")
        if not 0.0 < strength < 1.0:
            raise InvalidModelError(f"weak strength must lie in (0, 1), got {strength!r}")
        eye = np.eye(b.shape[0], dtype=complex)
        sqrt = lambda x: math.sqrt(max(x, 0.0))
        p_plus = matrix_function((eye + strength * b) / 2.0, sqrt)
        p_minus = matrix_function((eye - strength * b) / 2.0, sqrt)
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
            ops = np.stack([group[0] for group in self.groups])  # one shape: _square_family
            worst = np.array([hermitian_residual(p)[0] for p in ops])
            hermitian = worst <= HERMITICITY_TOL  # the others report their residual
            if hermitian.any():
                worst[hermitian] = eig_hermitian(ops[hermitian]).eigenvalues[:, -1]
            flagged = ~hermitian | (worst < -COMPLETENESS_TOL)
            bad = [(n, float(worst[n])) for n in np.flatnonzero(flagged).tolist()]
        ok = residual <= COMPLETENESS_TOL and not bad
        return ValidationReport(ok=ok, completeness_residual=residual, non_positive=tuple(bad))

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
    """One measurement branch: index n, probability p_n, post-state ρ_n,
    entropy S_n (nats), and average energy E_n."""

    n: int
    probability: float
    state: DensityMatrix
    entropy: float
    energy: float


@dataclass(frozen=True)
class MeasurementOutcomes(Sequence):
    """The branches produced by one measurement, plus drop bookkeeping.

    Behaves as a sequence of :class:`OutcomeRecord`; ``dropped`` lists the
    outcome indices whose probability fell below the floor and were removed,
    with the remaining probabilities renormalized.
    """

    records: tuple[OutcomeRecord, ...]
    dropped: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def __iter__(self) -> Iterator[OutcomeRecord]:
        return iter(self.records)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([r.probability for r in self.records])


def is_dropped(p: float, p_floor: float) -> bool:
    """An outcome with probability ``p`` is dropped when p is not positive (its
    conditional state p_n ρ_n / p_n is undefined) or below ``p_floor``."""
    return p <= 0.0 or p < p_floor


def apply(
    model: MeasurementModel,
    rho: DensityMatrix,
    h: Hamiltonian,
    p_floor: float = DEFAULT_P_FLOOR,
) -> MeasurementOutcomes:
    """Apply a measurement to ρ: branch n gets Σ_j A_nj ρ A_nj† / p_n with
    p_n = Σ_j Tr[A_nj† A_nj ρ].

    Outcomes that :func:`is_dropped` rejects are removed and the surviving
    probabilities renormalized proportionally;
    :class:`DegenerateStateError` is raised when none survives.
    """
    if model.dim != rho.dim:
        raise DimensionMismatchError(f"model dim {model.dim} != state dim {rho.dim}")
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    require_valid(model)

    raw: list[tuple[int, float, np.ndarray]] = []
    dropped: list[int] = []
    for n, group in enumerate(model.groups):
        numerator = np.zeros((rho.dim, rho.dim), dtype=complex)
        for a in group:
            numerator += a @ rho.matrix @ dagger(a)
        p = float(np.trace(numerator).real)
        if is_dropped(p, p_floor):
            dropped.append(n)
            continue
        raw.append((n, p, numerator))
    if not raw:
        raise DegenerateStateError(f"every outcome probability is below p_floor {p_floor:g}")

    total = sum(p for _, p, _ in raw)
    records = []
    for n, p, numerator in raw:
        state = DensityMatrix.from_matrix(numerator / p, where=f"outcome {n}")
        records.append(
            OutcomeRecord(
                n=n,
                probability=p / total,
                state=state,
                entropy=von_neumann_entropy(state),
                energy=average_energy(state, h),
            )
        )
    return MeasurementOutcomes(records=tuple(records), dropped=tuple(dropped))


def measurement_energy_cost(records: Sequence[OutcomeRecord], e_initial: float) -> float:
    """Average energy the measurement pumped into the system:
    ΔE_meas = Σ p_n E_n - E."""
    return sum(r.probability * r.energy for r in records) - e_initial


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
