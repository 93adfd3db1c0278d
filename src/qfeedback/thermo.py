"""States, Hamiltonians, and the thermodynamic functionals E, S, F.

Entropies are in nats (natural logs throughout); energies follow whatever
units the Hamiltonian carries.  Boltzmann's constant defaults to 1 and is a
plain scalar parameter everywhere it appears, so the package works in natural
units unless a caller says otherwise.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    DomainError,
    InvalidStateError,
    NonPositiveTemperatureError,
    NotADistributionError,
    NotHermitianError,
)
from .linalg import (
    HERMITICITY_TOL,
    EigenDecomposition,
    eig_hermitian,
    hermitian_residual,
    hermitize,
    max_abs,
    read_only,
    spectral_matrix,
)

STATE_TOL = 1e-10  # Hermiticity / trace / eigenvalue-floor tolerance for states


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian operator carrying the system's energy units.

    ``eig`` is the decomposition of ``matrix``, computed on first use and then
    kept, so every caller reads the same spectrum.
    """

    matrix: np.ndarray

    @cached_property
    def eig(self) -> EigenDecomposition:
        return eig_hermitian(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Hamiltonian":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"Hamiltonian must be square, got {m.shape}")
        residual, exact, safe = hermitian_residual(m)
        if not exact:
            with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
                m = hermitize(m)
            if not np.isfinite(m).all():
                raise DomainError("Hamiltonian entries are not finite")
        if not residual <= HERMITICITY_TOL:
            raise NotHermitianError("Hamiltonian is not Hermitian within 1e-10")
        return cls(matrix=read_only(m))

    @classmethod
    def diagonal(cls, energies) -> "Hamiltonian":
        return cls.from_matrix(np.diag(np.asarray(energies, dtype=float)))

    @classmethod
    def zero(cls, dim: int) -> "Hamiltonian":
        return cls.from_matrix(np.zeros((dim, dim)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _unit_trace(matrix, where: str) -> tuple[np.ndarray, float]:
    """The checks every state runs before its spectrum: square, Hermitian within STATE_TOL,
    finite and of trace 1 within STATE_TOL.  Returns the hermitized matrix over its trace,
    and that trace."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{where}: must be square, got {m.shape}")
    residual, exact, safe = hermitian_residual(m)
    if not residual <= STATE_TOL:
        raise InvalidStateError(
            f"{where}: not Hermitian within {STATE_TOL:g} (residual {residual:.3e})"
        )
    # entries near the float maximum overflow in hermitize: the checks below raise,
    # with no warning first
    with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
        m = m if exact else hermitize(m)
        tr = float(m.trace().real)
        if not abs(tr - 1.0) <= STATE_TOL:  # a NaN trace fails too
            raise InvalidStateError(f"{where}: trace {tr!r} is not 1 within {STATE_TOL:g}")
        m = m / tr
    if not safe and not np.isfinite(m).all():
        raise InvalidStateError(f"{where}: entries are not finite")
    return m, tr


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace state ρ.

    Construction goes through :meth:`from_matrix`, which tolerates (and
    repairs) eigenvalues down to -1e-10: such drift is clamped to zero, the
    spectrum renormalized, and the ``clamped`` flag set so ledgers can report
    it.  Anything worse raises :class:`InvalidStateError`.

    A state that is PSD by construction goes through :meth:`from_psd`
    instead, which skips the eig and never clamps.

    ``eig`` is the decomposition of ``matrix``.  A state that is built from its
    spectrum keeps that spectrum: an unclamped :meth:`from_matrix` state the
    decomposition its checks computed, a :func:`gibbs_state` (a thermal state
    among them) its Gibbs weights on the given eigenvectors, and a rotated
    outcome state its slice of ``execute_plan``'s stacked eig.  Any other
    state computes it on first use.
    """

    matrix: np.ndarray
    clamped: bool = False

    @cached_property
    def eig(self) -> EigenDecomposition:
        return eig_hermitian(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, where: str = "state") -> "DensityMatrix":
        m, _ = _unit_trace(matrix, where)
        dec = eig_hermitian(m)
        lam_min = float(dec.eigenvalues[-1])
        if lam_min < -STATE_TOL:
            raise InvalidStateError(
                f"{where}: minimum eigenvalue {lam_min:.3e} below -{STATE_TOL:g}"
            )
        if lam_min < 0.0:
            lam = np.clip(dec.eigenvalues, 0.0, None)
            m = spectral_matrix(dec.eigenvectors, lam / lam.sum())
            return cls(matrix=read_only(m), clamped=True)
        return cls._with_eig(m, dec)

    @classmethod
    def from_psd(cls, matrix: np.ndarray, where: str = "state") -> "DensityMatrix":
        """A state PSD by construction, such as X X† or a positive mix of states: every
        check of :meth:`from_matrix` but the eig, which could only clamp round-off."""
        return cls(matrix=read_only(_unit_trace(matrix, where)[0]))

    @classmethod
    def _with_eig(cls, m: np.ndarray, dec: EigenDecomposition) -> "DensityMatrix":
        """An unclamped state that keeps ``dec``, which must decompose ``m``."""
        rho = cls(matrix=read_only(m), clamped=False)
        rho.__dict__["eig"] = dec
        return rho

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "DensityMatrix":
        """Pure state |ψ⟩⟨ψ| from a (not necessarily normalized) vector."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise InvalidStateError("cannot build a state from the zero vector")
        v = v / norm
        return cls(matrix=read_only(np.outer(v, v.conj())), clamped=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ThermoReading:
    """Snapshot of E, S, and F for one state at a reference temperature."""

    energy: float
    entropy: float
    free_energy: float


def boltzmann_kt(temperature: float, k: float) -> float:
    """kT, once T > 0, k > 0 and a positive finite float kT are checked."""
    if temperature <= 0.0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature!r}")
    if k <= 0.0:
        raise ArgumentRangeError(f"Boltzmann constant must be > 0, got {k!r}")
    if not 0.0 < k * temperature < math.inf:
        raise DomainError(f"kT = {k!r} * {temperature!r} is outside the float range")
    return k * temperature


def thermal_state(h: Hamiltonian, temperature: float, k: float = 1.0) -> DensityMatrix:
    """Gibbs state exp(-H/(kT)) / Z."""
    kt = boltzmann_kt(temperature, k)
    return gibbs_state(h.eig.eigenvalues, h.eig.eigenvectors, kt, "thermal state")


def gibbs_weights(levels: np.ndarray, kt: float) -> np.ndarray:
    """exp(-ε/kT)/Z over the last axis of ``levels``, shifted by the lowest level, which
    cancels in Z and avoids overflow at small kT; a level at +inf, or far above kT, gets 0."""
    with np.errstate(over="ignore"):
        weights = np.exp(-(levels - levels.min(axis=-1, keepdims=True)) / kt)
    return weights / weights.sum(axis=-1, keepdims=True)


def gibbs_state(levels: np.ndarray, vectors: np.ndarray, kt: float, where: str) -> DensityMatrix:
    """The Gibbs state of ``levels`` on the orthonormal columns of ``vectors`` at kT = ``kt``."""
    weights = gibbs_weights(levels, kt)
    m, tr = _unit_trace(spectral_matrix(vectors, weights), where)
    # PSD by construction: the weights lie in [0, 1] and the largest is 1 before
    # normalizing, so the state keeps them on the given vectors in place of an eig
    order = np.argsort(-weights, kind="stable")
    eigenvalues = weights[order] / tr
    eigenvectors = vectors[:, order]
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return DensityMatrix._with_eig(m, EigenDecomposition(eigenvalues, eigenvectors))


def _nats(p: np.ndarray) -> float:
    """-Σ p ln p over non-negative weights, with the 0·ln 0 = 0 convention."""
    s = 0.0
    for q in p.tolist():  # Python floats: an overflowing kT·S is inf, not a numpy warning
        if q > 0.0:
            s -= q * math.log(q)
    return max(s, 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S = -Tr[ρ ln ρ] in nats, with the 0·ln 0 = 0 convention."""
    lam = rho.eig.eigenvalues
    if lam[-1] < -STATE_TOL:
        raise InvalidStateError(f"eigenvalue {lam[-1]:.3e} below -{STATE_TOL:g}")
    return _nats(np.clip(lam, 0.0, None))


def average_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """E = Tr[Hρ]."""
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    value = complex((h.matrix @ rho.matrix).trace())
    # round-off in Im grows with the energies; the scale is read only when it matters
    if not abs(value.imag) < 1e-10 and not abs(value.imag) < 1e-10 * max(1.0, max_abs(h.matrix)):
        raise DomainError(f"Tr[Hρ] has imaginary part {value.imag:.3e}")
    return value.real


def thermo_reading(
    rho: DensityMatrix, h: Hamiltonian, temperature: float, k: float = 1.0
) -> ThermoReading:
    """E, S, and the Helmholtz free energy F = E - kT·S (S in nats) of a state."""
    e = average_energy(rho, h)
    s = von_neumann_entropy(rho)
    return ThermoReading(energy=e, entropy=s, free_energy=e - k * temperature * s)


def shannon_entropy(p) -> float:
    """-Σ p ln p in nats for a probability vector; clamps tiny negatives."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size and float(p.min()) < -1e-12:
        raise NotADistributionError(f"negative entry {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise NotADistributionError(f"entries sum to {total!r}, not 1 within 1e-9")
    return _nats(np.clip(p, 0.0, None) / total)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """½ Σ |eigenvalues of ρ - σ|; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims differ: {rho.dim} vs {sigma.dim}")
    lam = eig_hermitian(rho.matrix - sigma.matrix).eigenvalues
    return 0.5 * float(np.abs(lam).sum())
