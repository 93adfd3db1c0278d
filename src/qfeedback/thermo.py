"""States, Hamiltonians, and the thermodynamic functionals E, S, F.

Entropies are in nats (natural logs throughout); energies follow whatever
units the Hamiltonian carries.  A temperature is kT, in those same energy
units, so Boltzmann's constant appears nowhere: a caller who works in SI
units passes k_B·T in joules with a Hamiltonian in joules.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
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
DISTRIBUTION_NEGATIVE_TOL = 1e-12  # shannon_entropy: the most negative entry allowed
DISTRIBUTION_SUM_TOL = 1e-9  # shannon_entropy: the largest |Σ p - 1| allowed
ENERGY_IMAG_TOL = 1e-10  # average_energy: |Im Tr[Hρ]| allowed, relative to max(1, max |H|)


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
            raise NotHermitianError(f"Hamiltonian is not Hermitian within {HERMITICITY_TOL:g}")
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


def _unit_trace(matrix, where: str) -> tuple[np.ndarray, float | np.ndarray]:
    """The checks every state runs before its spectrum: square, Hermitian within STATE_TOL,
    finite and of trace 1 within STATE_TOL.  Returns the hermitized matrix over its trace,
    and that trace; a stack (…, d, d) gets its traces shaped (…, 1, 1), each slice the single
    call's bytes, and if it fails, the single call's error on its first failing slice."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatchError(f"{where}: must be square, got {m.shape}")
    stack = m.ndim > 2
    residual, exact, safe = hermitian_residual(m)
    try:
        if not residual <= STATE_TOL:
            raise InvalidStateError(
                f"{where}: not Hermitian within {STATE_TOL:g} (residual {residual:.3e})"
            )
        # entries near the float maximum overflow in hermitize: the checks below raise,
        # with no warning first
        with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
            m = m if exact else hermitize(m)
            tr = m.trace(axis1=-2, axis2=-1).real
            tr = tr[..., None, None] if stack else float(tr)
            for t in tr.ravel().tolist() if stack else [tr]:  # a NaN trace fails too
                if not abs(t - 1.0) <= STATE_TOL:
                    raise InvalidStateError(f"{where}: trace {t!r} is not 1 within {STATE_TOL:g}")
            m = m / tr
        if not safe and not np.isfinite(m).all():
            raise InvalidStateError(f"{where}: entries are not finite")
    except InvalidStateError:
        for x in np.reshape(matrix, (-1, *m.shape[-2:])) if stack else ():
            _unit_trace(x, where)
        raise
    return m, tr


def _check_spectrum_floor(lam_min: float, where: str) -> None:
    """Raise :class:`InvalidStateError` if the least eigenvalue ``lam_min`` is below -STATE_TOL."""
    if lam_min < -STATE_TOL:
        raise InvalidStateError(f"{where}: minimum eigenvalue {lam_min:.3e} below -{STATE_TOL:g}")


def _state_array(matrix, where: str, max_ndim: int = 2) -> np.ndarray:
    """``matrix`` as a complex array of 2 to ``max_ndim`` axes, as a state's constructor needs."""
    m = np.asarray(matrix, dtype=complex)
    if not 2 <= m.ndim <= max_ndim:
        raise DimensionMismatchError(f"{where}: must be square, got {m.shape}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace state ρ.

    :meth:`from_matrix` builds a state, or every state of a stack, it must check for
    positivity: it takes the eig, and an eigenvalue below -1e-10 raises
    :class:`InvalidStateError`.  A smaller negative eigenvalue is round-off and is kept as
    it stands: the entropy and the feedback plan read it as 0.  A state that is PSD by
    construction goes through :meth:`from_psd` instead, which skips the eig.

    ``eig`` is the decomposition of ``matrix``.  A state built from its spectrum keeps it:
    a :meth:`from_matrix` state the decomposition (or stacked slice) its checks computed,
    a :func:`gibbs_state` its Gibbs weights on the given eigenvectors, and a branch state
    its slice of the stacked eig of ``decohere_controller``.  Any other state, such as a
    rotated outcome state of ``execute_plan``, whose checks read eigenvalues only,
    computes it on first use.
    """

    matrix: np.ndarray

    @cached_property
    def eig(self) -> EigenDecomposition:
        return eig_hermitian(self.matrix)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, where: str = "state") -> "DensityMatrix | tuple":
        """The checked state of a matrix, or the N states of an (N, d, d) stack by one call of
        ``_unit_trace`` and of eig: state i and its spectrum are the single call's, byte for
        byte, and a failing stack raises the single call's error on its first failing slice."""
        raw = _state_array(matrix, where, max_ndim=3)
        if raw.ndim == 2:
            m, _ = _unit_trace(raw, where)
            return cls._with_eig(m, eig_hermitian(m), where)
        try:
            m, _ = _unit_trace(raw, where)
            dec = eig_hermitian(m)
            slices = zip(m, dec.eigenvalues, dec.eigenvectors)
            return tuple(cls._with_eig(x, EigenDecomposition(w, v), where) for x, w, v in slices)
        except InvalidStateError:  # one call per matrix, so that the first failing one raises
            return tuple(cls.from_matrix(x, where) for x in raw)

    @classmethod
    def from_psd(cls, matrix: np.ndarray, where: str = "state") -> "DensityMatrix":
        """A state PSD by construction, such as X X† or a positive mix of states: every
        check of :meth:`from_matrix` but the eig."""
        return cls(matrix=read_only(_unit_trace(_state_array(matrix, where), where)[0]))

    @classmethod
    def _with_eig(cls, m: np.ndarray, dec: EigenDecomposition, where: str) -> "DensityMatrix":
        """The state of a checked unit-trace ``m`` that keeps ``dec``, which must decompose
        ``m``; a spectrum below -STATE_TOL raises."""
        _check_spectrum_floor(float(dec.eigenvalues[-1]), where)
        rho = cls(matrix=read_only(m))
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
        return cls(matrix=read_only(np.outer(v, v.conj())))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class ThermoReading:
    """Snapshot of E, S, and F for one state at a reference temperature."""

    energy: float
    entropy: float
    free_energy: float


def boltzmann_kt(temperature: float) -> float:
    """kT, which is ``temperature`` itself, once it is checked positive and finite."""
    if temperature <= 0.0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {temperature!r}")
    if not temperature < math.inf:  # inf, or nan
        raise DomainError(f"kT = {temperature!r} is outside the float range")
    return temperature


def thermal_state(h: Hamiltonian, temperature: float) -> DensityMatrix:
    """Gibbs state exp(-H/(kT)) / Z, with kT = ``temperature``."""
    kt = boltzmann_kt(temperature)
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
    return DensityMatrix._with_eig(m, EigenDecomposition(eigenvalues, eigenvectors), where)


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
    _check_spectrum_floor(float(lam[-1]), "state")
    return _nats(np.clip(lam, 0.0, None))


def average_energy(rho: DensityMatrix, h: Hamiltonian) -> float:
    """E = Tr[Hρ]."""
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != Hamiltonian dim {h.dim}")
    return float(_energies(h, rho.matrix))


def _energies(h: Hamiltonian, states: np.ndarray) -> np.ndarray:
    """Re Tr[Hρ] of a state matrix or of each in a stack, once every Im is round-off."""
    values = (h.matrix @ states).trace(axis1=-2, axis2=-1)
    worst = values.imag.flat[np.abs(values.imag).argmax()]
    # round-off in Im grows with energies past 1; the scale is read only when it matters
    if not abs(worst) < ENERGY_IMAG_TOL and not abs(worst) < ENERGY_IMAG_TOL * max_abs(h.matrix):
        raise DomainError(f"Tr[Hρ] has imaginary part {worst:.3e}")
    return values.real


def thermo_reading(rho: DensityMatrix, h: Hamiltonian, temperature: float) -> ThermoReading:
    """E, S, and the Helmholtz free energy F = E - kT·S (S in nats, kT = ``temperature``)."""
    e = average_energy(rho, h)
    s = von_neumann_entropy(rho)
    return ThermoReading(energy=e, entropy=s, free_energy=e - temperature * s)


def shannon_entropy(p) -> float:
    """-Σ p ln p in nats for a probability vector; tiny negatives read as 0."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size and float(p.min()) < -DISTRIBUTION_NEGATIVE_TOL:
        raise NotADistributionError(f"negative entry {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        within = np.format_float_scientific(DISTRIBUTION_SUM_TOL, trim="-", exp_digits=1)
        raise NotADistributionError(f"entries sum to {total!r}, not 1 within {within}")
    return _nats(np.clip(p, 0.0, None) / total)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """½ Σ |eigenvalues of ρ - σ|; lies in [0, 1]."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims differ: {rho.dim} vs {sigma.dim}")
    difference = rho.matrix - sigma.matrix
    if not difference.any():  # the eig of a zero matrix gives exact zeros
        return 0.0
    return 0.5 * float(np.abs(eig_hermitian(difference).eigenvalues).sum())
