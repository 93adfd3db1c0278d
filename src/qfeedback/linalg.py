"""Dense complex-matrix kernel: Hermitian eigendecomposition (cyclic Jacobi),
matrix functions, polar decomposition, Kronecker/partial-trace, block dephasing.

All routines are pure functions of their arguments and deterministic, so
repeated calls on identical input give bit-identical output.  Matrices are
plain ``numpy`` arrays of complex doubles; nothing here keeps global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NoConvergenceError,
    NotHermitianError,
)

HERMITICITY_TOL = 1e-10
# off-diagonal Frobenius norm target, relative to ||M||_F
JACOBI_REL_TOL = 1e-14
JACOBI_MAX_SWEEPS = 100
# At or below this |a_pq| (zero, or deep in the subnormals) 1/|a_pq| overflows,
# so the element's phase cannot be formed.
_PHASE_MIN = 2.0**-1024
# Beyond this |tau|, tau * tau overflows and the rotation angle is zero.
_TAU_MAX = math.sqrt(np.finfo(float).max)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, cleaning tiny numerical asymmetry."""
    return (m + dagger(m)) / 2.0


def spectral_matrix(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(x) V†, hermitized: the product's round-off is not exactly Hermitian."""
    return hermitize(vectors @ np.diag(values.astype(complex)) @ dagger(vectors))


def read_only(m) -> np.ndarray:
    """Read-only C-ordered complex copy: what a frozen state, Hamiltonian or
    measurement model stores, so nothing can change it under a kept spectrum."""
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-magnitude norm."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    return max_abs(m - dagger(m)) <= tol


def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization M = V diag(λ) V† with λ real and non-increasing."""

    eigenvalues: np.ndarray  # real, sorted descending
    eigenvectors: np.ndarray  # unitary; columns are eigenvectors

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return v @ np.diag(self.eigenvalues.astype(complex)) @ dagger(v)


@dataclass(frozen=True)
class PolarFactors:
    """A = U P with U unitary and P positive semidefinite."""

    unitary: np.ndarray
    positive: np.ndarray


def _frobenius(a: np.ndarray) -> float:
    """||A||_F, recomputed on A scaled by its largest entry when the squares
    overflow (entries beyond about 1e154)."""
    norm = float(np.linalg.norm(a))
    if math.isinf(norm):
        scale = max_abs(a)
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


def _offdiag_norm(a: np.ndarray) -> float:
    return _frobenius(a - np.diag(np.diag(a)))


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
    if abs(gap) <= 2.0 * mag * _TAU_MAX:
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


def eig_hermitian(m: np.ndarray, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Converges when the off-diagonal Frobenius norm drops below
    ``JACOBI_REL_TOL * ||M||_F``.  Eigenvalues come back sorted descending
    (stable sort, so degenerate clusters keep their iteration order), and each
    eigenvector's phase is fixed by making its largest-magnitude component
    real and positive.
    """
    a0 = _as_square(m)
    if not is_hermitian(a0):
        raise NotHermitianError(
            f"matrix is not Hermitian: max |M - M†| = {max_abs(a0 - dagger(a0)):.3e}"
        )
    n = a0.shape[0]
    a = hermitize(a0)
    v = np.eye(n, dtype=complex)
    target = JACOBI_REL_TOL * _frobenius(a)
    if not math.isfinite(target):
        raise DomainError(f"matrix norm is not finite: max |M| = {max_abs(a):.3e}")
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
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(vectors[:, j])))
        component = vectors[k, j]
        if abs(component) > 0.0:
            vectors[:, j] *= component.conjugate() / abs(component)
    # read-only: states and Hamiltonians hand one decomposition to many callers
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def matrix_function(m: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    The result is V diag(f(λ)) V†.  Raises :class:`DomainError` when ``f`` is
    undefined (raises, or returns a non-finite or complex value) at an
    eigenvalue; conventions like 0·ln 0 = 0 belong inside ``f`` itself.
    """
    dec = eig_hermitian(m)
    values = np.empty(dec.eigenvalues.shape, dtype=float)
    for i, lam in enumerate(dec.eigenvalues):
        try:
            with np.errstate(invalid="ignore", divide="ignore"):
                y = f(float(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"f undefined at eigenvalue {lam!r}: {exc}") from exc
        if isinstance(y, complex) or not math.isfinite(y):
            raise DomainError(f"f({lam!r}) = {y!r} is not a finite real value")
        values[i] = y
    return spectral_matrix(dec.eigenvectors, values)


def polar_decompose(a: np.ndarray) -> PolarFactors:
    """Polar factorization A = U P with P = sqrt(A†A).

    When A is singular, U is completed on the null space of P by Gram-Schmidt
    over the standard basis vectors taken in index order, which makes the
    result deterministic.
    """
    a = _as_square(a)
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
        else:  # pragma: no cover - cannot happen: rank(present) < n
            raise NoConvergenceError("failed to complete unitary on the null space")

    u = np.column_stack(columns) @ dagger(w)
    return PolarFactors(unitary=u, positive=p)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: np.ndarray, dims: tuple[int, int], over: str) -> np.ndarray:
    """Reduced matrix of a bipartite operator on A⊗B.

    ``over`` selects the factor to trace out: "A" leaves the B factor,
    "B" leaves the A factor.
    """
    d_a, d_b = dims
    m = _as_square(m)
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} != product of factor dims {d_a}*{d_b}"
        )
    r = m.reshape(d_a, d_b, d_a, d_b)
    if over.upper() == "B":
        return np.einsum("abcb->ac", r)
    if over.upper() == "A":
        return np.einsum("abad->bd", r)
    raise ValueError(f"over must be 'A' or 'B', got {over!r}")


def dephase_blocks(m: np.ndarray, block_sizes: Sequence[int]) -> np.ndarray:
    """Zero all off-diagonal blocks, keeping diagonal blocks untouched.

    Trace-preserving and positivity-preserving (it is a pinching map).
    """
    m = _as_square(m)
    sizes = list(block_sizes)
    if sum(sizes) != m.shape[0]:
        raise DimensionMismatchError(
            f"block sizes {sizes} do not sum to matrix dim {m.shape[0]}"
        )
    out = np.zeros_like(m)
    offset = 0
    for size in sizes:
        out[offset : offset + size, offset : offset + size] = m[
            offset : offset + size, offset : offset + size
        ]
        offset += size
    return out
