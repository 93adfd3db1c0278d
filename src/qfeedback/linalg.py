"""Dense complex-matrix kernel: Hermitian eigendecomposition (LAPACK ``eigh``
with a fixed order and phase) or spectrum alone (``eigvalsh``), matrix
functions, Kronecker/partial-trace, block dephasing.

All routines are pure functions of their arguments and deterministic, so
repeated calls on identical input give bit-identical output.  Matrices are
plain ``numpy`` arrays of complex doubles; nothing here keeps global state.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    DomainError,
    NoConvergenceError,
    NotHermitianError,
)

HERMITICITY_TOL = 1e-10
SAFE_ENTRY_MAX = 1e150  # below it, neither M + M† nor ||M||_F can overflow
NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min  # -0.0 read as an int64, and no other double


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a stack (…, d, d)."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, cleaning tiny numerical asymmetry."""
    return (m + dagger(m)) / 2.0


def spectral_matrix(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(x) V† of one matrix or of each in a stack, hermitized: round-off leaves the
    product not exactly Hermitian."""
    d = values.shape[-1]
    diagonal = np.zeros((*values.shape, d), dtype=complex)
    diagonal.reshape(*values.shape[:-1], d * d)[..., :: d + 1] = values
    return hermitize(vectors @ diagonal @ dagger(vectors))


def read_only(m) -> np.ndarray:
    """Read-only C-ordered complex copy: what a frozen state, Hamiltonian or
    measurement model stores, so nothing can change it under a kept spectrum."""
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-magnitude norm."""
    return float(np.abs(m).max()) if m.size else 0.0


def is_hermitian(m: np.ndarray) -> bool:
    return hermitian_residual(m)[0] <= HERMITICITY_TOL


def hermitian_residual(m: np.ndarray) -> tuple[float, bool, bool]:
    """max |M - M†|; whether hermitize returns M bit for bit, which it does when M - M† is
    zero, no entry reaches SAFE_ENTRY_MAX and no component is -0.0 (its complex halving can
    give +0.0); and whether every entry is below SAFE_ENTRY_MAX, so that nothing a caller
    forms from M can overflow and it needs no np.errstate."""
    if not max_abs(m) < SAFE_ENTRY_MAX:
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan or overflow: no warning
            return max_abs(m - dagger(m)), False, False
    residual = m - dagger(m)
    if residual.any():
        return max_abs(residual), False, True
    bits = np.ascontiguousarray(m).view(np.int64)
    negative_zero = bits.size > 0 and bits.min() == NEGATIVE_ZERO_BITS
    return 0.0, not negative_zero, True


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


def _frobenius(a: np.ndarray) -> float:
    """||A||_F, recomputed on A scaled by its largest entry when the squares
    overflow (entries beyond about 1e154).  The caller checks the result, under
    np.errstate when an entry may reach SAFE_ENTRY_MAX."""
    norm = float(np.linalg.norm(a))
    if math.isinf(norm):
        scale = max_abs(a)
        norm = scale * float(np.linalg.norm(a / scale))
    return norm


@lru_cache(maxsize=64)
def _stack_index(lead: tuple[int, ...], d: int) -> tuple:
    """Index arrays that pick per matrix of a stack with leading shape ``lead`` (none for a
    single matrix): the leading aranges shaped against (…, d) and against (…, d, d), then a
    row and a column arange."""
    per_vector = tuple(i[..., None] for i in np.ix_(*(np.arange(n) for n in lead)))
    return per_vector, tuple(i[..., None] for i in per_vector), np.arange(d)[:, None], np.arange(d)


def _solve_hermitian(m: np.ndarray, solve: Callable):
    """``solve``, a LAPACK driver of ``numpy.linalg``, run once on ``m`` hermitized, after
    the checks both eigen routines share: a square matrix or stack (…, d, d), Hermitian
    within HERMITICITY_TOL (the error names the stack's worst residual) and of finite
    norm.  A LAPACK failure is a :class:`NoConvergenceError`."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    residual, exact, safe = hermitian_residual(a)
    if not residual <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian: max |M - M†| = {residual:.3e}")
    # hermitize changes no bit of a matrix that is exact on its own, so a stack is
    # hermitized whole; below SAFE_ENTRY_MAX no norm can overflow
    if not exact:
        with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
            a = hermitize(a)
            for x in () if safe else a.reshape(-1, *a.shape[-2:]):
                if not math.isfinite(_frobenius(x)):
                    raise DomainError(f"matrix norm is not finite: max |M| = {max_abs(x):.3e}")
    try:
        return solve(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc


def eig_hermitian(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack (…, d, d), by one
    LAPACK call (``numpy.linalg.eigh``); slice i of the result is the call on matrix i alone.

    Eigenvalues come back sorted descending (stable sort, so degenerate clusters keep
    LAPACK's order), and each eigenvector's phase is fixed by making its largest-magnitude
    component real and positive.  Raises :class:`NotHermitianError` naming the stack's
    worst residual, :class:`DomainError` when a matrix norm is not finite and
    :class:`NoConvergenceError` when LAPACK does not converge.
    """
    ascending, v = _solve_hermitian(m, np.linalg.eigh)
    per_vector, per_matrix, row, column = _stack_index(ascending.shape[:-1], ascending.shape[-1])
    order = np.argsort(-ascending, axis=-1, kind="stable")
    eigenvalues = ascending[(*per_vector, order)]
    vectors = v[(*per_matrix, row, order[..., None, :])]
    if vectors.size:
        # conj(p)/|p| for each column's peak p, with |p| by hypot and a complex divide as
        # the scalar abs(p) and p.conjugate()/abs(p) round: np.abs or split divides move bits
        peaks = vectors[(*per_matrix, np.argmax(np.abs(vectors), axis=-2, keepdims=True), column)]
        vectors *= peaks.conj() / np.hypot(peaks.real, peaks.imag)
    # read-only: states and Hamiltonians hand one decomposition to many callers
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """The eigenvalues alone of a Hermitian matrix, or of each in a stack (…, d, d), by one
    LAPACK call (``numpy.linalg.eigvalsh``), descending and read-only, after the checks
    and with the errors of :func:`eig_hermitian`; slice i is the call on matrix i alone.
    They agree with :func:`eig_hermitian`'s to round-off, not bit for bit."""
    eigenvalues = _solve_hermitian(m, np.linalg.eigvalsh)[..., ::-1]
    eigenvalues.setflags(write=False)
    return eigenvalues


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
    raise ArgumentRangeError(f"over must be 'A' or 'B', got {over!r}")


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
        block = slice(offset, offset + size)
        out[block, block] = m[block, block]
        offset += size
    return out
