"""Dense complex-matrix kernel: Hermitian eigendecomposition (LAPACK ``eigh``
with a fixed order and phase) or spectrum alone (``eigvalsh``), spectral
rebuilds and matrix functions, read-only copies.  Every Hermiticity check is one
:func:`hermitian_residual` call, which tests M and hermitizes it from one M†.

All routines are pure functions of their arguments and deterministic, so
repeated calls on identical input give bit-identical output.  Matrices are
plain ``numpy`` arrays of complex doubles; nothing here keeps global state.
"""

from __future__ import annotations

import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NoConvergenceError,
    NotHermitianError,
)

HERMITICITY_TOL = 1e-10
SAFE_ENTRY_MAX = 1e150  # below it, neither M + M† nor ||M||_F can overflow


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix in a stack (…, d, d)."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M†)/2, cleaning tiny numerical asymmetry."""
    return (m + dagger(m)) / 2.0


def spectral_matrix(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(x) V† of one matrix or of each in a stack, hermitized: round-off leaves the
    product not exactly Hermitian.  V diag(x) is V's columns scaled by x, to the byte."""
    return hermitize((vectors * values[..., None, :]) @ dagger(vectors))


def _complex_array(m, what: str) -> np.ndarray:
    """``m`` as a complex array; ragged or non-numeric input raises
    :class:`DimensionMismatchError` whose message starts with ``what``."""
    try:
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{what}: {exc}") from None


def _is_real(x) -> bool:
    """Whether ``x`` is a real scalar: a Python or numpy int, float or bool."""
    return isinstance(x, (numbers.Real, np.bool_))


def read_only(m) -> np.ndarray:
    """Read-only C-ordered complex copy: what a frozen state, Hamiltonian or
    measurement model stores, so nothing can change it under a kept spectrum."""
    out = np.array(m, dtype=complex, order="C")
    out.setflags(write=False)
    return out


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-magnitude norm."""
    return float(np.abs(m).max()) if m.size else 0.0


def hermitian_residual(m: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, bool]:
    """max |M - M†| of M, or one per matrix of a stack (…, d, d); (M + M†)/2, formed from
    the same M†; and whether every entry is below SAFE_ENTRY_MAX, so that nothing a caller
    forms from M can overflow and it needs no np.errstate.  A matrix with an entry at or
    beyond the bound (an inf or nan too) is read under np.errstate, with no warning."""
    safe = max_abs(m) < SAFE_ENTRY_MAX
    with nullcontext() if safe else np.errstate(over="ignore", invalid="ignore"):
        m_dagger = dagger(m)
        residual = np.abs(m - m_dagger).max(axis=(-2, -1), initial=0.0)
        return residual, (m + m_dagger) / 2.0, safe


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


def _hermitian(m: np.ndarray) -> np.ndarray:
    """``m`` hermitized, once it is a square matrix or stack (…, d, d), Hermitian within
    HERMITICITY_TOL (the error names the stack's worst residual) and of finite norm."""
    a = _complex_array(m, "expected a numeric matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    residual, a, safe = hermitian_residual(a)
    worst = residual.max(initial=0.0)
    if not worst <= HERMITICITY_TOL:
        raise NotHermitianError(f"matrix is not Hermitian: max |M - M†| = {worst:.3e}")
    if not safe:  # below SAFE_ENTRY_MAX no norm can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for x in a.reshape(-1, *a.shape[-2:]):
                if not math.isfinite(_frobenius(x)):
                    raise DomainError(f"matrix norm is not finite: max |M| = {max_abs(x):.3e}")
    return a


def eig_hermitian(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack (…, d, d), by one
    LAPACK call (``numpy.linalg.eigh``); slice i of the result is the call on matrix i alone.

    Eigenvalues come back sorted descending (stable sort, so degenerate clusters keep
    LAPACK's order), and each eigenvector's phase is fixed by making its largest-magnitude
    component real and positive.  Raises :class:`NotHermitianError` naming the stack's
    worst residual, :class:`DomainError` when a matrix norm is not finite and
    :class:`NoConvergenceError` when LAPACK does not converge.
    """
    try:  # the one LAPACK eigh call
        ascending, v = np.linalg.eigh(_hermitian(m))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
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


def _eigvals(a: np.ndarray) -> np.ndarray:
    """:func:`eigvals_hermitian` unchecked, on a matrix the package built exactly Hermitian."""
    try:  # the one LAPACK eigvalsh call
        eigenvalues = np.linalg.eigvalsh(a)[..., ::-1]
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigh did not converge: {exc}") from exc
    eigenvalues.setflags(write=False)
    return eigenvalues


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """The eigenvalues alone of a Hermitian matrix, or of each in a stack (…, d, d), by one
    LAPACK call (``numpy.linalg.eigvalsh``), descending and read-only, after the checks
    and with the errors of :func:`eig_hermitian`; slice i is the call on matrix i alone.
    They agree with :func:`eig_hermitian`'s to round-off, not bit for bit."""
    return _eigvals(_hermitian(m))


def matrix_function(m: np.ndarray, f: Callable[[float], float]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix, or to each in a stack
    (…, d, d), through its spectrum, from one eig call.

    The result is V diag(f(λ)) V†.  Raises :class:`DomainError` when ``f`` is
    undefined (raises, or returns a non-finite or complex value) at an
    eigenvalue; conventions like 0·ln 0 = 0 belong inside ``f`` itself.
    """
    dec = eig_hermitian(m)
    values = np.empty(dec.eigenvalues.shape, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i, lam in enumerate(dec.eigenvalues.flat):
            try:
                y = f(float(lam))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"f undefined at eigenvalue {lam!r}: {exc}") from exc
            if not _is_real(y) or not math.isfinite(y):
                raise DomainError(f"f({lam!r}) = {y!r} is not a finite real value")
            values.flat[i] = y
    return spectral_matrix(dec.eigenvectors, values)

