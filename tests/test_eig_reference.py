"""eig_hermitian against its straightforward form, byte for byte.

The program's eigen path skips work that changes no bit: the hermitization of
a matrix that is already exactly Hermitian, the Frobenius overflow check below
the safe entry size, and a separate argmax per column.  Every eigenvalue and
eigenvector byte (signed zeros included), and every exception's type and
message, and the kinds of warning raised on the way, must match
``oracles.eig_hermitian_reference`` on a seeded family built to reach each
branch.
"""

import warnings

import numpy as np
import pytest

from qfeedback.linalg import eig_hermitian, hermitize

from oracles import eig_hermitian_reference


def _unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(g)[0]


def _signed_zeros(rng, m):
    """m with each zero component given a random sign."""
    out = m.copy()
    for part in (out.real, out.imag):
        flip = (part == 0.0) & (rng.random(part.shape) < 0.5)
        part[flip] = -0.0
    return out


def _family(i):
    rng = np.random.default_rng(6000 + i)
    n = int(rng.integers(1, 17))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kind = i % 12
    if kind == 0:  # exactly Hermitian
        return hermitize(g)
    if kind == 1:  # a 1e-13 anti-Hermitian perturbation
        return hermitize(g) + 1e-13 * (g - g.conj().T)
    if kind == 2:  # degenerate integer spectrum, product not hermitized
        u = _unitary(rng, n)
        return u @ np.diag(rng.integers(-2, 3, size=n).astype(complex)) @ u.conj().T
    if kind == 3:  # rank one, all entries equal: ties in every column's argmax
        return np.full((n, n), float(rng.integers(1, 4)), dtype=complex)
    if kind == 4:  # integer diagonal
        return np.diag(rng.integers(-3, 4, size=n).astype(complex))
    if kind == 5:  # entries scaled to 1e100..1e307
        return hermitize(g) * 10.0 ** rng.uniform(100, 307)
    if kind == 6:  # a NaN entry
        m = hermitize(g)
        m[rng.integers(n), rng.integers(n)] = np.nan
        return m
    if kind == 7:  # the norm overflows
        return np.full((n, n), 1e308, dtype=complex)
    if kind == 8:  # sparse, zeros of either sign in both components
        return _signed_zeros(rng, hermitize(g) * (rng.random((n, n)) < 0.4))
    if kind == 9:  # purely imaginary off-diagonals, real parts ±0
        return _signed_zeros(rng, 1j * (g.imag - g.imag.T))
    if kind == 10:  # pure state from an outer product
        v = g[:, 0] / np.linalg.norm(g[:, 0])
        return np.outer(v, v.conj())
    u = _unitary(rng, n)  # a state with zero weights, product not hermitized
    w = rng.random(n) * (rng.random(n) < 0.7)
    return u @ np.diag((w / (w.sum() or 1.0)).astype(complex)) @ u.conj().T


def _outcome(solver, m):
    """The result's bytes, or the exception's type and message, and the
    distinct warnings raised on the way (the residual, computed once now,
    warns once)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            dec = solver(m)
            result = (dec.eigenvalues.tobytes(), dec.eigenvectors.tobytes())
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, {str(w.message) for w in caught}


@pytest.mark.parametrize("block", range(8))
def test_matches_reference_byte_for_byte(block):
    for i in range(block * 60, (block + 1) * 60):
        m = _family(i)
        keep = m.tobytes()
        assert _outcome(eig_hermitian, m) == _outcome(eig_hermitian_reference, m), f"case {i}"
        assert m.tobytes() == keep


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.array([[1.0, 1e-9], [0.0, 1.0]], dtype=complex),
        np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex),
        np.full((2, 2), 1e308, dtype=complex),
        np.array([[1e308, 0.0], [0.0, -1e308]], dtype=complex),
        np.array([[complex(-0.0, 0.0)]]),  # hermitizing it gives +0.0
    ],
    ids=["upper", "1e-9", "inf", "1e308", "diagonal-1e308", "negative-zero"],
)
def test_same_exception_or_result(m):
    assert _outcome(eig_hermitian, m) == _outcome(eig_hermitian_reference, m)
