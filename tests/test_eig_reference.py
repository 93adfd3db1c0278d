"""eig_hermitian against its straightforward form, byte for byte.

The program's eigen path skips work that changes no bit: the hermitization of
a matrix that is already exactly Hermitian and the Frobenius overflow check
below the safe entry size.  It also fixes every column's phase in one
vectorized step, where the reference multiplies one column at a time.  Every
eigenvalue and eigenvector byte (signed zeros included), and every
exception's type and message, and the kinds of warning raised on the way,
must match ``oracles.eig_hermitian_reference`` on a seeded family built to
reach each branch: dims 0 to 40 (the ladder reaches 16, controller joints
32), and column peaks that are negative real, purely imaginary or tied in
magnitude across rows.

A stack (…, d, d) goes through the same path in one call.  Grouped by dim
into stacks of 1 to 8, every slice of the family's results must equal the
reference on that matrix alone, byte for byte, and a stack holding one
matrix the single call rejects must raise that call's exception class.
"""

import math
import warnings
from functools import cache

import numpy as np
import pytest

from qfeedback.errors import DomainError, NotHermitianError
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
    n = int(rng.integers(0, 41))
    if n == 0:  # every kind is the same empty matrix
        return np.zeros((0, 0), dtype=complex)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kind = i % 15
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
    if kind == 11:  # real symmetric: real eigenvectors, about half with a negative peak
        return (g.real + g.real.T).astype(complex)
    if kind == 12:  # imaginary off-diagonals on a tridiagonal: many purely imaginary peaks
        b = 1j * g.imag[0, 1:]
        return np.diag(g.real[0]).astype(complex) + np.diag(b, 1) + np.diag(b.conj(), -1)
    if kind == 13:  # 2x2 blocks with equal diagonals: each peak ties with its partner row
        m = np.diag(np.repeat(g.real[0, : (n + 1) // 2], 2)[:n]).astype(complex)
        c = g[-1, : n // 2]
        m[np.arange(0, n - 1, 2), np.arange(1, n, 2)] = c
        m[np.arange(1, n, 2), np.arange(0, n - 1, 2)] = c.conj()
        return m
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


@pytest.mark.parametrize("block", range(10))
def test_matches_reference_byte_for_byte(block):
    for i in range(block * 60, (block + 1) * 60):
        m = _family(i)
        keep = m.tobytes()
        assert _outcome(eig_hermitian, m) == _outcome(eig_hermitian_reference, m), f"case {i}"
        assert m.tobytes() == keep


def test_family_reaches_each_peak_shape():
    """LAPACK's columns from kinds 11-13 hand the phase step peaks of each shape."""
    negative_real = imaginary = tied = 0
    for i in range(600):
        if i % 15 not in (11, 12, 13):
            continue
        vectors = np.linalg.eigh(_family(i))[1]
        if vectors.shape[0] < 2:
            continue
        magnitudes = np.sort(np.abs(vectors), axis=0)
        peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
        negative_real += int(np.sum((peaks.imag == 0.0) & (peaks.real < 0.0)))
        imaginary += int(np.sum((peaks.real == 0.0) & (peaks.imag != 0.0)))
        tied += int(np.sum(magnitudes[-1] == magnitudes[-2]))
    assert min(negative_real, imaginary, tied) >= 50, (negative_real, imaginary, tied)


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


def _classify(m):
    """None when the single call decomposes m, else the class of its exception."""
    try:
        eig_hermitian_reference(m)
    except Exception as exc:
        return type(exc)
    return None


@cache
def _stacks():
    """The family split by dim into stacks of 1 to 8 matrices the single call decomposes,
    and the ones it rejects, each with its exception class."""
    rng = np.random.default_rng(6700)
    by_dim, rejected = {}, []
    for i in range(600):
        m = _family(i)
        error = _classify(m)
        if error is None:
            by_dim.setdefault(m.shape[0], []).append(m)
        else:
            rejected.append((m, error))
    stacks = []
    for matrices in by_dim.values():
        while matrices:
            size = int(rng.integers(1, 9))
            stacks.append(np.stack(matrices[:size]))
            matrices = matrices[size:]
    return tuple(stacks), tuple(rejected), by_dim


def _slices_match(stack):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dec = eig_hermitian(stack)
    assert not caught
    k, d = math.prod(stack.shape[:-2]), stack.shape[-1]
    values = dec.eigenvalues.reshape(k, d)
    vectors = dec.eigenvectors.reshape(k, d, d)
    for i, m in enumerate(stack.reshape(k, d, d)):
        ref = eig_hermitian_reference(m)
        assert values[i].tobytes() == ref.eigenvalues.tobytes(), (stack.shape, i)
        assert vectors[i].tobytes() == ref.eigenvectors.tobytes(), (stack.shape, i)


def test_stacked_slices_match_the_reference_byte_for_byte():
    stacks, _, _ = _stacks()
    sizes = {len(stack) for stack in stacks}
    assert sizes == set(range(1, 9)) and len(stacks) >= 100
    for stack in stacks:
        keep = stack.tobytes()
        _slices_match(stack)
        assert stack.tobytes() == keep


def test_stack_of_stacks_matches_the_reference():
    """Leading axes beyond one: a (2, 3, d, d) stack, and an empty one."""
    stacks, _, _ = _stacks()
    six = next(stack for stack in stacks if len(stack) >= 6 and stack.shape[-1] > 2)
    _slices_match(six[:6].reshape(2, 3, *six.shape[-2:]))
    dec = eig_hermitian(np.zeros((0, 3, 3), dtype=complex))
    assert dec.eigenvalues.shape == (0, 3) and dec.eigenvectors.shape == (0, 3, 3)


def test_stack_with_one_rejected_matrix_raises_its_class():
    _, rejected, by_dim = _stacks()
    rng = np.random.default_rng(6800)
    assert {NotHermitianError, DomainError} <= {error for _, error in rejected}
    companions = 0
    for bad, error in rejected:
        others = by_dim.get(bad.shape[0], [])[: int(rng.integers(0, 8))]
        at = int(rng.integers(0, len(others) + 1))
        stack = np.stack(others[:at] + [bad] + others[at:])
        companions += len(others)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            with pytest.raises(error):
                eig_hermitian(stack)
    assert companions >= 2 * len(rejected)


@pytest.mark.parametrize(
    "m, error",
    [
        (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), NotHermitianError),
        (np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex), NotHermitianError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex), NotHermitianError),
        (np.full((2, 2), 1e308, dtype=complex), DomainError),
    ],
    ids=["upper", "inf", "nan", "1e308"],
)
def test_bad_matrix_among_good_ones(m, error):
    """The single call's class, and the worst residual named, wherever the bad matrix sits."""
    good = np.array([[1.0, 1j], [-1j, 2.0]]) + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(error) as single:
        eig_hermitian(m)
    for stack in (np.stack([m, good]), np.stack([good, good, m])):
        with pytest.raises(error) as stacked:
            eig_hermitian(stack)
        assert str(stacked.value) == str(single.value)
