"""Eigensolver (checked against the Jacobi oracle), polar decomposition, and
multipartite helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback.errors import (
    DimensionMismatchError,
    DomainError,
    InputError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    QFeedbackError,
)
from qfeedback.linalg import (
    dagger,
    dephase_blocks,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_residual,
    hermitize,
    is_hermitian,
    matrix_function,
    max_abs,
    partial_trace,
    tensor,
)
from qfeedback.sampling import random_hermitian
from qfeedback.thermo import DensityMatrix, Hamiltonian

from conftest import PAULI_X, PAULI_Y, PAULI_Z, random_unitary
from oracles import jacobi_eig, polar_decompose, reconstruct


def reconstruction_residual(m):
    return max_abs(reconstruct(eig_hermitian(m)) - m)


class TestEigHermitian:
    def test_pauli_x(self):
        dec = eig_hermitian(PAULI_X)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            np.abs(dec.eigenvectors),
            [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, inv_sqrt2]],
            atol=1e-14,
        )

    def test_pauli_y_complex_rotation(self):
        dec = eig_hermitian(PAULI_Y)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
        # +1 eigenvector is (1, i)/sqrt(2) up to phase; check the eigen-equation
        v = dec.eigenvectors[:, 0]
        np.testing.assert_allclose(PAULI_Y @ v, v, atol=1e-14)

    def test_diagonal_passthrough(self):
        d = np.diag([3.0, 1.0, 2.0]).astype(complex)
        dec = eig_hermitian(d)
        np.testing.assert_allclose(dec.eigenvalues, [3.0, 2.0, 1.0], atol=0)

    def test_descending_order(self, rng):
        for _ in range(20):
            m = random_hermitian(5, rng)
            lam = eig_hermitian(m).eigenvalues
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_convergence_cap_raises(self):
        m = random_hermitian(4, np.random.default_rng(0))
        with pytest.raises(NoConvergenceError):
            jacobi_eig(m, max_sweeps=0)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergenceError):
            eig_hermitian(PAULI_X)

    @pytest.mark.parametrize(
        "m",
        [random_hermitian(dim, np.random.default_rng(900 + dim)) for dim in range(2, 33)]
        + [
            np.array([[1.0, 7e-314, 0.3], [7e-314, 2.0, 0.1], [0.3, 0.1, 0.5]], dtype=complex),
            np.array([[0.0, 1e200j], [-1e200j, 1.0]], dtype=complex),
        ],
        ids=[f"dim{dim}" for dim in range(2, 33)] + ["subnormal", "1e200"],
    )
    def test_matches_jacobi_oracle(self, m):
        dec = eig_hermitian(m)
        ref = jacobi_eig(m)
        bound = 1e-12 * (1.0 + max_abs(m))
        assert max_abs(dec.eigenvalues - ref.eigenvalues) < bound
        assert max_abs(reconstruct(dec) - reconstruct(ref)) < bound

    def test_residual_ensemble(self, rng):
        # acceptance-grade residual bound over 200 seeded matrices, dims 2-8
        for i in range(200):
            dim = 2 + i % 7
            m = random_hermitian(dim, rng, scale=1.0 + (i % 5))
            bound = 1e-12 * (1.0 + max_abs(m))
            assert reconstruction_residual(m) < bound

    def test_orthonormal_eigenvectors(self, rng):
        for _ in range(30):
            m = random_hermitian(6, rng)
            v = eig_hermitian(m).eigenvectors
            assert max_abs(dagger(v) @ v - np.eye(6)) < 1e-13

    def test_phase_fix_deterministic(self, rng):
        m = random_hermitian(5, rng)
        a = eig_hermitian(m).eigenvectors
        b = eig_hermitian(m.copy()).eigenvectors
        np.testing.assert_array_equal(a, b)
        # largest-magnitude component of each eigenvector is real positive
        for j in range(5):
            col = a[:, j]
            top = col[np.argmax(np.abs(col))]
            assert abs(top.imag) < 1e-15 and top.real > 0

    def test_degenerate_subspace_projector(self):
        # eigenvectors of a degenerate eigenvalue are only defined up to
        # rotation; the spectral projector is the invariant object
        m = np.diag([2.0, 1.0, 1.0]).astype(complex)
        u = random_unitary(3, np.random.default_rng(3))
        rotated = hermitize(u @ m @ dagger(u))
        dec = eig_hermitian(rotated)
        proj = sum(
            np.outer(dec.eigenvectors[:, j], dec.eigenvectors[:, j].conj())
            for j in range(3)
            if abs(dec.eigenvalues[j] - 1.0) < 1e-10
        )
        expected = u @ np.diag([0.0, 1.0, 1.0]).astype(complex) @ dagger(u)
        assert max_abs(proj - expected) < 1e-12

    def test_input_not_mutated(self, rng):
        m = random_hermitian(4, rng)
        keep = m.copy()
        eig_hermitian(m)
        np.testing.assert_array_equal(m, keep)

    def test_subnormal_off_diagonal(self):
        # a subnormal off-diagonal element must not turn the spectrum to NaN
        # (1/|a_pq| overflows, so the Jacobi oracle drops the element)
        m = np.array([[1.0, 7e-314, 0.3], [7e-314, 2.0, 0.1], [0.3, 0.1, 0.5]], dtype=complex)
        dec = eig_hermitian(m)
        assert np.all(np.isfinite(dec.eigenvalues))
        assert np.all(np.isfinite(dec.eigenvectors))
        assert reconstruction_residual(m) < 1e-12

    def test_entries_whose_squares_overflow(self):
        # the Frobenius norm overflows unless the matrix is scaled first
        m = np.array([[0.0, 1e200j], [-1e200j, 1.0]], dtype=complex)
        dec = eig_hermitian(m)
        np.testing.assert_allclose(dec.eigenvalues, [1e200, -1e200], rtol=1e-14)
        assert max_abs(reconstruct(dec) - m) < 1e-14 * 1e200

    def test_norm_beyond_float_range_is_a_domain_error(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.full((2, 2), 1e308, dtype=complex))

    def test_result_is_read_only(self, rng):
        dec = eig_hermitian(random_hermitian(3, rng))
        with pytest.raises(ValueError):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            dec.eigenvectors[0, 0] = 0.0


NON_FINITE = {
    "inf": [[np.inf, 0.0], [0.0, 1.0]],
    "minus-inf": [[-np.inf, 0.0], [0.0, 1.0]],
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "off-diagonal-inf": [[0.0, np.inf], [np.inf, 0.0]],
    "complex-nan": [[1.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 1.0]],
}


@pytest.mark.parametrize("m", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize(
    "build, error",
    [
        (eig_hermitian, NotHermitianError),
        (eigvals_hermitian, NotHermitianError),
        (DensityMatrix.from_matrix, InvalidStateError),
        (Hamiltonian.from_matrix, DomainError),
    ],
    ids=["eig_hermitian", "eigvals_hermitian", "DensityMatrix", "Hamiltonian"],
)
def test_non_finite_input_raises_without_a_warning(build, error, m):
    """An inf or nan entry is the package's error, with no numpy warning first:
    the Hermiticity residual is formed under errstate once an entry reaches
    SAFE_ENTRY_MAX."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build(np.array(m, dtype=complex))


NEAR_FLOAT_MAX = {
    "all-1e308": np.full((2, 2), 1e308),
    "diagonal-float-max": np.diag([np.finfo(float).max, 1.0]),
    "off-diagonal-1e308": [[0.0, 1e308], [1e308, 0.0]],
    # hermitized, the trace is inf - inf = nan
    "diagonal-nan-trace": np.diag([1e308, -1e308]),
    # hermitized, the trace stays 1 and the off-diagonal overflows
    "unit-trace-off-diagonal-1e308": [[0.5, 1e308], [1e308, 0.5]],
}


@pytest.mark.parametrize("m", NEAR_FLOAT_MAX.values(), ids=NEAR_FLOAT_MAX.keys())
@pytest.mark.parametrize(
    "build, error",
    [
        (eig_hermitian, DomainError),
        (eigvals_hermitian, DomainError),
        (DensityMatrix.from_matrix, InvalidStateError),
        (Hamiltonian.from_matrix, DomainError),
    ],
    ids=["eig_hermitian", "eigvals_hermitian", "DensityMatrix", "Hamiltonian"],
)
def test_finite_input_near_float_max_raises_without_a_warning(build, error, m):
    """Finite entries whose hermitization overflows are the package's error, with
    no numpy warning first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            build(np.array(m, dtype=complex))


@pytest.mark.parametrize("m", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_input_is_not_hermitian_without_a_warning(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(np.array(m, dtype=complex))


def test_beyond_safe_entries_keep_their_residual():
    """Above SAFE_ENTRY_MAX the residual is the same number, read without a warning."""
    m = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError, match="inf"):
            eig_hermitian(m)
        assert is_hermitian(np.full((2, 2), 1e308, dtype=complex))


def _with_negative_zero(m, index, part):
    out = np.array(m, dtype=complex)
    getattr(out, part)[index] = -0.0
    return out


EYE = np.eye(3, dtype=complex)
SIGNED_ZEROS = {
    "none": EYE,
    "negative-entries": -EYE,
    "real-part": _with_negative_zero(EYE, (0, 1), "real"),
    "imaginary-part": _with_negative_zero(EYE, (2, 2), "imag"),
    "stack-none": np.stack([EYE, -EYE, EYE]),
    "one-slice-of-a-stack": np.stack([EYE, _with_negative_zero(EYE, (1, 1), "imag"), EYE]),
    "0x0": np.zeros((0, 0), dtype=complex),
    "empty-stack": np.zeros((0, 3, 3), dtype=complex),
    "stack-of-0x0": np.zeros((4, 0, 0), dtype=complex),
}


@pytest.mark.parametrize("m", SIGNED_ZEROS.values(), ids=SIGNED_ZEROS.keys())
def test_exact_flag_reads_every_negative_zero(m):
    """An exactly Hermitian matrix is hermitized unchanged unless a component is -0.0."""
    negative_zero = bool((np.ascontiguousarray(m).view(np.uint64) == 1 << 63).any())
    assert hermitian_residual(m) == (0.0, not negative_zero, True)
    if not negative_zero:
        assert hermitize(m).tobytes() == m.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_eigen_reconstruction_property(seed, dim):
    m = random_hermitian(dim, np.random.default_rng(seed))
    assert reconstruction_residual(m) < 1e-12 * (1.0 + max_abs(m))


BAD_INPUTS = {
    "not-hermitian": [[0.0, 1.0], [0.0, 0.0]],
    "not-square": np.zeros((2, 3)),
    "vector": np.zeros(3),
    "stack-not-square": np.zeros((2, 3, 2)),
    "norm-overflows": np.full((2, 2), 1e308),
    "one-slice-not-hermitian": [np.eye(2), [[0.0, 1.0], [0.0, 0.0]], np.eye(2)],
    "one-slice-overflows": [np.eye(2), np.full((2, 2), 1e308)],
    **NON_FINITE,
    **{f"stack-{name}": [np.eye(2), m] for name, m in NON_FINITE.items()},
}


@pytest.mark.parametrize("m", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_eigvals_raises_as_eig_hermitian(m):
    """eigvals_hermitian runs eig_hermitian's checks: the same class and message, and no
    numpy warning first."""
    m = np.array(m, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QFeedbackError) as expected:
            eig_hermitian(m)
        with pytest.raises(type(expected.value)) as got:
            eigvals_hermitian(m)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_eigvals_lapack_failure_is_no_convergence(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergenceError):
        eigvals_hermitian(PAULI_X)


def _seeded_hermitian_stacks():
    """(stack, scale) pairs, dims 1-32 with 1 to 5 matrices each, at scales 1e-3 to 1e3."""
    rng = np.random.default_rng(2404)
    for dim in range(1, 33):
        scale = float(10.0 ** rng.uniform(-3.0, 3.0))
        stack = np.array([random_hermitian(dim, rng, scale=scale) for _ in range(1 + dim % 5)])
        yield pytest.param(stack, id=f"dim{dim}")


@pytest.mark.parametrize("stack", _seeded_hermitian_stacks())
def test_eigvals_stack_slices_are_the_single_call(stack):
    values = eigvals_hermitian(stack)
    assert values.shape == stack.shape[:-1]
    for m, row in zip(stack, values):
        assert row.tobytes() == eigvals_hermitian(m).tobytes()


@pytest.mark.parametrize("stack", _seeded_hermitian_stacks())
def test_eigvals_descend_and_are_read_only(stack):
    for values in (eigvals_hermitian(stack), eigvals_hermitian(stack[0])):
        assert (np.diff(values, axis=-1) <= 0.0).all()
        with pytest.raises(ValueError):
            values[..., 0] = 0.0


@pytest.mark.parametrize("stack", _seeded_hermitian_stacks())
def test_eigvals_agree_with_eig_hermitian(stack):
    expected = eig_hermitian(stack).eigenvalues
    bound = 1e-12 * max(1.0, max_abs(expected))
    assert max_abs(eigvals_hermitian(stack) - expected) <= bound


class TestMatrixFunction:
    def test_sqrt_of_squared(self, rng):
        for _ in range(10):
            m = random_hermitian(4, rng)
            sq = m @ m
            root = matrix_function(sq, np.sqrt)
            assert max_abs(root @ root - sq) < 1e-10

    def test_exp_diagonal(self):
        m = np.diag([0.0, 1.0]).astype(complex)
        out = matrix_function(m, np.exp)
        np.testing.assert_allclose(np.diag(out).real, [1.0, np.e], atol=1e-14)

    def test_log_rejects_negative_spectrum(self):
        with pytest.raises(DomainError):
            matrix_function(-np.eye(2, dtype=complex), np.log)


class TestPolarDecompose:
    def test_unitary_input(self, rng):
        u = random_unitary(3, rng)
        fac = polar_decompose(u)
        assert max_abs(fac.positive - np.eye(3)) < 1e-10
        assert max_abs(fac.unitary - u) < 1e-10

    def test_positive_input(self, rng):
        g = random_hermitian(3, rng)
        p = matrix_function(g @ g + 0.1 * np.eye(3), np.sqrt)
        fac = polar_decompose(p)
        assert max_abs(fac.unitary - np.eye(3)) < 1e-9

    def test_rank_deficient_completion(self):
        # one singular value is zero; the completion must still be unitary and
        # deterministic
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        fac = polar_decompose(a)
        np.testing.assert_allclose(fac.positive, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(fac.unitary, PAULI_X, atol=1e-12)

    def test_residual_ensemble(self, rng):
        for i in range(200):
            dim = 2 + i % 7
            g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / 2.0
            fac = polar_decompose(g)
            assert max_abs(fac.unitary @ fac.positive - g) < 1e-10
            assert max_abs(dagger(fac.unitary) @ fac.unitary - np.eye(dim)) < 1e-10
            lam = eig_hermitian(fac.positive).eigenvalues
            assert lam[-1] > -1e-12


class TestMultipartite:
    def test_tensor_shape_and_values(self):
        out = tensor(PAULI_Z, np.eye(2, dtype=complex))
        np.testing.assert_allclose(out, np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)

    def test_partial_trace_inverts_tensor(self, rng):
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        b = b / np.trace(b).real if abs(np.trace(b).real) > 0.1 else b + np.eye(3)
        joint = tensor(a, b)
        np.testing.assert_allclose(
            partial_trace(joint, (2, 3), over="B"), a * np.trace(b), atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(joint, (2, 3), over="A"), b * np.trace(a), atol=1e-12
        )

    def test_partial_trace_unknown_factor(self):
        with pytest.raises(InputError, match="over must be 'A' or 'B'"):
            partial_trace(np.eye(4, dtype=complex), (2, 2), over="C")

    def test_partial_trace_wrong_dims(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(5, dtype=complex), (2, 2), over="A")

    def test_dephase_blocks_kills_coherences(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        out = dephase_blocks(m, [2, 2])
        np.testing.assert_allclose(out[:2, 2:], 0.0, atol=0)
        np.testing.assert_allclose(out[2:, :2], 0.0, atol=0)
        np.testing.assert_allclose(out[:2, :2], m[:2, :2], atol=0)
        assert np.trace(out) == np.trace(m)
