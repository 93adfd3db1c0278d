"""Eigensolver (checked against the Jacobi oracle), polar decomposition, and
matrix functions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback.controller import apply_joint_unitary, correlate, feedback_unitary
from qfeedback.errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    DomainError,
    InvalidModelError,
    InvalidStateError,
    NoConvergenceError,
    NotADistributionError,
    NotHermitianError,
    QFeedbackError,
)
from qfeedback.feedback import run_cycle
from qfeedback.linalg import (
    HERMITICITY_TOL,
    dagger,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_residual,
    hermitize,
    matrix_function,
    max_abs,
    spectral_matrix,
)
from qfeedback.measurement import MeasurementModel
from qfeedback.sampling import random_hermitian
from qfeedback.thermo import DensityMatrix, Hamiltonian, shannon_entropy, thermal_state

from conftest import PAULI_X, PAULI_Y, PAULI_Z, maximally_mixed, random_unitary
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


# the public calls that take a caller's matrix, each of which reads it through
# linalg._complex_array
MATRIX_ENTRY_POINTS = {
    "Hamiltonian.from_matrix": Hamiltonian.from_matrix,
    "Hamiltonian.diagonal": Hamiltonian.diagonal,
    "DensityMatrix.from_matrix": DensityMatrix.from_matrix,
    "DensityMatrix.from_psd": DensityMatrix.from_psd,
    "DensityMatrix.from_vector": DensityMatrix.from_vector,
    "eig_hermitian": eig_hermitian,
    "eigvals_hermitian": eigvals_hermitian,
    "apply_joint_unitary": lambda m: apply_joint_unitary(
        correlate(maximally_mixed(2), MeasurementModel.weak(PAULI_Z, 0.4)), m
    ),
    "feedback_unitary": feedback_unitary,
}
NOT_AN_ARRAY = {"ragged": [[1, 2], [3]], "string": [["a"]], "mapping": [[{}]]}


@pytest.mark.parametrize("m", NOT_AN_ARRAY.values(), ids=NOT_AN_ARRAY.keys())
@pytest.mark.parametrize(
    "call", MATRIX_ENTRY_POINTS.values(), ids=MATRIX_ENTRY_POINTS.keys()
)
def test_ragged_or_non_numeric_input_is_a_dimension_error(call, m):
    """Input numpy cannot read as a complex array raises the package's error, not
    numpy's ValueError or TypeError."""
    with pytest.raises(DimensionMismatchError):
        call(m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Hamiltonian.from_matrix(np.zeros((0, 0))),
        lambda: Hamiltonian.zero(0),
        lambda: Hamiltonian.diagonal([]),
    ],
    ids=["from_matrix", "zero", "diagonal"],
)
def test_empty_hamiltonian_is_a_dimension_error(build):
    """A 0 x 0 Hamiltonian has no thermal state: it is refused where it is built, as an
    empty operator family is."""
    with pytest.raises(DimensionMismatchError, match="non-empty and square, got \\(0, 0\\)"):
        build()


H_Z = Hamiltonian.diagonal([0.0, 1.0])
Z_READOUT = MeasurementModel.bare([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
WRONG_TYPE_CALLS = {
    "temperature-str": (ArgumentRangeError, lambda: thermal_state(H_Z, "1")),
    "temperature-none": (ArgumentRangeError, lambda: thermal_state(H_Z, None)),
    "temperature-complex": (ArgumentRangeError, lambda: thermal_state(H_Z, 1j)),
    "cycle-temperature-none": (ArgumentRangeError, lambda: run_cycle(H_Z, None, Z_READOUT)),
    "weak-strength-str": (InvalidModelError, lambda: MeasurementModel.weak(PAULI_Z, "0.3")),
    "weak-strength-array": (
        InvalidModelError, lambda: MeasurementModel.weak(PAULI_Z, np.array([0.3]))
    ),
    "zero-negative-dim": (DimensionMismatchError, lambda: Hamiltonian.zero(-1)),
    "f-returns-str": (DomainError, lambda: matrix_function(PAULI_Z, lambda x: "a")),
    "f-returns-none": (DomainError, lambda: matrix_function(PAULI_Z, lambda x: None)),
    "entropy-of-str": (NotADistributionError, lambda: shannon_entropy("ab")),
    "vector-is-a-matrix": (DimensionMismatchError, lambda: DensityMatrix.from_vector(np.eye(2))),
}


@pytest.mark.parametrize(
    "error, call", WRONG_TYPE_CALLS.values(), ids=WRONG_TYPE_CALLS.keys()
)
def test_a_wrong_type_at_an_entry_point_is_a_package_error(error, call):
    """An argument of the wrong type or shape raises the package's error, as errors.py
    promises, not a builtin TypeError or numpy's ValueError, and a 2 x 2 matrix is not
    read as a 4-level pure state."""
    with pytest.raises(error):
        call()


def test_real_scalars_of_every_kind_are_still_accepted():
    """Ints, floats, numpy scalars and bools pass the real-number checks as before, a row or
    column of a matrix is still a state vector, and a float count is still a TypeError."""
    for kt in (1, 1.0, True, np.float64(1.0), np.int64(1), np.True_):
        assert thermal_state(H_Z, kt).matrix.tobytes() == thermal_state(H_Z, 1.0).matrix.tobytes()
    for epsilon in (0.3, np.float64(0.3), np.float32(0.5)):
        assert MeasurementModel.weak(PAULI_Z, epsilon).strength == float(epsilon)
    np.testing.assert_array_equal(matrix_function(PAULI_Z, lambda x: x > 0), np.diag([1.0, 0.0]))
    assert shannon_entropy([True]) == 0.0
    plus = DensityMatrix.from_vector(np.array([1.0, 1.0])).matrix.tobytes()
    for v in (np.ones((2, 1)), np.ones((1, 2))):
        assert DensityMatrix.from_vector(v).matrix.tobytes() == plus
    with pytest.raises(TypeError):
        Hamiltonian.zero(2.0)


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
        residual, _, safe = hermitian_residual(np.array(m, dtype=complex))
    assert not residual <= HERMITICITY_TOL and not safe


def test_beyond_safe_entries_keep_their_residual():
    """Above SAFE_ENTRY_MAX the residual is the same number, read without a warning."""
    m = np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError, match="inf"):
            eig_hermitian(m)
        residual, hermitized, safe = hermitian_residual(np.full((2, 2), 1e308, dtype=complex))
    assert (residual, safe) == (0.0, False) and np.isinf(hermitized).all()


def _with_negative_zero(m, index, part):
    out = np.array(m, dtype=complex)
    getattr(out, part)[index] = -0.0
    return out


def _signed_zeros(base):
    """-0.0 components of a Hermitian ``base``, alone and in stacks, one of which mixes an
    exactly Hermitian slice holding -0.0 with one Hermitian only within tolerance."""
    skew = np.zeros_like(base)
    skew[0, 1] = 1e-13
    return {
        "none": base,
        "real-part": _with_negative_zero(base, (0, 1), "real"),
        "imaginary-part": _with_negative_zero(base, (2, 2), "imag"),
        "one-slice-of-a-stack": np.stack([base, _with_negative_zero(base, (1, 1), "imag"), base]),
        "exact-and-inexact-slices": np.stack(
            [_with_negative_zero(base, (0, 1), "real"), base + skew]
        ),
    }


EYE = np.eye(3, dtype=complex)
SIGNED_ZEROS = {
    **_signed_zeros(EYE),
    "negative-entries": -EYE,
    "stack-none": np.stack([EYE, -EYE, EYE]),
    "0x0": np.zeros((0, 0), dtype=complex),
    "empty-stack": np.zeros((0, 3, 3), dtype=complex),
    "stack-of-0x0": np.zeros((4, 0, 0), dtype=complex),
}


def _as_stack(m):
    """A matrix as a stack of one; a stack as it is."""
    return m[None] if m.ndim == 2 else m


@pytest.mark.parametrize("m", SIGNED_ZEROS.values(), ids=SIGNED_ZEROS.keys())
def test_stacked_eig_keeps_each_slice_bytes(m):
    """Each check hermitizes, -0.0 components and all, so slice i of a stacked call is the
    call on matrix i alone byte for byte."""
    stack = _as_stack(m)
    dec, values = eig_hermitian(stack), eigvals_hermitian(stack)
    for i, x in enumerate(stack):
        alone = eig_hermitian(x)
        assert dec.eigenvalues[i].tobytes() == alone.eigenvalues.tobytes()
        assert dec.eigenvectors[i].tobytes() == alone.eigenvectors.tobytes()
        assert values[i].tobytes() == eigvals_hermitian(x).tobytes()


STATE_SIGNED_ZEROS = _signed_zeros(np.diag([0.5, 0.3, 0.2]).astype(complex))


@pytest.mark.parametrize("m", STATE_SIGNED_ZEROS.values(), ids=STATE_SIGNED_ZEROS.keys())
def test_stacked_state_keeps_each_slice_bytes(m):
    """Slice i of DensityMatrix.from_matrix on a stack is the state of matrix i alone."""
    stack = _as_stack(m)
    matrices, dec = DensityMatrix.from_matrix(stack, "slice")
    for i, x in enumerate(stack):
        alone = DensityMatrix.from_matrix(x, "slice")
        assert matrices[i].tobytes() == alone.matrix.tobytes()
        assert dec.eigenvalues[i].tobytes() == alone.eig.eigenvalues.tobytes()
        assert dec.eigenvectors[i].tobytes() == alone.eig.eigenvectors.tobytes()


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


def _diagonal_product(vectors, values):
    """spectral_matrix's former form: hermitize(V @ D @ V†) with D = diag(x) built complex."""
    d = values.shape[-1]
    diagonal = np.zeros((*values.shape, d), dtype=complex)
    diagonal.reshape(*values.shape[:-1], d * d)[..., :: d + 1] = values
    return hermitize(vectors @ diagonal @ dagger(vectors))


def _spectral_cases():
    """(vectors, values) stacks: random spectra and Gibbs-like weights on random eigenvectors,
    and on the signed permutations a diagonal H's eig gives, with exact and signed zeros."""
    rng = np.random.default_rng(4411)
    for dim in (1, 2, 3, 5, 8, 16):
        stack = np.array([random_hermitian(dim, rng) for _ in range(3)])
        dec = eig_hermitian(stack)
        weights = np.exp(-rng.uniform(0.0, 800.0, (3, dim)))  # some underflow to 0
        yield pytest.param(dec.eigenvectors, dec.eigenvalues, id=f"random-spectrum-{dim}")
        yield pytest.param(dec.eigenvectors, weights, id=f"random-weights-{dim}")
        perm = np.eye(dim, dtype=complex)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)
        signed = np.where(rng.random((3, dim)) < 0.5, -0.0, 0.0) + rng.choice([0.0, 1.0], (3, dim))
        yield pytest.param(np.stack([perm] * 3), signed, id=f"signed-permutation-{dim}")


@pytest.mark.parametrize("vectors, values", _spectral_cases())
def test_spectral_matrix_keeps_the_diagonal_product_bytes(vectors, values):
    """Scaling V's columns by x gives the bytes of V diag(x), on a stack and on each slice."""
    assert spectral_matrix(vectors, values).tobytes() == _diagonal_product(vectors, values).tobytes()
    for v, x in zip(vectors, values):
        assert spectral_matrix(v, x).tobytes() == _diagonal_product(v, x).tobytes()


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

    def test_stack_is_each_slice_alone(self, rng):
        stack = np.array([random_hermitian(4, rng) for _ in range(3)])
        out = matrix_function(stack, np.exp)
        for m, slice_out in zip(stack, out):
            assert slice_out.tobytes() == matrix_function(m, np.exp).tobytes()

    @pytest.mark.parametrize(
        "f, message",
        [
            (math.log, "f undefined at eigenvalue np.float64(-1.0): math domain error"),
            (np.log, "f(np.float64(-1.0)) = np.float64(nan) is not a finite real value"),
        ],
        ids=["raises", "nan"],
    )
    def test_a_stack_raises_the_single_call_error(self, f, message):
        """The first failing eigenvalue of the stack raises, in the single call's words."""
        stack = np.stack([np.eye(2, dtype=complex), -np.eye(2, dtype=complex)])
        for m in (stack, stack[1]):
            with pytest.raises(DomainError) as info:
                matrix_function(m, f)
            assert str(info.value) == message


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

