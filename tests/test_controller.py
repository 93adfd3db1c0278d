"""Quantum-controller formulation: joint states, controlled feedback,
decoherence, and the universe entropy ledger."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback.controller import (
    JointState,
    apply_joint_unitary,
    correlate,
    decohere_controller,
    feedback_unitary,
    finalize_branches,
    reset_controller,
    run_controller_cycle,
)
from qfeedback.errors import (
    ArgumentRangeError,
    DegenerateStateError,
    DimensionMismatchError,
    IncompleteModelError,
    InvalidStateError,
    NonUnitaryBlockError,
)
from qfeedback.feedback import plan_branches, run_cycle
from qfeedback.linalg import (
    dagger,
    eig_hermitian,
    eigvals_hermitian,
    max_abs,
    read_only,
)
from qfeedback import measurement
from qfeedback.measurement import (
    EFFICIENCY_TOL,
    SECOND_LAW_TOL,
    MeasurementModel,
    apply,
    entropy_reduction,
    judge_second_law,
    measurement_energy_cost,
    second_law_verdict,
)
from qfeedback.sampling import (
    ginibre,
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import (
    DensityMatrix,
    Hamiltonian,
    _nats,
    average_energy,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)

from conftest import (
    PAULI_X,
    PAULI_Z,
    PROJ_0,
    PROJ_1,
    PROJ_X_MINUS,
    PROJ_X_PLUS,
    maximally_mixed,
    random_inefficient_model,
    random_unitary,
)
from oracles import (
    decohere_controller_reference,
    decohere_via_ancilla,
    eig_checked_joint,
    pinch_by_slices,
    total_entropy,
    total_entropy_assembled,
)

LN2 = math.log(2.0)
H2LEVEL = Hamiltonian.diagonal([0.0, 1.0])


class TestCorrelate:
    def test_trivial_model_appends_pure_controller(self):
        rho = thermal_state(H2LEVEL, 1.0)
        joint = correlate(rho, MeasurementModel.bare([np.eye(2, dtype=complex)]))
        assert joint.n_outcomes == 1
        assert max_abs(joint.blocks()[0, :, 0, :] - rho.matrix) < 1e-12

    def test_orthogonal_projectors_kill_coherences(self):
        joint = correlate(
            maximally_mixed(2), MeasurementModel.bare([PROJ_0, PROJ_1])
        )
        np.testing.assert_allclose(joint.blocks()[0, :, 0, :], np.diag([0.5, 0.0]), atol=1e-14)
        np.testing.assert_allclose(joint.blocks()[1, :, 1, :], np.diag([0.0, 0.5]), atol=1e-14)
        np.testing.assert_allclose(joint.blocks()[0, :, 1, :], 0.0, atol=1e-14)

    def test_weak_coherence_blocks(self):
        model = MeasurementModel.weak(PAULI_Z, 0.5)
        joint = correlate(maximally_mixed(2), model)
        expected = math.sqrt(0.75 * 0.25) / 2.0
        np.testing.assert_allclose(
            np.diag(joint.blocks()[0, :, 1, :]).real, [expected, expected], atol=1e-12
        )
        # coherence blocks are adjoints of each other
        assert max_abs(joint.blocks()[0, :, 1, :] - dagger(joint.blocks()[1, :, 0, :])) < 1e-12

    def test_diagonal_blocks_match_measurement_records(self, rng):
        # the isometry picture and the Kraus picture agree branch by branch
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            model = random_bare_model(dim, int(rng.integers(2, 5)), rng)
            h = Hamiltonian.zero(dim)
            rho = thermal_state(random_hamiltonian(dim, rng), 1.0)
            joint = correlate(rho, model)
            records = apply(model, rho, h)
            for record in records:
                block = joint.blocks()[record.n, :, record.n, :]
                assert abs(np.trace(block).real - record.probability) < 1e-10
                assert (
                    max_abs(block - record.probability * record.state.matrix) < 1e-10
                )

    def test_rejects_incomplete_family(self):
        half = MeasurementModel.bare([np.eye(2, dtype=complex) * 0.5])
        with pytest.raises(IncompleteModelError):
            correlate(maximally_mixed(2), half)

    @pytest.mark.parametrize("kind", ["efficient", "inefficient"])
    def test_general_kraus_model_traces_out_its_kraus_index(self, rng, kind):
        """Block (n, m) of a general Kraus model's joint is Σ_j A_nj ρ A_mj†: its
        diagonal blocks are apply's p_n ρ_n, and the joint is the eig-checked sum."""
        draw = random_efficient_model if kind == "efficient" else random_inefficient_model
        for _ in range(20):
            dim, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            model = draw(dim, n, rng)
            rho = thermal_state(random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0)))
            joint = correlate(rho, model)
            records = apply(model, rho, Hamiltonian.zero(dim))
            for record in records:
                block = joint.blocks()[record.n, :, record.n, :]
                assert max_abs(block - record.probability * record.state.matrix) < 1e-10
            checked = eig_checked_joint(rho, model, np.eye(n * dim))
            assert max_abs(joint.matrix.matrix - checked.matrix.matrix) < 1e-12

    def test_controlled_kraus_operators(self):
        # A_0 = |0><0| and A_1 = X|1><1| both leave the system in |0>: the joint of I/2
        # is |0><0| ⊗ |0><0| / 2 + |1><1| ⊗ |0><0| / 2, with no coherence
        model = MeasurementModel.efficient([PROJ_0, PAULI_X @ PROJ_1])
        joint = correlate(maximally_mixed(2), model)
        np.testing.assert_allclose(joint.matrix.matrix, np.diag([0.5, 0, 0.5, 0]), atol=1e-15)


class TestFeedbackUnitary:
    @pytest.mark.parametrize("shape", [(4, 5), (5, 4), (4,), (2, 4, 4), (2, 2)])
    def test_unitary_of_another_shape_is_a_dimension_error(self, shape):
        """A U that is not D x D, D the joint's dimension, is the package's error, not
        numpy's."""
        joint = correlate(maximally_mixed(2), MeasurementModel.weak(PAULI_Z, 0.4))
        with pytest.raises(DimensionMismatchError, match=re.escape(f"unitary shape {shape}")):
            apply_joint_unitary(joint, np.zeros(shape, dtype=complex))

    def test_unitary_as_nested_lists(self):
        joint = correlate(maximally_mixed(2), MeasurementModel.weak(PAULI_Z, 0.4))
        u = feedback_unitary([np.eye(2, dtype=complex), PAULI_X])
        expected = apply_joint_unitary(joint, u).matrix.matrix
        assert apply_joint_unitary(joint, u.tolist()).matrix.matrix.tobytes() == expected.tobytes()

    def test_identity_blocks(self):
        u = feedback_unitary([np.eye(2, dtype=complex)] * 2)
        np.testing.assert_allclose(u, np.eye(4), atol=0)

    def test_controlled_x(self):
        u = feedback_unitary([np.eye(2, dtype=complex), PAULI_X])
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        np.testing.assert_allclose(u, cnot, atol=0)

    def test_blocks_transform_independently(self, rng):
        model = MeasurementModel.weak(PAULI_Z, 0.4)
        joint = correlate(maximally_mixed(2), model)
        u0 = random_unitary(2, rng)
        u1 = random_unitary(2, rng)
        out = apply_joint_unitary(joint, feedback_unitary([u0, u1]))
        for (n, un) in ((0, u0), (1, u1)):
            for (m, um) in ((0, u0), (1, u1)):
                expected = un @ joint.blocks()[n, :, m, :] @ dagger(um)
                assert max_abs(out.blocks()[n, :, m, :] - expected) < 1e-12

    def test_rejects_non_unitary_block(self):
        with pytest.raises(NonUnitaryBlockError):
            feedback_unitary([np.eye(2, dtype=complex), 0.5 * PAULI_X])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan), 1e300])
    def test_rejects_a_block_whose_residual_is_not_finite(self, entry):
        # a NaN residual compares false against any bound, and an overflowing product
        # warns: the check reads both as a failure, with no warning first
        blocks = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        blocks[1, 0, 1] = entry
        with pytest.raises(NonUnitaryBlockError, match="^block 1 "):
            feedback_unitary(blocks)
        with pytest.raises(NonUnitaryBlockError, match="^block 0 unitarity residual nan$"):
            feedback_unitary(np.full((2, 2, 2), np.nan, complex))

    @pytest.mark.parametrize("bad", range(3))
    def test_names_the_first_non_unitary_block(self, bad):
        blocks = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        blocks[bad] = 0.5 * PAULI_X
        blocks[3] = 2.0 * PAULI_X  # a later failing block is not the one named
        message = f"^block {bad} unitarity residual 7.500e-01$"
        with pytest.raises(NonUnitaryBlockError, match=message):
            feedback_unitary(blocks)

    @pytest.mark.parametrize(
        "blocks",
        [
            np.eye(2, dtype=complex),  # one matrix, not a stack
            np.zeros((0, 2, 2), dtype=complex),  # no block
            np.zeros((2, 2, 3), dtype=complex),  # blocks not square
            np.zeros((1, 2, 2, 2), dtype=complex),  # a stack of stacks
            [np.eye(2, dtype=complex), np.eye(3, dtype=complex)],  # mixed dims
        ],
        ids=["matrix", "empty", "not-square", "4d", "mixed-dims"],
    )
    def test_rejects_blocks_that_are_not_a_stack(self, blocks):
        with pytest.raises(DimensionMismatchError, match="blocks must form an \\(N, d, d\\) stack"):
            feedback_unitary(blocks)


DRAWS = {
    "bare": random_bare_model,
    "efficient": random_efficient_model,
    "inefficient": random_inefficient_model,
}


def cycle_inputs(dim, n, temperature, kind="bare"):
    """ρ, the model, the controlled feedback unitary and the kept outcomes of one
    controller cycle, as run_controller_cycle forms them, on a seeded model of the
    given kind with n outcomes or, for n = 0, a weak one."""
    rng = np.random.default_rng([dim, n])
    h = random_hamiltonian(dim, rng)
    if n:
        model = DRAWS[kind](dim, n, rng)
    else:
        g = random_hermitian(dim, rng)
        strength = float(rng.uniform(1e-3, 0.5))
        model = MeasurementModel.weak(g / np.abs(np.linalg.eigvalsh(g)).max(), strength)
    step = plan_branches(h, temperature, model)
    blocks = np.tile(np.eye(dim, dtype=complex), (model.n_outcomes, 1, 1))
    blocks[step.plan.outcomes] = step.plan.basis_unitaries
    return step.rho, model, feedback_unitary(blocks), [r.n for r in step.outcomes]


CYCLE_CASES = [
    pytest.param(dim, n, t, "bare", id=f"dim{dim}-{f'bare{n}' if n else 'weak'}-T{t:g}")
    for dim in (2, 3, 4, 6, 8)
    for n in (2, 3, 4, 0)
    for t in (1e-3, 1.0, 2.0)
] + [
    pytest.param(dim, n, t, kind, id=f"dim{dim}-{kind}{n}-T{t:g}")
    for kind in ("efficient", "inefficient")
    for dim in (2, 3, 6)
    for n in (1, 3)
    for t in (1e-3, 1.0)
]


class TestJointsWithoutAnEig:
    """The correlated joint V ρ V† and the rotated joint U J U† are PSD for any V and
    U, so they are stored as they stand, with no eig."""

    @pytest.mark.parametrize("n", [4, 0], ids=["bare", "weak"])
    def test_no_eig_call(self, eig_calls, n):
        rho, model, u, _ = cycle_inputs(8, n, 1.0)
        eig_calls.clear()
        apply_joint_unitary(correlate(rho, model), u)
        assert len(eig_calls) == 0

    @pytest.mark.parametrize("dim, n, temperature, kind", CYCLE_CASES)
    def test_every_joint_is_psd(self, dim, n, temperature, kind):
        rho, model, u, kept = cycle_inputs(dim, n, temperature, kind)
        correlated = correlate(rho, model)
        rotated = apply_joint_unitary(correlated, u)
        decohered, branches = decohere_controller(rotated, kept)
        final = finalize_branches(decohered, rho, branches)
        for joint in (correlated, rotated, decohered, final):
            assert np.linalg.eigvalsh(joint.matrix.matrix).min() >= -1e-12

    @pytest.mark.parametrize("dim, n, temperature, kind", CYCLE_CASES)
    def test_branches_match_the_eig_checked_path(self, dim, n, temperature, kind):
        rho, model, u, kept = cycle_inputs(dim, n, temperature, kind)
        joint, branches = decohere_controller(apply_joint_unitary(correlate(rho, model), u), kept)
        checked, expected = decohere_controller(eig_checked_joint(rho, model, u), kept)
        assert max_abs(joint.probabilities() - checked.probabilities()) <= 1e-12
        assert branches.outcomes.tolist() == expected.outcomes.tolist() == sorted(kept)
        for s_n, s_checked in zip(branches.entropies, expected.entropies):
            assert s_n == pytest.approx(s_checked, abs=1e-12)

    def test_trace_changing_unitary_raises(self):
        rho, model, _, _ = cycle_inputs(3, 2, 1.0)
        joint = correlate(rho, model)
        with pytest.raises(InvalidStateError, match="trace"):
            apply_joint_unitary(joint, 1.01 * np.eye(joint.matrix.dim, dtype=complex))

    @pytest.mark.parametrize("n", [3, 0], ids=["bare", "weak"])
    def test_entropy_takes_the_eig_on_first_use(self, n):
        rho, model, u, _ = cycle_inputs(4, n, 1.0)
        correlated = correlate(rho, model)
        for joint in (correlated, apply_joint_unitary(correlated, u)):
            assert "eig" not in joint.matrix.__dict__
            # an isometry and a unitary keep the spectrum, and so S(ρ)
            assert von_neumann_entropy(joint.matrix) == pytest.approx(
                von_neumann_entropy(rho), abs=1e-12
            )
            assert "eig" in joint.matrix.__dict__


class TestDecohere:
    def test_block_diagonal_unchanged(self):
        joint = correlate(
            maximally_mixed(2), MeasurementModel.bare([PROJ_0, PROJ_1])
        )
        out, _ = decohere_controller(joint)
        assert max_abs(out.matrix.matrix - joint.matrix.matrix) < 1e-14

    def test_kills_exactly_the_off_diagonal_blocks(self):
        model = MeasurementModel.weak(PAULI_Z, 0.5)
        joint = correlate(maximally_mixed(2), model)
        out, _ = decohere_controller(joint)
        assert max_abs(out.blocks()[0, :, 1, :]) == 0.0
        assert max_abs(out.blocks()[0, :, 0, :] - joint.blocks()[0, :, 0, :]) < 1e-14

    def test_idempotent(self):
        model = MeasurementModel.weak(PAULI_Z, 0.3)
        joint = correlate(thermal_state(H2LEVEL, 1.0), model)
        once, _ = decohere_controller(joint)
        twice, _ = decohere_controller(once)
        # trace renormalization inside the state constructor costs one ulp
        assert max_abs(once.matrix.matrix - twice.matrix.matrix) < 1e-14

    def test_ancilla_construction_agrees(self, rng):
        # the pinching map and the explicit entangle-and-trace construction
        # are the same channel
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            model = random_bare_model(dim, int(rng.integers(2, 4)), rng)
            joint = correlate(thermal_state(random_hamiltonian(dim, rng), 1.0), model)
            fast, _ = decohere_controller(joint)
            explicit = decohere_via_ancilla(joint)
            assert max_abs(fast.matrix.matrix - explicit.matrix.matrix) < 1e-12

    def test_entropy_never_decreases(self, rng):
        for _ in range(10):
            model = random_bare_model(2, 2, rng)
            joint = correlate(thermal_state(H2LEVEL, 1.0), model)
            before = von_neumann_entropy(joint.matrix)
            after = von_neumann_entropy(decohere_controller(joint)[0].matrix)
            assert after >= before - 1e-10


def seeded_joints():
    """Rotated joints of seeded bare and weak models, dims 2-8, N 2-4, with the thermal state."""
    rng = np.random.default_rng(1414)
    cases = []
    for dim in (2, 3, 4, 6, 8):
        for n in (2, 3, 4):
            models = [random_bare_model(dim, n, rng)]
            if n == 2:
                g = random_hermitian(dim, rng)
                models.append(MeasurementModel.weak(g / np.abs(np.linalg.eigvalsh(g)).max(), 0.3))
            for model in models:
                rho = thermal_state(random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0)))
                u = feedback_unitary([random_unitary(dim, rng) for _ in range(model.n_outcomes)])
                cases.append((apply_joint_unitary(correlate(rho, model), u), rho))
    return cases


def block_diagonal_joint(blocks):
    """A joint with the given diagonal blocks, stored as is (no state checks)."""
    d = blocks[0].shape[0]
    m = np.zeros((len(blocks) * d, len(blocks) * d), dtype=complex)
    for n, block in enumerate(blocks):
        m[n * d : (n + 1) * d, n * d : (n + 1) * d] = block
    return JointState(DensityMatrix(read_only(m)), n_outcomes=len(blocks), system_dim=d)


def _edge(*blocks):
    return block_diagonal_joint([np.asarray(b, dtype=complex) for b in blocks])


HALF_MIXED = 0.5 * np.diag([0.7, 0.3])
# (id, joint, kept): round-off blocks kept and dropped, and blocks that fail a check
EDGE_JOINTS = [
    ("negative-round-off", _edge(HALF_MIXED, 0.5 * np.diag([1 + 1e-12, -1e-12])), (0, 1)),
    ("dropped-round-off", _edge(np.diag([0.6, 0.4 - 1e-16]), np.diag([2e-16, -1e-16])), (0,)),
    ("round-off-kept", _edge(np.diag([0.6, 0.4 - 1e-16]), np.diag([2e-16, -1e-16])), (0, 1)),
    ("empty-dropped", _edge(np.diag([0.6, 0.4]), np.zeros((2, 2))), (0,)),
    ("empty-kept", _edge(np.diag([0.6, 0.4]), np.zeros((2, 2))), (0, 1)),
    ("below-floor", _edge(HALF_MIXED, 0.5 * np.diag([1 + 2e-9, -2e-9])), ()),
    ("below-floor-kept", _edge(HALF_MIXED, 0.5 * np.diag([1 + 2e-9, -2e-9])), (0, 1)),
    # branch 1's trace fails before the floor of block 2, which is not kept
    (
        "trace-before-floor",
        _edge(np.diag([0.5, 0.1]), np.diag([-0.1, 0.0]), np.diag([0.5 + 1e-9, -1e-9])),
        (0, 1),
    ),
    ("negative-trace-first", _edge(np.diag([-0.1, 0.0]), np.diag([0.6, 0.5])), (1, 0)),
    # the floor of kept branch 0 is checked only after every kept trace, so branch 1's fails first
    (
        "trace-before-kept-floor",
        _edge(0.5 * np.diag([1 + 2e-9, -2e-9]), np.diag([-0.1, 0.0]), np.diag([0.3, 0.3])),
        (0, 1),
    ),
    # of two kept traces that are not positive, the first is named
    (
        "first-of-two-traces",
        _edge(np.diag([0.6, 0.5]), np.diag([-0.1, 0.0]), np.zeros((2, 2))),
        (0, 1, 2),
    ),
]


class TestBlockSpectra:
    """The decohered and finalized joints take their checks from their blocks, and
    store what a full from_matrix of the same matrix stores."""

    @pytest.mark.parametrize("kept", [(), None], ids=["no-kept", "all-kept"])
    @pytest.mark.parametrize("joint, rho", seeded_joints())
    def test_same_bytes_as_from_matrix(self, joint, rho, kept):
        outcomes = range(joint.n_outcomes)
        decohered, branches = decohere_controller(joint, outcomes if kept is None else kept)
        full = DensityMatrix.from_matrix(pinch_by_slices(joint))
        assert decohered.matrix.matrix.tobytes() == full.matrix.tobytes()
        if kept is not None:  # no branch is read off
            assert branches.outcomes.size == branches.entropies.size == 0
            return

        p = decohered.probabilities()
        assert branches.probabilities.tobytes() == p.tobytes()
        for n, s_n in zip(outcomes, branches.entropies.tolist()):
            state = DensityMatrix.from_matrix(decohered.blocks()[n, :, n, :] / p[n])
            # a kept branch's entropy comes from the eigenvalue-only call
            assert s_n == _nats(np.clip(eigvals_hermitian(state.matrix), 0.0, None))
            assert s_n == pytest.approx(von_neumann_entropy(state), abs=1e-13)

        final = finalize_branches(decohered, rho, branches)
        p = p / p.sum()
        full = DensityMatrix.from_matrix(np.kron(np.diag(p.astype(complex)), rho.matrix))
        assert final.matrix.matrix.tobytes() == full.matrix.tobytes()

    @pytest.mark.parametrize(
        "joint, kept",
        [
            pytest.param(joint, range(joint.n_outcomes), id=f"seeded-{i}")
            for i, (joint, _) in enumerate(seeded_joints()[::3])
        ]
        + [
            pytest.param(
                block_diagonal_joint(
                    [0.5 * np.diag([0.7, 0.3]), 0.5 * np.diag([1.0 + 1e-12, -1e-12])]
                ),
                (0, 1),
                id="negative-round-off-branch",
            ),
            pytest.param(
                block_diagonal_joint([np.diag([0.6, 0.4 - 1e-16]), np.diag([2e-16, -1e-16])]),
                (0,),
                id="dropped-round-off",
            ),
        ],
    )
    def test_one_eig_call_gives_from_matrix_branches(self, eig_calls, eigvals_calls, joint, kept):
        eig_calls.clear()
        _, branches = decohere_controller(joint, kept)
        # one eigenvalue-only call, every block in its stack, and no eigenvectors
        assert (eig_calls, eigvals_calls) == ([], [joint.n_outcomes])
        pinched = JointState(
            DensityMatrix.from_psd(pinch_by_slices(joint)),
            joint.n_outcomes,
            joint.system_dim,
        )
        assert branches.outcomes.tolist() == list(kept)
        for n, p_n, s_n in zip(kept, branches.probabilities.tolist(), branches.entropies.tolist()):
            block = pinched.blocks()[n, :, n, :]
            full = DensityMatrix.from_matrix(block / block.trace().real)
            # p_n and S_n of the branch state from_matrix builds, S_n from its spectrum's bytes
            assert p_n == block.trace().real
            assert s_n == _nats(np.clip(eigvals_hermitian(full.matrix), 0.0, None))

    @pytest.mark.parametrize(
        "joint, kept",
        [
            pytest.param(joint, kept, id=f"seeded-{i}-{'all' if kept else 'none'}")
            for i, (joint, _) in enumerate(seeded_joints())
            for kept in (range(joint.n_outcomes), ())
        ]
        + [pytest.param(joint, kept, id=f"edge-{name}") for name, joint, kept in EDGE_JOINTS],
    )
    def test_matches_the_eigh_oracle(self, joint, kept):
        """The stacked checks and the eigenvalue-only call give the pinched joint and every
        kept p_n of the block-by-block eigh form byte for byte, its entropies to round-off,
        and its error on the first failing block."""
        try:
            expected, reference = decohere_controller_reference(joint, kept)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                decohere_controller(joint, kept)
            assert str(raised.value) == str(exc)
            return
        out, branches = decohere_controller(joint, kept)
        assert out.matrix.matrix.tobytes() == expected.matrix.matrix.tobytes()
        assert branches.outcomes.tolist() == reference.outcomes.tolist()
        assert branches.probabilities.tobytes() == reference.probabilities.tobytes()
        for s_n, s_reference in zip(branches.entropies.tolist(), reference.entropies.tolist()):
            assert s_n == pytest.approx(s_reference, abs=1e-13)

    def test_probabilities_are_the_block_traces(self):
        rng = np.random.default_rng(3000)
        for _ in range(3000):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 10))
            g = ginibre(n * d, rng) * 10.0 ** rng.uniform(-20.0, 0.0, (n * d, n * d))
            joint = JointState(DensityMatrix(read_only(g @ dagger(g))), n, d)
            per_block = [float(np.trace(joint.blocks()[k, :, k, :]).real) for k in range(n)]
            assert joint.probabilities().tobytes() == np.array(per_block).tobytes()

    @pytest.mark.parametrize("bad", [2, 5, -1])
    def test_out_of_range_controller_index_raises(self, bad):
        joint = block_diagonal_joint([np.diag([0.3, 0.2]).astype(complex)] * 2)
        message = f"controller index {bad} is outside 0…1"
        with pytest.raises(ArgumentRangeError, match=message):
            decohere_controller(joint, [0, bad])

    @pytest.mark.parametrize("kept", [(), (0, 1)])
    def test_block_below_the_tolerance_raises(self, kept):
        bad = 0.5 * np.diag([1.0 + 2e-9, -2e-9]).astype(complex)  # eigenvalue -1e-9
        joint = block_diagonal_joint([0.5 * np.diag([0.7, 0.3]).astype(complex), bad])
        with pytest.raises(InvalidStateError, match="branch 1"):
            decohere_controller(joint, kept)

    @pytest.mark.parametrize("kept", [(), (0, 1)])
    def test_negative_round_off_block_stays_as_it_stands(self, kept):
        # an eigenvalue in [-STATE_TOL, 0) is round-off: the joint keeps it, and the
        # branch entropy reads it as 0
        block = 0.5 * np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
        joint = block_diagonal_joint([0.5 * np.diag([0.7, 0.3]).astype(complex), block])
        out, branches = decohere_controller(joint, kept)
        assert out.matrix.matrix.tobytes() == joint.matrix.matrix.tobytes()
        assert branches.outcomes.tolist() == list(kept)
        if kept:
            s_0, s_1 = branches.entropies
            assert s_0 == pytest.approx(-(0.7 * math.log(0.7) + 0.3 * math.log(0.3)))
            assert s_1 == 0.0

    def test_dropped_round_off_block_is_not_a_branch(self):
        # a block of trace 1e-16 whose spectrum is round-off: over its own trace
        # it has an eigenvalue of -1, yet as a block it is within the floor
        noise = np.diag([2e-16, -1e-16]).astype(complex)
        joint = block_diagonal_joint([np.diag([0.6, 0.4 - 1e-16]).astype(complex), noise])
        out, branches = decohere_controller(joint, [0])
        assert out.blocks()[1, :, 1, :].tobytes() == noise.tobytes()
        assert branches.outcomes.tolist() == [0]
        assert branches.entropies[0] == pytest.approx(
            -(0.6 * math.log(0.6) + 0.4 * math.log(0.4)), abs=1e-15
        )
        with pytest.raises(InvalidStateError, match="branch 1"):
            decohere_controller(joint, [0, 1])  # as a branch, its trace divides the noise up

    def test_empty_block_has_no_branch(self):
        empty = np.zeros((2, 2), complex)
        joint = block_diagonal_joint([np.diag([0.6, 0.4]).astype(complex), empty])
        out, branches = decohere_controller(joint, [0])
        assert branches.outcomes.tolist() == [0]
        with pytest.raises(InvalidStateError, match="branch 1"):
            decohere_controller(joint, [0, 1])  # as a branch, its trace is 0
        full = DensityMatrix.from_matrix(joint.matrix.matrix)
        assert out.matrix.matrix.tobytes() == full.matrix.tobytes()


class TestBlockLayout:
    """Row n·d + i of a joint is controller state n, system state i: the marginals,
    the controlled unitary and the pinch match forms written without the joint's
    (N, d, N, d) view, byte for byte."""

    @pytest.mark.parametrize(
        "joint",
        [pytest.param(joint, id=f"seeded-{i}") for i, (joint, _) in enumerate(seeded_joints())],
    )
    def test_same_bytes_as_slice_and_einsum_forms(self, joint):
        n, d = joint.n_outcomes, joint.system_dim
        r = np.array(joint.matrix.matrix).reshape(n, d, n, d)
        controller = DensityMatrix.from_psd(np.einsum("abcb->ac", r), "controller marginal")
        system = DensityMatrix.from_psd(np.einsum("abad->bd", r), "system marginal")
        assert joint.controller_state().matrix.tobytes() == controller.matrix.tobytes()
        assert joint.system_state().matrix.tobytes() == system.matrix.tobytes()

        rng = np.random.default_rng([n, d])
        blocks = np.stack([random_unitary(d, rng) for _ in range(n)])
        expected = np.zeros((n * d, n * d), dtype=complex)
        for k in range(n):
            expected[k * d : (k + 1) * d, k * d : (k + 1) * d] = blocks[k]
        assert feedback_unitary(blocks).tobytes() == expected.tobytes()

        pinched = DensityMatrix.from_psd(pinch_by_slices(joint), "decohered joint")
        assert decohere_controller(joint)[0].matrix.matrix.tobytes() == pinched.matrix.tobytes()

    def test_marginals_of_a_product_joint(self, rng):
        # dims 2 and 3, so a marginal over the wrong factor has the wrong shape
        a = thermal_state(random_hamiltonian(2, rng), 1.0)
        b = thermal_state(random_hamiltonian(3, rng), 1.0)
        joint = JointState(DensityMatrix(read_only(np.kron(a.matrix, b.matrix))), 2, 3)
        np.testing.assert_allclose(joint.controller_state().matrix, a.matrix, atol=1e-12)
        np.testing.assert_allclose(joint.system_state().matrix, b.matrix, atol=1e-12)

    def test_joint_of_the_wrong_dim_raises(self):
        with pytest.raises(DimensionMismatchError, match="joint dim 5 != 2\\*2"):
            JointState(DensityMatrix(read_only(np.eye(5) / 5.0)), n_outcomes=2, system_dim=2)


class TestFinalizeAndLedger:
    def _decohered_xbasis_joint(self):
        rho = thermal_state(H2LEVEL, 1.0)
        e = average_energy(rho, H2LEVEL)
        model = MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS])
        joint = correlate(rho, model)
        records = apply(model, rho, H2LEVEL)
        from qfeedback.feedback import plan_feedback

        plan = plan_feedback(records, H2LEVEL, 1.0, e_initial=e)
        joint = apply_joint_unitary(joint, feedback_unitary(plan.basis_unitaries))
        return *decohere_controller(joint, [0, 1]), rho

    def test_factorization(self):
        joint, branches, rho = self._decohered_xbasis_joint()
        s = von_neumann_entropy(rho)
        final = finalize_branches(joint, rho, branches)
        factored = np.kron(final.controller_state().matrix, rho.matrix)
        assert max_abs(final.matrix.matrix - factored) < 1e-8
        # branches were pure, so each bath branch lost the full thermal entropy
        for value in branches.entropies - s:
            assert value == pytest.approx(-s, abs=1e-6)

    def test_szilard_branches(self):
        rho = maximally_mixed(2)
        model = MeasurementModel.bare([PROJ_0, PROJ_1])
        joint, branches = decohere_controller(correlate(rho, model), [0, 1])
        final = finalize_branches(joint, thermal_state(Hamiltonian.zero(2), 1.0), branches)
        np.testing.assert_allclose(
            final.controller_state().matrix, np.eye(2) / 2.0, atol=1e-12
        )
        for value in branches.entropies - LN2:
            assert value == pytest.approx(-LN2, abs=1e-9)

    def test_total_entropy_literal_vs_assembled(self):
        joint, branches, rho = self._decohered_xbasis_joint()
        s = von_neumann_entropy(rho)
        final = finalize_branches(joint, rho, branches)
        p = final.probabilities()
        branch_s = [0.0, 0.0]  # x-projector outcomes are pure
        literal = total_entropy(p, branch_s)
        assert literal == pytest.approx(LN2, abs=1e-6)
        # reading the same number off the assembled final structure: record
        # entropy + classically correlated bath entropies + thermal system
        assembled = total_entropy_assembled(final, branches.entropies - s)
        assert assembled == pytest.approx(literal, abs=1e-6)

    def test_total_entropy_single_outcome(self):
        assert total_entropy([1.0], [0.7], 2.0) == pytest.approx(2.7, abs=1e-12)
        assert total_entropy([0.5, 0.5], [0.0, 0.0], 0.0) == pytest.approx(LN2, abs=1e-12)

    def test_second_law_verdicts(self):
        report = second_law_verdict([0.5, 0.5], LN2)
        assert report.verdict and report.efficiency_flag
        assert report.delta_s_tot == pytest.approx(0.0, abs=1e-12)
        report = second_law_verdict([0.5, 0.5], 0.582203)
        assert report.verdict and not report.efficiency_flag
        report = second_law_verdict([1.0], 0.0)
        assert report.verdict and report.efficiency_flag
        # the reset channel's bill: a failing cycle is never efficient
        report = second_law_verdict([1.0], 0.582203)
        assert report.delta_s_tot == pytest.approx(-0.582203, abs=1e-12)
        assert not report.verdict and not report.efficiency_flag

    @pytest.mark.parametrize(
        "delta_s_tot, verdict, efficient",
        [
            (2 * SECOND_LAW_TOL, False, False),
            (SECOND_LAW_TOL, True, True),
            (EFFICIENCY_TOL, True, False),
        ],
    )
    def test_second_law_rule_edges(self, delta_s_tot, verdict, efficient):
        assert judge_second_law(delta_s_tot) == (verdict, efficient)

    def test_reset_controller(self):
        controller = maximally_mixed(2)
        reset, record_entropy = reset_controller(controller)
        assert von_neumann_entropy(reset) < 1e-12
        assert record_entropy == pytest.approx(LN2, abs=1e-12)

    def test_reset_requires_diagonal(self):
        coherent = DensityMatrix.from_vector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        with pytest.raises(InvalidStateError):
            reset_controller(coherent)

    @pytest.mark.parametrize(
        "m", [[[0.5, np.nan], [np.nan, 0.5]], [[np.nan, 0.0], [0.0, 0.5]]], ids=["off", "on"]
    )
    def test_reset_refuses_a_nan_controller(self, m):
        """A NaN entry, off the diagonal or on it, is not a record-basis controller."""
        with pytest.raises(InvalidStateError, match="diagonal in the record basis"):
            reset_controller(DensityMatrix(np.array(m, dtype=complex)))


class TestFullCycle:
    @pytest.mark.parametrize("dim, n", [(2, 2), (3, 3), (4, 4)])
    def test_one_cycle_traces_the_blocks_once(self, monkeypatch, rng, dim, n):
        """decohere_controller takes every p_n in one stacked trace, and the cycle and
        finalize_branches read them from the branches it returns."""
        traced = []

        def counting(joint, _original=JointState.probabilities):
            traced.append(joint.n_outcomes)
            return _original(joint)

        monkeypatch.setattr(JointState, "probabilities", counting)
        run_controller_cycle(random_hamiltonian(dim, rng), 1.0, random_bare_model(dim, n, rng))
        assert traced == [n]

    def test_xbasis_matches_measurement_picture(self):
        from qfeedback.feedback import run_cycle

        model = MeasurementModel.bare([PROJ_X_PLUS, PROJ_X_MINUS])
        ledger = run_cycle(H2LEVEL, 1.0, model)
        result = run_controller_cycle(H2LEVEL, 1.0, model)
        assert result.delta_s_meas == pytest.approx(ledger.delta_s_meas, abs=1e-9)
        assert result.delta_e_meas == pytest.approx(ledger.delta_e_meas, abs=1e-9)
        assert result.report.delta_s_tot == pytest.approx(ledger.delta_s_tot, abs=1e-9)

    def test_closed_loop_and_bath_gain(self, rng):
        for _ in range(15):
            dim = int(rng.integers(2, 4))
            h = random_hamiltonian(dim, rng)
            model = random_bare_model(dim, int(rng.integers(2, 4)), rng)
            result = run_controller_cycle(h, 1.0, model)
            # controller and system return home; bath absorbs exactly dS_tot
            assert result.system_closure < 1e-8
            assert result.controller_closure < 1e-8
            assert result.bath_entropy_increase == pytest.approx(
                result.report.delta_s_tot, abs=1e-8
            )
            assert result.report.verdict

    def test_branches_are_the_outcomes_apply_keeps(self, rng, monkeypatch):
        # the drop floor at each outcome's probability, and one ulp either side:
        # the controller must keep exactly the same outcomes as `apply`
        for i in range(16):
            dim = int(rng.integers(2, 5))
            h = random_hamiltonian(dim, rng)
            if i % 2:
                generator = random_hermitian(dim, rng)
                generator /= np.abs(eig_hermitian(generator).eigenvalues).max()
                model = MeasurementModel.weak(generator, float(rng.uniform(0.1, 0.9)))
            else:
                model = random_bare_model(dim, int(rng.integers(2, 5)), rng)
            rho = thermal_state(h, 1.0)
            e0, s0 = average_energy(rho, h), von_neumann_entropy(rho)
            for (a,) in model.groups:
                p = float(np.trace(a @ rho.matrix @ dagger(a)).real)
                for floor in (np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)):
                    monkeypatch.setattr(measurement, "P_FLOOR", floor)
                    try:
                        records = apply(model, rho, h)
                    except DegenerateStateError:
                        with pytest.raises(DegenerateStateError):
                            run_controller_cycle(h, 1.0, model)
                        continue
                    result = run_controller_cycle(h, 1.0, model)
                    assert len(result.probabilities) == len(records)
                    np.testing.assert_allclose(
                        result.probabilities, records.probabilities, atol=1e-12
                    )
                    assert result.delta_e_meas == measurement_energy_cost(records, e0)
                    entropies = [r.entropy for r in records]
                    assert result.delta_s_meas == pytest.approx(
                        entropy_reduction(records.probabilities, entropies, s0),
                        abs=1e-9,
                    )

    def test_ground_projector_at_low_temperature(self):
        # at T = 1e-3 the thermal state is |g⟩⟨g| up to round-off: the outcome
        # I - |g⟩⟨g| is dropped, and its joint block holds only that round-off
        from qfeedback.feedback import run_cycle

        rng = np.random.default_rng(2718)
        for _ in range(200):
            h = random_hamiltonian(2, rng)
            g = h.eig.eigenvectors[:, -1]
            ground = np.outer(g, g.conj())
            model = MeasurementModel.bare([np.eye(2) - ground, ground])
            result = run_controller_cycle(h, 1e-3, model)
            ledger = run_cycle(h, 1e-3, model)
            assert result.probabilities.tolist() == [1.0]
            assert result.delta_s_meas == pytest.approx(ledger.delta_s_meas, abs=1e-12)
            assert result.system_closure < 1e-12 and result.controller_closure == 0.0

    @pytest.mark.parametrize("kind", ["efficient", "inefficient"])
    def test_general_kraus_models_match_the_measurement_picture(self, kind):
        """Every kind runs in the controller picture: p_n, ΔS_meas, W_fb and ΔS_tot of a
        general Kraus model match run_cycle's, the closures vanish and the bath gains
        ΔS_tot, the Kraus index j traced out of the joint."""
        rng = np.random.default_rng(8080 + (kind == "inefficient"))
        draw = random_efficient_model if kind == "efficient" else random_inefficient_model
        worst = 0.0
        for _ in range(60):
            dim, n = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            h, model = random_hamiltonian(dim, rng), draw(dim, n, rng)
            temperature = float(10.0 ** rng.uniform(-1.0, 0.5))
            result = run_controller_cycle(h, temperature, model)
            ledger = run_cycle(h, temperature, model)
            p_cycle = [o.probability for o in ledger.outcomes]
            assert len(result.probabilities) == len(p_cycle)
            worst = max(
                worst,
                max_abs(result.probabilities - p_cycle),
                abs(result.delta_s_meas - ledger.delta_s_meas),
                abs(result.work_fb - ledger.work_fb),
                abs(result.report.delta_s_tot - ledger.report.delta_s_tot),
            )
            assert result.delta_e_meas == ledger.delta_e_meas
            assert result.system_closure < 1e-8 and result.controller_closure < 1e-8
            assert abs(result.bath_entropy_increase - result.report.delta_s_tot) < 1e-9
        assert worst < 1e-9

    def test_energy_measurement_is_efficient(self):
        result = run_controller_cycle(H2LEVEL, 1.0, MeasurementModel.bare([PROJ_0, PROJ_1]))
        assert result.report.efficiency_flag
        assert abs(result.delta_e_meas) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_universe_ledger_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 4))
    model = random_bare_model(dim, int(rng.integers(2, 4)), rng)
    h = random_hamiltonian(dim, rng)
    result = run_controller_cycle(h, 1.0, model)
    # Nielsen: the record entropy pays for the extracted order
    assert result.report.delta_s_tot >= -1e-9
    assert result.report.shannon_outcomes >= result.delta_s_meas - 1e-9
