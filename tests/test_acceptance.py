"""End-to-end acceptance gates for the feedback-control simulator.

Each test covers one gate and prints exactly one PASS/FAIL line with the
measured numbers, so a plain ``pytest -s tests/test_acceptance.py`` reads as a
checklist.  Gates that need an ensemble share one cached 120-member draw of
random efficient models (dims 2-4, 2-4 outcomes) with per-member random
Hamiltonians and temperatures; the build time of that ensemble is what the
runtime budget in gate 2 measures.
"""

import math
import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from qfeedback.cli import load_config, run_scenario
from qfeedback.controller import (
    apply_joint_unitary,
    correlate,
    decohere_controller,
    feedback_unitary,
    finalize_branches,
    run_controller_cycle,
)
from qfeedback.feedback import (
    plan_feedback,
    quasi_static_work,
    run_continuous,
    run_cycle,
    run_transform,
)
from qfeedback.linalg import (
    dagger,
    eig_hermitian,
    matrix_function,
    max_abs,
)
from qfeedback.measurement import (
    MeasurementModel,
    apply,
    entropy_reduction,
    measurement_energy_cost,
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
    average_energy,
    thermal_state,
    trace_distance,
    von_neumann_entropy,
)

from conftest import random_inefficient_model
from oracles import branch_max_work_reference, polar_decompose

LN2 = math.log(2.0)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def verdict(number: int, ok: bool, label: str, detail: str):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {label} ({detail})"
    print(line)
    assert ok, line


@lru_cache(maxsize=1)
def efficient_ensemble():
    """120 seeded efficient models with cycle and transform runs attached.

    Returns (members, build_seconds); the timing covers every run, so the
    gate-2 budget holds no matter which gate triggers the build.
    """
    rng = np.random.default_rng(973)
    start = time.perf_counter()
    members = []
    for _ in range(120):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        h2 = random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.5, 2.0))
        model = random_efficient_model(dim, n_out, rng)
        members.append(
            SimpleNamespace(
                h=h,
                h2=h2,
                temperature=temperature,
                model=model,
                cycle=run_cycle(h, temperature, model),
                transform=run_transform(h, h2, temperature, model),
            )
        )
    return members, time.perf_counter() - start


def diagonal_bare_model(dim: int, n_out: int, rng) -> MeasurementModel:
    """Smooth diagonal positive operators, Σ P_n² = I; commutes with any
    diagonal Hamiltonian."""
    weights = rng.uniform(0.1, 1.0, size=(n_out, dim))
    weights = weights / np.sqrt((weights**2).sum(axis=0))
    return MeasurementModel.bare([np.diag(w.astype(complex)) for w in weights])


def partition_projector_model(dim: int, rng) -> MeasurementModel:
    """Projectors onto a random partition of the standard basis."""
    n_groups = int(rng.integers(2, dim + 1))
    order = rng.permutation(dim)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_groups - 1, replace=False))
    groups = np.split(order, cuts)
    ops = []
    for group in groups:
        p = np.zeros((dim, dim), dtype=complex)
        for i in group:
            p[i, i] = 1.0
        ops.append(p)
    return MeasurementModel.bare(ops)


def test_criterion_1_two_level_demon():
    start = time.perf_counter()
    row, _ = run_scenario(load_config("szilard"))
    elapsed = time.perf_counter() - start
    work_err = abs(row.work_fb - LN2)
    ok = work_err < 1e-6 and abs(row.delta_E_meas) < 1e-10 and elapsed < 1.0
    verdict(
        1, ok, "two-level demon extracts ln 2",
        f"|W - ln2| = {work_err:.2e}, |dE_meas| = {abs(row.delta_E_meas):.2e}, "
        f"{elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_bound_saturation_ensemble():
    members, build_s = efficient_ensemble()
    cycle_resid = max(
        abs(m.cycle.work_fb - m.temperature * m.cycle.delta_s_meas) for m in members
    )
    transform_resid = max(
        abs(m.transform.work_fb - (m.transform.delta_f + m.temperature * m.cycle.delta_s_meas))
        for m in members
    )
    ok = cycle_resid < 1e-8 and transform_resid < 1e-8 and build_s < 60.0
    verdict(
        2, ok, f"work identity saturates for {len(members)} efficient models",
        f"cycle resid {cycle_resid:.2e}, transform resid {transform_resid:.2e}, "
        f"built in {build_s:.1f} s",
    )


def test_criterion_3_measurement_energy_cost_sign():
    rng = np.random.default_rng(331)
    worst = math.inf
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.5, 2.0))
        rho = thermal_state(h, temperature)
        records = apply(random_bare_model(dim, n_out, rng), rho, h)
        worst = min(worst, measurement_energy_cost(records, average_energy(rho, h)))
    commuting = 0.0
    for _ in range(60):
        dim = int(rng.integers(2, 5))
        h = Hamiltonian.diagonal(np.sort(rng.normal(size=dim)))
        temperature = float(rng.uniform(0.5, 2.0))
        rho = thermal_state(h, temperature)
        model = diagonal_bare_model(dim, int(rng.integers(2, 5)), rng)
        records = apply(model, rho, h)
        commuting = max(
            commuting, abs(measurement_energy_cost(records, average_energy(rho, h)))
        )
    # negative controls: without either premise, bare operators or a thermal state,
    # the measurement does drain energy
    controls = np.random.default_rng(332)
    not_bare = not_thermal = math.inf
    for i in range(400):
        dim, n_out = int(controls.integers(2, 5)), int(controls.integers(2, 5))
        h = random_hamiltonian(dim, controls)
        temperature = float(controls.uniform(0.5, 2.0))
        if i % 2 == 0:  # an efficient, non-bare model on the thermal state
            rho = thermal_state(h, temperature)
            records = apply(random_efficient_model(dim, n_out, controls), rho, h)
            not_bare = min(not_bare, measurement_energy_cost(records, average_energy(rho, h)))
        else:  # a bare model on the thermal state of another Hamiltonian
            rho = thermal_state(random_hamiltonian(dim, controls), temperature)
            records = apply(random_bare_model(dim, n_out, controls), rho, h)
            not_thermal = min(not_thermal, measurement_energy_cost(records, average_energy(rho, h)))
    ok = worst >= -1e-9 and commuting < 1e-10 and not_bare < -1e-3 and not_thermal < -1e-3
    verdict(
        3, ok, "bare readout never drains a thermal state",
        f"min dE_meas {worst:.2e} over 100, commuting |dE| max {commuting:.2e}; "
        f"controls reach {not_bare:.2e} (not bare), {not_thermal:.2e} (not thermal) over 200 each",
    )


def test_criterion_4_second_law_ledger():
    members, _ = efficient_ensemble()
    s_tot_min = min(
        min(m.cycle.delta_s_tot, m.transform.ledger.delta_s_tot) for m in members
    )
    rng = np.random.default_rng(577)
    commuting_worst = 0.0
    for _ in range(40):
        dim = int(rng.integers(2, 5))
        h = Hamiltonian.diagonal(np.sort(rng.normal(size=dim)))
        temperature = float(rng.uniform(0.5, 2.0))
        ledger = run_cycle(h, temperature, partition_projector_model(dim, rng))
        commuting_worst = max(commuting_worst, abs(ledger.delta_s_tot))
    row, _ = run_scenario(load_config("xbasis-thermal"))
    # closed form for the preset: outcome entropy ln 2 minus the initial
    # thermal entropy of a two-level system with unit gap at T = 1
    z = 1.0 + math.exp(-1.0)
    s_thermal = math.log(z) + math.exp(-1.0) / z
    expected = LN2 - s_thermal
    xbasis_err = abs(row.delta_S_tot - expected)
    ok = (
        s_tot_min >= -1e-9
        and commuting_worst < 1e-8
        and xbasis_err < 1e-6
        and row.delta_S_tot > 1e-4
    )
    verdict(
        4, ok, "universe entropy never decreases",
        f"min dS_tot {s_tot_min:.2e}, commuting max {commuting_worst:.2e}, "
        f"transverse readout {row.delta_S_tot:.6f} vs {expected:.6f}",
    )


def test_criterion_5_cycle_closure():
    members, _ = efficient_ensemble()
    state_worst = max(
        max(m.cycle.closure_distance, m.transform.ledger.closure_distance)
        for m in members
    )
    h_worst = 0.0
    for m in members:
        # recover the level structure from the endpoint thermal state; the
        # log inverts the Gibbs map up to a uniform offset
        final = thermal_state(m.h, m.temperature)
        h_rec = -m.temperature * matrix_function(final.matrix, math.log)
        offset = float(np.trace(h_rec - m.h.matrix).real) / m.h.dim
        h_worst = max(h_worst, max_abs(h_rec - offset * np.eye(m.h.dim) - m.h.matrix))
    ok = state_worst < 1e-8 and h_worst < 1e-8
    verdict(
        5, ok, "every cycle closes on the thermal state and level structure",
        f"state distance max {state_worst:.2e}, level residual max {h_worst:.2e}",
    )


def _controller_residuals(h, temperature, model) -> tuple[float, float, float, float, float]:
    """Gate 6 on one model: the worst joint block against apply's p_n ρ_n, the final
    joint's trace distance from the product of its marginals, the worst entropy-ledger
    gap (bath gain against ΔS_tot, and ΔS_tot against run_cycle's), the worst closure,
    and the gap of W_fb from run_cycle's per unit of max(1, kT): the controller's W_fb
    is summed from the branches it landed from its joint, run_cycle's from apply's."""
    rho_t = thermal_state(h, temperature)
    joint = correlate(rho_t, model)
    records = apply(model, rho_t, h)
    block = max(
        max_abs(joint.blocks()[r.n, :, r.n, :] - r.probability * r.state.matrix) for r in records
    )
    e0 = average_energy(rho_t, h)
    blocks = plan_feedback(records, h, temperature, e_initial=e0).basis_unitaries
    moved = apply_joint_unitary(joint, feedback_unitary(blocks))
    kept = [r.n for r in records]
    decohered, p, _ = decohere_controller(moved, kept)
    final = finalize_branches(decohered, rho_t, kept, p)
    product = DensityMatrix.from_matrix(
        np.kron(final.controller_state().matrix, final.system_state().matrix)
    )
    factor = trace_distance(final.matrix, product)

    result = run_controller_cycle(h, temperature, model)
    reference = run_cycle(h, temperature, model)
    ledger = max(
        abs(result.bath_entropy_increase - result.report.delta_s_tot),
        abs(result.report.delta_s_tot - reference.delta_s_tot),
    )
    work = abs(result.work_fb - reference.work_fb) / max(1.0, temperature)
    return block, factor, ledger, max(result.closure_distance, result.controller_closure), work


def test_criterion_6_controller_equivalence():
    rng = np.random.default_rng(793)
    cases = {"bare and weak": [], "efficient": [], "inefficient": []}
    for i in range(30):
        dim = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.5, 2.0))
        if i % 2:
            b = random_hermitian(dim, rng)
            b = b / max(1e-12, float(np.abs(eig_hermitian(b).eigenvalues).max()))
            model = MeasurementModel.weak(b, float(rng.uniform(0.1, 0.9)))
        else:
            model = random_bare_model(dim, int(rng.integers(2, 5)), rng)
        cases["bare and weak"].append((h, temperature, model))
    members, _ = efficient_ensemble()
    cases["efficient"] = [(m.h, m.temperature, m.model) for m in members]
    rng = np.random.default_rng(794)
    for _ in range(40):
        dim, n_out = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        h, temperature = random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0))
        cases["inefficient"].append((h, temperature, random_inefficient_model(dim, n_out, rng)))

    block_worst, factor_worst, ledger_worst, closure_worst, work_worst = np.max(
        [_controller_residuals(*case) for draws in cases.values() for case in draws], axis=0
    )
    ok = (
        block_worst < 1e-10
        and factor_worst < 1e-8
        and closure_worst < 1e-8
        and ledger_worst < 1e-9
        and work_worst <= 1e-9
    )
    counts = ", ".join(f"{len(draws)} {kind}" for kind, draws in cases.items())
    verdict(
        6, ok, f"isometric controller reproduces the measurement picture ({counts})",
        f"block resid {block_worst:.2e}, factorization {factor_worst:.2e}, "
        f"closure {closure_worst:.2e}, entropy ledger {ledger_worst:.2e}, "
        f"W_fb vs run_cycle {work_worst:.2e} per max(1, kT)",
    )


def test_criterion_7_isothermal_integrator():
    h_start = Hamiltonian.diagonal([0.0, 2.0])
    h_end = Hamiltonian.zero(2)
    exact = math.log(2.0 / (1.0 + math.exp(-2.0)))
    err = lambda n: abs(quasi_static_work(h_start, h_end, 1.0, n) - exact)
    fine = err(10_000)
    ratio = err(1_000) / err(2_000)
    ok = fine < 1e-3 and 1.8 <= ratio <= 2.2
    verdict(
        7, ok, "quasi-static work integrator converges at first order",
        f"error {fine:.2e} at N=1e4, halving ratio {ratio:.3f}",
    )


def test_criterion_8_weak_readout_scaling():
    h = Hamiltonian.zero(2)
    ratio = lambda eps: run_continuous(h, 1.0, MeasurementModel.weak(PAULI_Z, eps), 1).scaling_ratio
    r_coarse = ratio(0.1)
    r_fine = ratio(0.05)
    drift = abs(r_coarse - r_fine) / abs(r_fine)
    limit_err = abs(r_fine - 0.5) / 0.5
    ok = drift < 0.05 and limit_err < 0.05
    verdict(
        8, ok, "information gain scales quadratically in readout strength",
        f"dS/eps^2 = {r_coarse:.4f} vs {r_fine:.4f}, limit error {limit_err:.2%}",
    )


def test_criterion_9_information_discarding_readout():
    row, _ = run_scenario(load_config("inefficient-dephase"))
    identity = abs(row.work_fb - row.T * row.delta_S_meas)
    balance = abs(row.work_total - (row.work_fb + row.delta_E_meas))
    ledger = abs(row.delta_S_tot - (row.shannon_outcomes - row.delta_S_meas))
    ok = (
        row.delta_S_meas < 0.0
        and row.work_fb < 0.0
        and identity < 1e-8
        and balance < 1e-8
        and ledger < 1e-8
        and row.closure_distance < 1e-8
    )
    verdict(
        9, ok, "discarded readout information costs work",
        f"dS_meas = {row.delta_S_meas:.4f}, W_fb = {row.work_fb:.4f}, "
        f"identity resid {identity:.2e}",
    )


def test_criterion_10_kernel_residuals():
    rng = np.random.default_rng(4242)
    eig_worst = 0.0
    ortho_worst = 0.0
    polar_worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        m = random_hermitian(dim, rng)
        dec = eig_hermitian(m)
        v, lam = dec.eigenvectors, dec.eigenvalues
        eig_worst = max(eig_worst, max_abs(m - v @ np.diag(lam.astype(complex)) @ dagger(v)))
        ortho_worst = max(ortho_worst, max_abs(dagger(v) @ v - np.eye(dim)))
        a = ginibre(dim, rng)
        factors = polar_decompose(a)
        polar_worst = max(polar_worst, max_abs(a - factors.unitary @ factors.positive))
    ok = eig_worst < 1e-12 and ortho_worst < 1e-12 and polar_worst < 1e-10
    verdict(
        10, ok, "eigen and polar kernels hit target residuals over 200 draws",
        f"eig {eig_worst:.2e}, orthonormality {ortho_worst:.2e}, polar {polar_worst:.2e}",
    )


def _branch_work_residual(ledger, model, h1, h2, temperature) -> float:
    """Worst |W_n - (F(ρ_n; H1) - F(ρ_T2; H2))| over a ledger's branches, with ρ_n
    from ``apply`` on the same input."""
    records = apply(model, thermal_state(h1, temperature), h1)
    assert [o.n for o in ledger.outcomes] == [r.n for r in records]
    return max(
        abs(work - branch_max_work_reference(r.state.matrix, h1, h2, temperature))
        for work, r in zip(ledger.works.tolist(), records)
    )


def test_criterion_11_each_branch_reaches_its_maximal_work():
    members, _ = efficient_ensemble()
    worst = {"efficient": 0.0, "bare": 0.0, "inefficient": 0.0}
    branches = 0
    for m in members:
        for ledger, h2 in ((m.cycle, m.h), (m.transform.ledger, m.h2)):
            residual = _branch_work_residual(ledger, m.model, m.h, h2, m.temperature)
            worst["efficient"] = max(worst["efficient"], residual)
            branches += len(ledger.outcomes)
    rng = np.random.default_rng(1111)
    for i in range(80):
        kind = ("bare", "inefficient")[i % 2]
        dim, n_out = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        h1, h2 = random_hamiltonian(dim, rng), random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.3, 2.0))
        draw = random_bare_model if kind == "bare" else random_inefficient_model
        model = draw(dim, n_out, rng)
        for ledger, target in (
            (run_cycle(h1, temperature, model), h1),
            (run_transform(h1, h2, temperature, model).ledger, h2),
        ):
            residual = _branch_work_residual(ledger, model, h1, target, temperature)
            worst[kind] = max(worst[kind], residual)
            branches += len(ledger.outcomes)
    ok = max(worst.values()) < 1e-8
    verdict(
        11, ok, f"each of {branches} branches reaches F(rho_n; H1) - F(rho_T2; H2)",
        ", ".join(f"{kind} {value:.2e}" for kind, value in worst.items()),
    )


def test_criterion_12_efficient_readout_adds_no_heat():
    # Groenewold-Lindblad: an efficient measurement never raises the average entropy,
    # Σ p_n S(ρ_n) ≤ S(ρ), on any state, thermal for the measured system's H or not.
    # The controller picture measures the thermal state of the Hamiltonian it is given,
    # so it runs on the Hamiltonian whose Gibbs state ρ is.
    rng = np.random.default_rng(1212)
    worst = controller_worst = math.inf
    for _ in range(400):
        dim, n_out = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        model = random_efficient_model(dim, n_out, rng)
        h = random_hamiltonian(dim, rng)
        # full rank: the thermal state of an independent Hamiltonian
        h_rho, temperature = random_hamiltonian(dim, rng), float(rng.uniform(0.5, 2.0))
        rho = thermal_state(h_rho, temperature)
        records = apply(model, rho, h)
        delta_s = entropy_reduction(
            [r.probability for r in records], [r.entropy for r in records], von_neumann_entropy(rho)
        )
        worst = min(worst, delta_s)
        controller = run_controller_cycle(h_rho, temperature, model)
        controller_worst = min(controller_worst, controller.delta_s_meas)
    ok = worst >= -1e-12 and controller_worst >= -1e-12
    verdict(
        12, ok, "efficient readout never raises the average entropy",
        f"min dS_meas {worst:.2e} (measurement), {controller_worst:.2e} (controller) "
        f"over 400 random states",
    )


def _bare_part(model: MeasurementModel) -> MeasurementModel:
    """The bare model √E_n, E_n = Σ_j A_nj†A_nj, of any model."""
    root = lambda x: math.sqrt(max(x, 0.0))
    return MeasurementModel.bare(
        [matrix_function(sum(dagger(a) @ a for a in group), root) for group in model.groups]
    )


def _polar_gaps(h, temperature, model) -> tuple[float, float]:
    """Gate 13 on one efficient model and its bare part from the polar form
    A_n = U_n √E_n: the worst gap of p_n, S_n, ΔS_meas and W_fb per unit of max(1, kT),
    and the gap of ΔE_meas(A) - ΔE_meas(√E) from Σ p_n (Tr[H U_n σ_n U_n†] - Tr[H σ_n]),
    σ_n = √E_n ρ √E_n / p_n, in the measurement and the controller picture alike."""
    polar = [polar_decompose(a) for (a,) in model.groups]
    bare = MeasurementModel.bare([f.positive for f in polar])
    rho = thermal_state(h, temperature).matrix
    energy_shift = 0.0
    for f in polar:
        sigma = f.positive @ rho @ f.positive
        moved = f.unitary @ sigma @ dagger(f.unitary)
        energy_shift += float(np.trace(h.matrix @ (moved - sigma)).real)
    worst = energy = 0.0
    for run in (run_cycle, run_controller_cycle):
        a, b = run(h, temperature, model), run(h, temperature, bare)
        gaps = [
            max_abs(a.probabilities - b.probabilities),
            max_abs(a.entropies - b.entropies),
            abs(a.delta_s_meas - b.delta_s_meas),
            abs(a.work_fb - b.work_fb),
        ]
        worst = max(worst, max(gaps) / max(1.0, temperature))
        energy = max(energy, abs(a.delta_e_meas - b.delta_e_meas - energy_shift))
    return worst, energy


def test_criterion_13_efficient_is_bare_then_unitary():
    # A_n = U_n √E_n: the bare part √E_n does the measuring, and U_n moves energy but
    # not entropy, so a model and its bare part share p_n, S_n, ΔS_meas and W_fb
    members, _ = efficient_ensemble()
    worst, energy = np.max([_polar_gaps(m.h, m.temperature, m.model) for m in members], axis=0)
    # negative control: an inefficient model is no bare model followed by a unitary
    rng = np.random.default_rng(1313)
    control = []
    for _ in range(100):
        dim, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        h, model = random_hamiltonian(dim, rng), random_inefficient_model(dim, n_out, rng)
        gap = run_cycle(h, 1.0, model).work_fb - run_cycle(h, 1.0, _bare_part(model)).work_fb
        control.append(gap)
    ok = worst < 1e-9 and energy < 1e-9 and max(np.abs(control)) > 1e-3
    verdict(
        13, ok, f"each of {len(members)} efficient models measures as its bare part",
        f"gap {worst:.2e} per max(1, kT), dE_meas shift resid {energy:.2e}, both pictures; "
        f"inefficient control W_fb gaps {min(control):.3f} to {max(control):.3f} over 100",
    )
