#!/usr/bin/env python3
"""Stress the ledger identities over randomly generated measurement models.

Draws seeded random efficient models across dimensions and outcome counts,
runs the closed cycle and a transform variant on each, and reports the worst
residuals of

    work_fb - kT*dS_meas            (closed cycle)
    work_fb - (dF + kT*dS_meas)     (transform)
    closure distance from the thermal state
    dS_tot   (second-law floor)

It then draws as many seeded bare models, and as many seeded weak models
(generator of spectral norm 1, strength in [1e-3, 0.5]), runs the controller
cycle on each, and reports for each kind the worst

    p_n and dS_meas against measurement.apply on the same input
    system and controller closure distances
    bath entropy gain - dS_tot
    dS_tot   (second-law floor)

Last it draws as many seeded models of rank-1 bare projectors, onto a random
basis or, every other model, onto H's eigenbasis, so that every outcome is
pure, and runs both pictures on each.  Feedback is planned on each outcome's
support, so it reports the worst

    |work_fb - T*dS_meas| / max(1, T)   (cycle; round-off only)

and the controller's residuals above.

It also prints how many of the closed cycles (efficient and pure) dropped an
outcome, one whose probability fell below measurement.P_FLOOR: energy-basis
projectors onto high levels give such outcomes at low --temperature.

A clean run prints residuals at the 1e-10 scale or below and exits 0; it exits
1, naming each breach, when a residual or closure distance reaches
IDENTITY_TOL, the bath gain is off dS_tot by BATH_TOL, dS_tot falls below
-SECOND_LAW_FLOOR (the acceptance-gate tolerances) or a pure model's work
identity reaches PURE_TOL.  Energy-basis projectors onto high levels give
outcomes with p_n far below 1 at low --temperature, which every check holds
to the same tolerances.
"""

import argparse
import sys

import numpy as np

from qfeedback import run_controller_cycle, run_cycle, run_transform
from qfeedback.measurement import MeasurementModel, apply
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import thermal_state, von_neumann_entropy

IDENTITY_TOL = 1e-8  # work identities, closure distances, controller vs apply
SECOND_LAW_FLOOR = 1e-9  # dS_tot >= -SECOND_LAW_FLOOR
BATH_TOL = 1e-9  # controller bath entropy gain vs dS_tot
PURE_TOL = 1e-13  # pure models' |work_fb - T*dS_meas|, per unit of max(1, T)
WEAK_STRENGTHS = (1e-3, 0.5)  # range of the weak models' strength


def controller_residuals(cases, temperature):
    """Worst |p_n - apply|, |dS_meas - apply|, closure distance and |bath gain - dS_tot|,
    and the least dS_tot, of the controller cycle over ``(h, model)`` pairs."""
    worst_p = worst_ds_meas = worst_closure = worst_bath = 0.0
    min_ds_tot = np.inf
    for h, model in cases:
        result = run_controller_cycle(h, temperature, model)
        rho = thermal_state(h, temperature)
        outcomes = apply(model, rho, h)
        p_ref = outcomes.probabilities
        s_ref = von_neumann_entropy(rho) - float(np.dot(p_ref, outcomes.entropies))
        p_gap = (
            float(np.max(np.abs(result.probabilities - p_ref)))
            if len(p_ref) == len(result.probabilities)
            else np.inf
        )
        worst_p = max(worst_p, p_gap)
        worst_ds_meas = max(worst_ds_meas, abs(result.delta_s_meas - s_ref))
        worst_closure = max(worst_closure, result.system_closure, result.controller_closure)
        ds_tot = result.report.delta_s_tot
        worst_bath = max(worst_bath, abs(result.bath_entropy_increase - ds_tot))
        min_ds_tot = min(min_ds_tot, ds_tot)
    return worst_p, worst_ds_meas, worst_closure, worst_bath, min_ds_tot


def pure_residuals(cases, temperature):
    """Worst |work_fb - T*dS_meas| / max(1, T) of the cycle over ``(h, model)`` pairs, and
    how many of those cycles dropped an outcome."""
    worst = 0.0
    dropped = 0
    for h, model in cases:
        ledger = run_cycle(h, temperature, model)
        residual = abs(ledger.work_fb - temperature * ledger.delta_s_meas)
        worst = max(worst, residual / max(1.0, temperature))
        dropped += bool(ledger.dropped_outcomes)
    return worst, dropped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--temperature", type=float, default=1.0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    worst_cycle = worst_transform = worst_closure = 0.0
    min_ds_tot = np.inf
    dropped = 0
    for i in range(args.models):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        h1 = random_hamiltonian(dim, rng)
        h2 = random_hamiltonian(dim, rng)
        model = random_efficient_model(dim, n_out, rng)

        ledger = run_cycle(h1, args.temperature, model)
        worst_cycle = max(worst_cycle, abs(ledger.work_fb - args.temperature * ledger.delta_s_meas))
        worst_closure = max(worst_closure, ledger.closure_distance)
        min_ds_tot = min(min_ds_tot, ledger.report.delta_s_tot)
        dropped += bool(ledger.dropped_outcomes)

        result = run_transform(h1, h2, args.temperature, model)
        worst_transform = max(
            worst_transform,
            abs(result.work_fb - (result.delta_f + args.temperature * result.ledger.delta_s_meas)),
        )

    # the controller picture on bare and on weak models, checked against measurement.apply
    bare = []
    for i in range(args.models):
        dim = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 5))
        bare.append((random_hamiltonian(dim, rng), random_bare_model(dim, n_out, rng)))
    weak = []
    for i in range(args.models):
        dim = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        generator = random_hermitian(dim, rng)
        strength = float(rng.uniform(*WEAK_STRENGTHS))
        model = MeasurementModel.weak(generator / np.linalg.norm(generator, 2), strength)
        weak.append((h, model))
    pure = []
    for i in range(args.models):
        dim = int(rng.integers(2, 5))
        h = random_hamiltonian(dim, rng)
        basis = (h if i % 2 else random_hamiltonian(dim, rng)).eig.eigenvectors
        pure.append((h, MeasurementModel.bare([np.outer(v, v.conj()) for v in basis.T])))

    print(f"models: {args.models} (dims 2-4, 2-4 outcomes), seed {args.seed}")
    print(f"worst |work_fb - T*dS_meas|        : {worst_cycle:.3e}")
    print(f"worst |work_fb - (dF + T*dS_meas)| : {worst_transform:.3e}")
    print(f"worst cycle closure distance       : {worst_closure:.3e}")
    print(f"min dS_tot (second-law floor)      : {min_ds_tot:.3e}")
    # written as "not within" so that a NaN reading is a breach too
    checks = [
        ("cycle work identity", worst_cycle < IDENTITY_TOL),
        ("transform work identity", worst_transform < IDENTITY_TOL),
        ("closure distance", worst_closure < IDENTITY_TOL),
        ("second-law floor", min_ds_tot >= -SECOND_LAW_FLOOR),
    ]
    for label, models, cases in (
        ("controller", "bare models (dims 2-4, 2-4 outcomes)", bare),
        ("weak controller", "weak models (dims 2-4, strength 1e-3-0.5)", weak),
        ("pure controller", "rank-1 projector models (dims 2-4)", pure),
    ):
        p_gap, ds_meas_gap, closure, bath_gap, least_ds_tot = controller_residuals(
            cases, args.temperature
        )
        print(f"{label}: {args.models} {models}")
        print(f"worst |p_n - apply|                : {p_gap:.3e}")
        print(f"worst |dS_meas - apply|            : {ds_meas_gap:.3e}")
        print(f"worst controller closure distance  : {closure:.3e}")
        print(f"worst |bath gain - dS_tot|         : {bath_gap:.3e}")
        print(f"min controller dS_tot              : {least_ds_tot:.3e}")
        checks += [
            (f"{label} probabilities", p_gap < IDENTITY_TOL),
            (f"{label} dS_meas", ds_meas_gap < IDENTITY_TOL),
            (f"{label} closure distance", closure < IDENTITY_TOL),
            (f"{label} bath gain", bath_gap < BATH_TOL),
            (f"{label} second-law floor", least_ds_tot >= -SECOND_LAW_FLOOR),
        ]
    pure_gap, pure_dropped = pure_residuals(pure, args.temperature)
    print(f"pure: {args.models} rank-1 projector models (dims 2-4)")
    print(f"worst |work_fb - T*dS_meas|/max(1,T): {pure_gap:.3e}")
    print(f"cycles that dropped an outcome      : {dropped + pure_dropped} of {2 * args.models}")
    checks.append(("pure work identity", pure_gap < PURE_TOL))
    breaches = [name for name, within in checks if not within]
    for name in breaches:
        print(f"BREACH: {name}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
