#!/usr/bin/env python3
"""Stress the ledger identities over randomly generated measurement models.

Draws seeded random efficient models across dimensions and outcome counts,
runs the closed cycle and a transform variant on each, and reports the worst
residuals of

    work_fb - kT*dS_meas            (closed cycle)
    work_fb - (dF + kT*dS_meas)     (transform)
    closure distance from the thermal state
    dS_tot   (second-law floor)

A clean run prints residuals at the 1e-10 scale or below and exits 0; it exits
1, naming each breach, when a residual or closure distance reaches
IDENTITY_TOL or dS_tot falls below -SECOND_LAW_FLOOR (the acceptance-gate
tolerances).
"""

import argparse
import sys

import numpy as np

from qfeedback import run_cycle, run_transform
from qfeedback.sampling import random_efficient_model, random_hamiltonian

IDENTITY_TOL = 1e-8  # work identities and closure distance
SECOND_LAW_FLOOR = 1e-9  # dS_tot >= -SECOND_LAW_FLOOR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--temperature", type=float, default=1.0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    worst_cycle = worst_transform = worst_closure = 0.0
    min_ds_tot = np.inf
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

        result = run_transform(h1, h2, args.temperature, model)
        worst_transform = max(
            worst_transform,
            abs(result.work_fb - (result.delta_f + args.temperature * result.ledger.delta_s_meas)),
        )

    print(f"models: {args.models} (dims 2-4, 2-4 outcomes), seed {args.seed}")
    print(f"worst |work_fb - T*dS_meas|        : {worst_cycle:.3e}")
    print(f"worst |work_fb - (dF + T*dS_meas)| : {worst_transform:.3e}")
    print(f"worst cycle closure distance       : {worst_closure:.3e}")
    print(f"min dS_tot (second-law floor)      : {min_ds_tot:.3e}")

    # written as "not within" so that a NaN reading is a breach too
    breaches = [
        name
        for name, within in (
            ("cycle work identity", worst_cycle < IDENTITY_TOL),
            ("transform work identity", worst_transform < IDENTITY_TOL),
            ("closure distance", worst_closure < IDENTITY_TOL),
            ("second-law floor", min_ds_tot >= -SECOND_LAW_FLOOR),
        )
        if not within
    ]
    for name in breaches:
        print(f"BREACH: {name}", file=sys.stderr)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
