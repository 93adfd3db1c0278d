#!/usr/bin/env python3
"""Scaling study for weak measurements: how fast does the per-step entropy
harvest vanish as the measurement strength goes to zero?

For a two-outcome weak measurement of strength eps on a maximally mixed
qubit the record entropy stays at ln 2 while delta_S_meas falls off as
eps^2/2, which is why a continuous-feedback engine pays an unbounded
record-entropy bill per unit of extracted work.  The table below shows the
ratio delta_S_meas/eps^2 walking toward 1/2.
"""

import argparse

import numpy as np

from qfeedback import Hamiltonian, MeasurementModel, run_cycle


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epsilons", default="0.4,0.2,0.1,0.05,0.025,0.0125",
                        help="comma-separated strengths to scan")
    parser.add_argument("--temperature", type=float, default=1.0)
    args = parser.parse_args()

    h = Hamiltonian.zero(2)
    z = np.diag([1.0, -1.0]).astype(complex)
    print(f"{'eps':>8} {'dS_meas':>14} {'work_fb':>14} {'dS_meas/eps^2':>14} {'S(p)':>10}")
    for text in args.epsilons.split(","):
        eps = float(text)
        ledger = run_cycle(h, args.temperature, MeasurementModel.weak(z, eps))
        ratio = ledger.delta_s_meas / eps**2
        print(f"{eps:>8g} {ledger.delta_s_meas:>14.6e} {ledger.work_fb:>14.6e} "
              f"{ratio:>14.9f} {ledger.report.shannon_outcomes:>10.6f}")
    print("\nlimit of dS_meas/eps^2 is 1/2 (Taylor expansion of the binary entropy)")


if __name__ == "__main__":
    main()
