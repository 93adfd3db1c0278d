"""Ledgers are bit-identical whatever number of threads the BLAS/LAPACK
library runs with.  Run as a script, this file prints the float-hex ledgers
of seeded cycle and controller runs, one model per line."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import qfeedback
from qfeedback.controller import run_controller_cycle
from qfeedback.feedback import run_cycle
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian

DIMS = (2, 3, 4, 6, 8, 12, 16)


def hexed(value):
    """Every float of a ledger, nested dataclasses and arrays included, as hex."""
    if dataclasses.is_dataclass(value):
        return [hexed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return hexed(value.tolist())
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


def ledger_lines() -> list[str]:
    rng = np.random.default_rng(6)
    lines = []
    for dim in DIMS:
        for n in (2, 3, 4):
            h = random_hamiltonian(dim, rng)
            temperature = float(rng.uniform(0.5, 2.0))
            cycle = run_cycle(h, temperature, random_efficient_model(dim, n, rng))
            controller = run_controller_cycle(h, temperature, random_bare_model(dim, n, rng))
            lines.append(f"cycle dim={dim} n={n} {hexed(cycle)}")
            lines.append(f"controller dim={dim} n={n} {hexed(controller)}")
    return lines


def ledgers_with_threads(threads: int) -> str:
    src = str(Path(qfeedback.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_ledgers_identical_under_one_and_two_blas_threads():
    one = ledgers_with_threads(1)
    two = ledgers_with_threads(2)
    assert one.count("\n") == 2 * 3 * len(DIMS)
    assert one == two


if __name__ == "__main__":
    print("\n".join(ledger_lines()))
