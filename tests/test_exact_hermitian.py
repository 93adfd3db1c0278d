"""The matrices a cycle hands on with no Hermiticity test are exactly Hermitian.

A cycle runs ``linalg.hermitian_residual`` once on each matrix it is given or forms by
a product (apply's X_n X_n†, U ρ U†, every Hamiltonian and model, and every matrix a
public call takes), and not on the matrices it builds from those by exactly Hermitian
steps:

* ``gibbs_state``'s V diag(w) V†, which ``spectral_matrix`` hermitizes;
* the controller's correlated joint X X†, which ``correlate`` hermitizes: X comes from
  the checked thermal state and the validated model, so no entry can overflow;
* the landing's one eigenvalue-only call over [ρ′, ρ′ − σ]: the landed states, the
  checked rotated states of the measurement picture or the controller's branch states,
  and their differences from the Gibbs states σ of the retuned levels;
* the states ``DensityMatrix._exact`` builds: the cycle's endpoint Σ p_n ρ_T,
  the pinched and the finalized joints and both marginals;
* ``decohere_controller``'s kept blocks over their traces, and its eigenvalue-only call
  on the blocks it drops.

The oracle spies on each unchecked entry, ``thermo._normalized`` from any caller but
``_unit_trace`` and ``linalg._eigvals`` from any caller but ``eigvals_hermitian``, and
holds every matrix that reaches it to what the dropped test would find: residual 0 and
every entry below SAFE_ENTRY_MAX.  Hermitizing such a matrix changes no value; it can
turn a -0.0 component into +0.0 (``np.kron`` leaves -0.0 in the finalized joint
diag(p) ⊗ ρ_T), and no ledger reads those zeros, as the goldens and
``test_determinism.py`` show.
"""

import io
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfeedback import linalg, thermo
from qfeedback.cli import main
from qfeedback.controller import run_controller_cycle
from qfeedback.feedback import run_cycle, run_transform
from qfeedback.linalg import hermitian_residual
from qfeedback.measurement import MeasurementModel
from qfeedback.sampling import (
    random_bare_model,
    random_efficient_model,
    random_hamiltonian,
    random_hermitian,
)
from qfeedback.thermo import Hamiltonian

from conftest import random_inefficient_model, random_unitary
from test_cli import PRESETS

# each unchecked entry, its module, and the checked wrapper whose calls it does not record
UNCHECKED = {"_normalized": (thermo, "_unit_trace"), "_eigvals": (linalg, "eigvals_hermitian")}


def spy_unchecked(monkeypatch) -> list:
    """Records (entry, caller, where, matrix) for every call of an unchecked entry, through
    every qfeedback module that binds it."""
    seen = []
    for attr, (owner, wrapper) in UNCHECKED.items():
        function = getattr(owner, attr)

        def spy(m, *where, _function=function, _attr=attr, _wrapper=wrapper):
            caller = sys._getframe(1).f_code.co_name
            if caller != _wrapper:
                seen.append((_attr, caller, where[0] if where else None, np.array(m)))
            return _function(m, *where)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qfeedback" and getattr(module, attr, None) is function:
                monkeypatch.setattr(module, attr, spy)
    return seen


def assert_exact(seen):
    assert seen
    for entry, caller, where, m in seen:
        residual, hermitized, safe = hermitian_residual(m)
        assert (np.max(residual, initial=0.0), safe) == (0.0, True), (entry, caller, where)
        assert np.array_equal(hermitized, m), (entry, caller, where)


def hamiltonian(kind, dim, rng):
    """A random H, a degenerate diagonal one, or a degenerate one in a random basis."""
    if kind == "random":
        return random_hamiltonian(dim, rng, scale=10.0 ** rng.uniform(-2.0, 2.0))
    levels = np.round(rng.uniform(0.0, 3.0, dim))
    if kind == "diagonal":
        return Hamiltonian.diagonal(levels)
    u = random_unitary(dim, rng)
    return Hamiltonian.from_matrix(u @ np.diag(levels) @ u.conj().T)


def model(kind, dim, n, h, rng):
    if kind == "bare":
        return random_bare_model(dim, n, rng)
    if kind == "efficient":
        return random_efficient_model(dim, n, rng)
    if kind == "inefficient":
        return random_inefficient_model(dim, n, rng)
    if kind == "weak":
        g = random_hermitian(dim, rng)
        strength = rng.uniform(0.01, 0.9)
        return MeasurementModel.weak(g / np.abs(np.linalg.eigvalsh(g)).max(), strength)
    # projectors onto H's eigenbasis, grouped into n outcomes: pure and dropped outcomes
    groups = np.array_split(rng.permutation(dim), min(n, dim))
    basis = h.eig.eigenvectors
    return MeasurementModel.bare([basis[:, g] @ basis[:, g].conj().T for g in groups])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    model_kind=st.sampled_from(["bare", "efficient", "inefficient", "weak", "energy-basis"]),
    h_kind=st.sampled_from(["random", "diagonal", "degenerate"]),
    dim=st.integers(2, 8),
    n=st.integers(2, 4),
    log_kt=st.floats(-3.0, 3.0),
)
def test_unchecked_matrices_are_exactly_hermitian(seed, model_kind, h_kind, dim, n, log_kt):
    rng = np.random.default_rng(seed)
    h = hamiltonian(h_kind, dim, rng)
    m = model(model_kind, dim, n, h, rng)
    kt = 10.0**log_kt
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = spy_unchecked(monkeypatch)
        run_cycle(h, kt, m)
        run_transform(h, random_hamiltonian(dim, rng), kt, m)
        if model_kind in ("bare", "weak", "energy-basis"):
            run_controller_cycle(h, kt, m)
            assert "correlated joint state" in [where for _, _, where, _ in seen]
        assert_exact(seen)


@pytest.mark.parametrize("name", PRESETS)
def test_unchecked_matrices_of_the_presets_are_exactly_hermitian(monkeypatch, name):
    seen = spy_unchecked(monkeypatch)
    with redirect_stdout(io.StringIO()):
        assert main(["run", name, "--detail"]) == 0
    assert_exact(seen)
