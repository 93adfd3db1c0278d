"""Workload inputs, ops and per-op correctness checks for the benchmark.

Each workload is built from its seed alone; the program only ever receives
the generated ``Hamiltonian``/``MeasurementModel`` objects or preset names.
A workload is a list of rounds, each a list of ops.  Every round holds each
input class the same number of times, so stopping a run at a round boundary
keeps the op mix, and with it the latency percentiles, the same whatever the
machine speed.  A pass is all rounds in order.

Ops call the program through module attributes (``feedback.run_cycle``, not a
name bound here at import) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qfeedback import cli, controller, feedback, measurement, thermo
from qfeedback.sampling import random_bare_model, random_efficient_model, random_hamiltonian

# Acceptance-gate tolerances (tests/test_acceptance.py, gates 2-6).
IDENTITY_TOL = 1e-8  # |W_fb - kT dS_meas|, |W_fb - (dF + kT dS_meas)|
SECOND_LAW_TOL = 1e-9  # dS_tot >= -tol, dE_meas >= -tol (bare)
CLOSURE_TOL = 1e-8  # closure distances
CONTROLLER_TOL = 1e-8  # controller vs measurement.apply
BATH_TOL = 1e-9  # bath entropy gain vs dS_tot
GOLDEN_TOL = 1e-9  # preset ledger fields vs presets/expected/*.csv

ENSEMBLE_MODELS = 120
# (dim, outcomes) dealt round-robin.  (3, 3) is dealt twice: with 9 classes
# of two ops each the median would fall on the boundary between two classes
# of different cost, and with it doubled it falls mid-class.
ENSEMBLE_CLASSES = [(d, n) for d in (2, 3, 4) for n in (2, 3, 4)] + [(3, 3)]
# One round.  Sorted by cost, the median lands in the middle of the four dim-12
# ops and the slowest tenth is the one dim-16 op, so neither falls between
# two dims.
LADDER_DIMS = (6, 8, 10, 12, 12, 12, 12, 14, 14, 16)
LADDER_OUTCOMES = 3
LADDER_ROUNDS = 6  # about what a run gets through: see controller_workload
# (system dim, outcomes); joint states 4x4 .. 32x32.  By cost, five classes
# sit below (4, 4) and six above it.  (4, 4) and (2, 2) are dealt twice, so
# the median falls between the two (4, 4) ops of a round rather than on the
# edge between (4, 4) and (6, 2), whose costs overlap.
CONTROLLER_CLASSES = [(d, n) for d in (2, 4, 6, 8) for n in (2, 3, 4)] + [(2, 2), (4, 4)]
CONTROLLER_ROUNDS = 10  # rounds of fresh models: see controller_workload
PRESETS = (
    "szilard",
    "energy-measurement",
    "xbasis-thermal",
    "inefficient-dephase",
    "weak-sweep",
    "controller-fullcycle",
)
SWEEP_VALUES = "0.4,0.2,0.1,0.05"
WORKLOADS = ("ensemble", "ladder", "controller", "presets")


@dataclass
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not.

    ``check`` takes the call's result and returns a list of problems (empty
    when the result is correct).
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Workload:
    name: str
    rounds: list

    @property
    def ops(self) -> list:
        return [op for r in self.rounds for op in r]


def _cycle_ledger_problems(ledger, identity_residual: float) -> list:
    problems = []
    if not identity_residual < IDENTITY_TOL:
        problems.append(f"work identity residual {identity_residual:.3e}")
    if not ledger.delta_s_tot >= -SECOND_LAW_TOL:
        problems.append(f"dS_tot = {ledger.delta_s_tot:.3e}")
    if not ledger.closure_distance < CLOSURE_TOL:
        problems.append(f"closure = {ledger.closure_distance:.3e}")
    return problems


def _cycle_op(label, h, temperature, model) -> Op:
    def check(ledger):  # W_fb = kT dS_meas
        kt_ds = ledger.k * temperature * ledger.delta_s_meas
        return _cycle_ledger_problems(ledger, abs(ledger.work_fb - kt_ds))

    return Op(label, lambda: feedback.run_cycle(h, temperature, model), check)


def _transform_op(label, h, h2, temperature, model) -> Op:
    def check(result):  # W_fb = dF + kT dS_meas
        ledger = result.ledger
        kt_ds = ledger.k * temperature * ledger.delta_s_meas
        return _cycle_ledger_problems(ledger, abs(result.work_fb - (result.delta_f + kt_ds)))

    return Op(label, lambda: feedback.run_transform(h, h2, temperature, model), check)


def ensemble(seed: int) -> Workload:
    """The acceptance-gate ensemble: random efficient models, dims 2-4 with
    2-4 outcomes, random H, H2 and T in [0.5, 2].  Classes are dealt
    round-robin, so each round of 10 models holds every class once."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(ENSEMBLE_MODELS):
        dim, n_out = ENSEMBLE_CLASSES[i % len(ENSEMBLE_CLASSES)]
        h = random_hamiltonian(dim, rng)
        h2 = random_hamiltonian(dim, rng)
        temperature = float(rng.uniform(0.5, 2.0))
        model = random_efficient_model(dim, n_out, rng)
        tag = f"ensemble[{i}] dim {dim} N {n_out}"
        ops.append(_cycle_op(f"{tag} cycle", h, temperature, model))
        ops.append(_transform_op(f"{tag} transform", h, h2, temperature, model))
    per_round = 2 * len(ENSEMBLE_CLASSES)
    rounds = [ops[i : i + per_round] for i in range(0, len(ops), per_round)]
    return Workload("ensemble", rounds)


def ladder(seed: int) -> Workload:
    """run_cycle on random efficient models with N = 3 at dims 6-16, a fresh
    model for every op of a pass.  H is scaled by 1/sqrt(dim) so its spread,
    and so the thermal populations, stay comparable up the ladder."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(LADDER_ROUNDS):
        ops = []
        for dim in LADDER_DIMS:
            h = random_hamiltonian(dim, rng, scale=1.0 / math.sqrt(dim))
            temperature = float(rng.uniform(0.5, 2.0))
            model = random_efficient_model(dim, LADDER_OUTCOMES, rng)
            ops.append(_cycle_op(f"ladder[{r}] dim {dim}", h, temperature, model))
        rounds.append(ops)
    return Workload("ladder", rounds)


def _controller_problems(result, reference) -> list:
    records, s_initial = reference
    problems = []
    p_ref = records.probabilities
    s_ref = s_initial - float(np.dot(p_ref, [r.entropy for r in records]))
    if len(p_ref) != len(result.probabilities):
        problems.append(f"{len(result.probabilities)} branches, apply gives {len(p_ref)}")
    else:
        gap = float(np.max(np.abs(result.probabilities - p_ref)))
        if not gap < CONTROLLER_TOL:
            problems.append(f"probabilities differ from apply by {gap:.3e}")
    if not abs(result.delta_s_meas - s_ref) < CONTROLLER_TOL:
        problems.append(f"dS_meas {result.delta_s_meas!r} vs apply {s_ref!r}")
    if not result.delta_e_meas >= -SECOND_LAW_TOL:
        problems.append(f"dE_meas = {result.delta_e_meas:.3e}")
    if not result.report.delta_s_tot >= -SECOND_LAW_TOL:
        problems.append(f"dS_tot = {result.report.delta_s_tot:.3e}")
    closure = max(result.system_closure, result.controller_closure)
    if not closure < CLOSURE_TOL:
        problems.append(f"closure = {closure:.3e}")
    bath_gap = abs(result.bath_entropy_increase - result.report.delta_s_tot)
    if not bath_gap < BATH_TOL:
        problems.append(f"bath entropy gain off dS_tot by {bath_gap:.3e}")
    return problems


def _controller_op(label, h, temperature, model) -> Op:
    reference = []  # measurement.apply on the same input, computed once, untimed

    def check(result):
        if not reference:
            rho = thermo.thermal_state(h, temperature)
            reference.append(
                (measurement.apply(model, rho, h), thermo.von_neumann_entropy(rho))
            )
        return _controller_problems(result, reference[0])

    return Op(label, lambda: controller.run_controller_cycle(h, temperature, model), check)


def controller_workload(seed: int) -> Workload:
    """run_controller_cycle on random bare models at dims 2-8 with 2-4
    outcomes; each round holds one model per entry of CONTROLLER_CLASSES.

    Models of one class differ in cost by up to 30%, so a pass, about what
    a run gets through, holds CONTROLLER_ROUNDS fresh models per class: the
    median and the tail are then taken over many draws, and which seed made
    them hardly moves either."""
    rng = np.random.default_rng(seed)
    rounds = []
    for r in range(CONTROLLER_ROUNDS):
        ops = []
        for dim, n_out in CONTROLLER_CLASSES:
            h = random_hamiltonian(dim, rng, scale=1.0 / math.sqrt(dim))
            temperature = float(rng.uniform(0.5, 2.0))
            model = random_bare_model(dim, n_out, rng)
            label = f"controller[{r}] dim {dim} N {n_out}"
            ops.append(_controller_op(label, h, temperature, model))
        rounds.append(ops)
    return Workload("controller", rounds)


def _golden_rows(name: str) -> list:
    text = (
        resources.files("qfeedback").joinpath("presets", "expected", f"{name}.csv").read_text()
    )
    return list(csv.reader(io.StringIO(text)))


def _golden_problems(path: Path, expected: list) -> list:
    try:
        got = list(csv.reader(io.StringIO(path.read_text())))
    except OSError as exc:
        return [f"cannot read ledger: {exc}"]
    if len(got) != len(expected) or got[0] != expected[0]:
        return [f"ledger shape/header differs: {len(got)} lines vs {len(expected)}"]
    problems = []
    for row_got, row_exp in zip(got[1:], expected[1:]):
        for column, a, b in zip(expected[0], row_got, row_exp):
            try:
                same = abs(float(a) - float(b)) <= GOLDEN_TOL
            except ValueError:
                same = a == b
            if not same:
                problems.append(f"{row_exp[0]} {column}: {a} vs golden {b}")
    return problems


def _cli_op(label: str, argv: list, check_output: Callable[[str], list]) -> Op:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return [f"exit code {code}: {text.strip()[:200]}"]
        return check_output(text)

    return Op(label, call, check)


def presets(seed: int, scratch: Path) -> Workload:
    """One op is one in-process ``qfeedback`` CLI session: run each preset to
    a file, sweep weak-sweep over four strengths, validate each preset.  A
    session rather than a single command is the op so that every op costs
    about the same and the percentiles do not depend on where commands of
    different cost split.  The seed is unused: presets are fixed inputs.
    Setup parses every preset once."""
    del seed
    scratch.mkdir(parents=True, exist_ok=True)
    for name in PRESETS:
        cli.load_config(name)
    ops = []
    for name in PRESETS:
        path = scratch / f"run-{name}.csv"
        expected = _golden_rows(name)
        if name == "weak-sweep":  # its golden is the sweep; epsilon 0.4 is the preset's own
            expected = [expected[0], [name] + expected[1][1:]]
        ops.append(
            _cli_op(
                f"run {name}",
                ["run", name, "--output", str(path)],
                lambda _text, path=path, expected=expected: _golden_problems(path, expected),
            )
        )
    sweep_path = scratch / "sweep-weak-sweep.csv"
    sweep_expected = _golden_rows("weak-sweep")
    ops.append(
        _cli_op(
            "sweep weak-sweep",
            ["sweep", "weak-sweep", "--param", "measurement.epsilon",
             "--values", SWEEP_VALUES, "--output", str(sweep_path)],
            lambda _text: _golden_problems(sweep_path, sweep_expected),
        )
    )
    for name in PRESETS:
        ops.append(
            _cli_op(
                f"validate {name}",
                ["validate", name],
                lambda text, name=name: [] if f"config ok: {name}" in text else [text[:200]],
            )
        )

    def session():
        return [op.call() for op in ops]

    def check(results):
        return [f"{op.label}: {p}" for op, r in zip(ops, results) for p in op.check(r)]

    return Workload("presets", [[Op("presets session", session, check)]])


def build(name: str, seed: int, scratch: Path) -> Workload:
    if name == "ensemble":
        return ensemble(seed)
    if name == "ladder":
        return ladder(seed)
    if name == "controller":
        return controller_workload(seed)
    if name == "presets":
        return presets(seed, scratch)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
