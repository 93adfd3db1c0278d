"""Batch front-end: run scenarios, sweep parameters, validate configs, and
summarize ledgers.

Exit codes: 0 success, 1 validation failure, 2 numerical failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from .config import ScenarioConfig, parse_config, with_value
from .controller import run_controller_cycle
from .errors import InputError, IoError, NumericalError, ParseError, ValidationError
from .feedback import run_continuous, run_cycle, run_transform
from .ledger import LedgerRow, emit, ledger_row, parse_csv
from .measurement import judge_second_law, validate


def load_config(name: str) -> ScenarioConfig:
    """Read a UTF-8 scenario from a file path or, failing that, a packaged
    preset name (``szilard`` resolves to the shipped ``szilard.yaml``)."""
    path, source = Path(name), name
    if not path.is_file():
        stem = name if name.endswith(".yaml") else f"{name}.yaml"
        path = resources.files("qfeedback").joinpath("presets", stem)
        source = f"preset {name}"
        if not path.is_file():
            raise IoError(f"no such config file or preset: {name}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {name}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError("", f"{source}: not valid UTF-8: {exc}") from exc
    return parse_config(text, source=source)


def run_scenario(config: ScenarioConfig) -> tuple[LedgerRow, dict]:
    """Dispatch one scenario; returns its ledger row and a detail tree.  A
    numerical failure is re-raised with the scenario id in front."""
    h, t = config.hamiltonian, config.temperature

    def cycle_row(ledger, **columns):  # a measurement-picture row; columns override its work
        columns = dict(work_total=ledger.work_total, work_fb=ledger.work_fb) | columns
        n_outcomes, closure = len(ledger.outcomes), ledger.closure_distance
        return ledger_row(config, ledger, n_outcomes=n_outcomes, closure=closure, **columns)

    def outcome_rows(ledger):  # one dict per kept outcome, read from the ledger's stacks
        o, keys = ledger.outcomes, ("n", "probability", "entropy", "energy", "delta_e", "work")
        delta_e = o.energies - ledger.initial.energy
        columns = (o.outcomes, o.probabilities, o.entropies, o.energies, delta_e, ledger.works)
        return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]

    try:
        if config.mode == "cycle":
            ledger = run_cycle(h, t, config.model)
            row = cycle_row(ledger)
            detail = {
                "outcomes": outcome_rows(ledger),
                "heat_from_bath": ledger.heat_from_bath,
                "dropped_outcomes": ledger.outcomes.dropped,
            }
        elif config.mode == "transform":
            result = run_transform(h, config.h2, t, config.model)
            row = cycle_row(result.ledger, delta_f=result.delta_f)
            detail = {
                "outcomes": outcome_rows(result.ledger),
                "free_energy_initial": result.ledger.initial.free_energy,
                "free_energy_final": result.free_energy_final,
                "heat_from_bath": result.ledger.heat_from_bath,
            }
        elif config.mode == "continuous":
            # work summed over the steps; every other column is one step's
            result = run_continuous(h, t, config.model, config.steps)
            row = cycle_row(
                result.per_cycle,
                work_total=result.cumulative_work_total,
                work_fb=result.cumulative_work_fb,
            )
            detail = {
                "epsilon": result.epsilon,
                "n_steps": result.n_steps,
                "work_per_step": result.per_cycle.work_fb,
                "delta_s_meas_per_step": result.delta_s_meas_per_step,
                "scaling_ratio": result.scaling_ratio,
            }
        else:
            result = run_controller_cycle(h, t, config.model)
            row = ledger_row(
                config,
                result,
                n_outcomes=len(result.probabilities),
                work_total=result.work_fb + result.delta_e_meas,
                work_fb=result.work_fb,
                closure=max(result.system_closure, result.controller_closure),
            )
            detail = {
                "branch_probabilities": list(result.probabilities),
                "branch_entropies": list(result.branch_entropies),
                "bath_entropy_increase": result.bath_entropy_increase,
                "system_closure": result.system_closure,
                "controller_closure": result.controller_closure,
                "second_law_verdict": result.report.verdict,
            }
        return row, detail
    except NumericalError as exc:
        raise type(exc)(f"{config.scenario_id}: {exc}") from exc


def cmd_run(args) -> int:
    row, detail = run_scenario(load_config(args.config))
    if args.detail:
        if args.output:
            emit([row], args.format, args.output)
        payload = {"row": asdict(row), "detail": detail}
        json.dump(payload, sys.stdout, indent=2, default=float)
        sys.stdout.write("\n")
    else:
        emit([row], args.format, args.output or sys.stdout)
    return 0


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValidationError("--values", str(exc)) from None
    if not values:
        raise ValidationError("--values", f"no number in {args.values!r}")
    variants = [with_value(config, args.param, v) for v in values]
    rows = [run_scenario(variant)[0] for variant in variants]
    emit(rows, args.format, args.output or sys.stdout)
    return 0


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except InputError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    report = validate(config.model)
    print(report.describe())
    if not report.ok:
        return 1
    print(f"config ok: {config.scenario_id} ({config.mode}, dim {config.dim})")
    return 0


def cmd_report(args) -> int:
    try:
        text = Path(args.ledger).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {args.ledger}: {exc}") from exc
    rows = parse_csv(text)
    header = f"{'scenario':<40} {'mode':<11} {'work_fb':>14} {'dS_tot':>14}  verdict"
    print(header)
    print("-" * len(header))
    passes = 0
    for row in rows:
        ok, efficient = judge_second_law(row.delta_S_tot)
        passes += ok
        verdict = "PASS" if ok else "FAIL"
        if efficient:
            verdict += " (efficient)"
        print(
            f"{row.scenario_id:<40} {row.mode:<11} {row.work_fb:>14.6g} "
            f"{row.delta_S_tot:>14.6g}  {verdict}"
        )
    print("-" * len(header))
    print(f"{passes}/{len(rows)} rows satisfy the second-law ledger bound")
    return 0 if passes == len(rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process and shared by every call: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="qfeedback",
        description="Feedback-control work extraction: scenario runner and ledger tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and emit its ledger row")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--output", default=None, help="write ledger here instead of stdout")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument(
        "--detail", action="store_true",
        help="print a detailed JSON document (per-outcome data) to stdout",
    )

    p_sweep = sub.add_parser("sweep", help="run a scenario once per parameter value")
    p_sweep.add_argument("config", help="config file path or preset name")
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. measurement.epsilon")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers")
    p_sweep.add_argument("--output", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")

    p_val = sub.add_parser("validate", help="check a config and its measurement model")
    p_val.add_argument("config")

    p_rep = sub.add_parser("report", help="summarize a ledger CSV with second-law verdicts")
    p_rep.add_argument("ledger")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, not kept in the cached parser, so a rebound cmd_* runs
    commands = dict(run=cmd_run, sweep=cmd_sweep, validate=cmd_validate, report=cmd_report)
    try:
        return commands[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (IoError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
