"""Flat ledger rows and their CSV/JSON serialization.

One row summarizes one scenario run.  Column order is fixed; CSV floats are
printed with 12 significant digits, JSON carries full precision so that
parse(emit(rows)) round-trips exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, fields, replace

from .controller import EFFICIENCY_TOL, ControllerCycleResult
from .errors import ArgumentRangeError, DomainError, IoError
from .feedback import ContinuousResult, CycleLedger, TransformResult


@dataclass(frozen=True)
class LedgerRow:
    scenario_id: str
    mode: str
    dim: int
    T: float
    E: float
    S: float
    F: float
    n_outcomes: int
    delta_E_meas: float
    delta_S_meas: float
    shannon_outcomes: float
    work_total: float
    work_fb: float
    delta_F: float
    delta_S_tot: float
    closure_distance: float
    efficiency_flag: bool
    clamp_flag: bool

    def __post_init__(self):
        for name in FLOAT_COLUMNS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"ledger column {name} is not finite: {value!r}")


COLUMNS = tuple(f.name for f in fields(LedgerRow))
FLOAT_COLUMNS = tuple(
    f.name for f in fields(LedgerRow) if f.type == "float"
)
BOOL_COLUMNS = ("efficiency_flag", "clamp_flag")


def row_from_cycle(config, ledger: CycleLedger, mode: str = "cycle") -> LedgerRow:
    e, s = ledger.energy_initial, ledger.entropy_initial
    return LedgerRow(
        scenario_id=config.scenario_id,
        mode=mode,
        dim=config.dim,
        T=ledger.temperature,
        E=e,
        S=s,
        F=e - ledger.k * ledger.temperature * s,
        n_outcomes=len(ledger.outcomes),
        delta_E_meas=ledger.delta_e_meas,
        delta_S_meas=ledger.delta_s_meas,
        shannon_outcomes=ledger.shannon_outcomes,
        work_total=ledger.work_total,
        work_fb=ledger.work_fb,
        delta_F=0.0,
        delta_S_tot=ledger.delta_s_tot,
        closure_distance=ledger.closure_distance,
        efficiency_flag=bool(ledger.delta_s_tot < EFFICIENCY_TOL),
        clamp_flag=ledger.clamp_flag,
    )


def row_from_transform(config, result: TransformResult) -> LedgerRow:
    return replace(row_from_cycle(config, result.ledger, mode="transform"), delta_F=result.delta_f)


def row_from_continuous(config, result: ContinuousResult) -> LedgerRow:
    """Continuous runs report cumulative work over all steps; the entropy and
    energy columns are per-step (every step is an identical closed cycle)."""
    return replace(
        row_from_cycle(config, result.per_cycle, mode="continuous"),
        work_total=result.cumulative_work_total,
        work_fb=result.cumulative_work_fb,
    )


def row_from_controller(config, result: ControllerCycleResult) -> LedgerRow:
    closure = max(result.system_closure, result.controller_closure)
    return LedgerRow(
        scenario_id=config.scenario_id,
        mode="controller",
        dim=config.dim,
        T=config.temperature,
        E=result.initial.energy,
        S=result.initial.entropy,
        F=result.initial.free_energy,
        n_outcomes=len(result.probabilities),
        delta_E_meas=result.delta_e_meas,
        delta_S_meas=result.delta_s_meas,
        shannon_outcomes=result.report.shannon_outcomes,
        work_total=result.work_fb + result.delta_e_meas,
        work_fb=result.work_fb,
        delta_F=0.0,
        delta_S_tot=result.report.delta_s_tot,
        closure_distance=closure,
        efficiency_flag=result.report.efficiency_flag,
        clamp_flag=result.clamp_flag,
    )


def _as_dict(row: LedgerRow) -> dict:
    return {name: getattr(row, name) for name in COLUMNS}


def _format_csv_value(name: str, value):
    if name in BOOL_COLUMNS:
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_csv_value(n, getattr(row, n)) for n in COLUMNS])
    return buf.getvalue()


def emit_json(rows) -> str:
    return json.dumps([_as_dict(r) for r in rows], indent=2) + "\n"


def emit(rows, format: str, destination) -> int:
    """Serialize rows to ``destination`` (a path or a writable text stream);
    returns the number of bytes written."""
    if format == "csv":
        text = emit_csv(rows)
    elif format == "json":
        text = emit_json(rows)
    else:
        raise ArgumentRangeError(f"format must be csv or json, got {format!r}")
    data = text.encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(text)
        return len(data)
    try:
        with open(destination, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise IoError(f"cannot write {destination}: {exc}") from exc
    return len(data)


def parse_csv(text: str) -> list[LedgerRow]:
    """Inverse of emit_csv up to float formatting (12 significant digits)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IoError("empty ledger file") from None
    if tuple(header) != COLUMNS:
        raise IoError(f"unexpected ledger header: {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        line = reader.line_num
        if len(record) != len(COLUMNS):
            raise IoError(f"line {line}: {len(record)} fields, expected {len(COLUMNS)}")
        kwargs = {}
        for name, text_value in zip(COLUMNS, record):
            where = f"line {line}, column {name}"
            if name in BOOL_COLUMNS:
                if text_value not in ("true", "false"):
                    raise IoError(f"{where}: {text_value!r} is not true or false")
                kwargs[name] = text_value == "true"
            elif name in ("scenario_id", "mode"):
                kwargs[name] = text_value
            else:
                convert = int if name in ("dim", "n_outcomes") else float
                try:
                    value = convert(text_value)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    what = f"{text_value!r} is not a valid finite {convert.__name__}"
                    raise IoError(f"{where}: {what}")
                kwargs[name] = value
        rows.append(LedgerRow(**kwargs))
    return rows

