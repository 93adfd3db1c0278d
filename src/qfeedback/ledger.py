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
from dataclasses import asdict, dataclass, fields

from .errors import ArgumentRangeError, DomainError, IoError


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

    def __post_init__(self):
        for name in FLOAT_COLUMNS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"ledger column {name} is not finite: {value!r}")


# Each column's kind ("str", "int", "float" or "bool"), read from the field types.
COLUMN_KINDS = {f.name: f.type for f in fields(LedgerRow)}
COLUMNS = tuple(COLUMN_KINDS)
FLOAT_COLUMNS = tuple(name for name, kind in COLUMN_KINDS.items() if kind == "float")


def ledger_row(
    config, run, *, n_outcomes: int, work_total: float, work_fb: float, closure: float,
    delta_f: float = 0.0,
) -> LedgerRow:
    """The row of a run in ``config.mode``.  ``run`` is a cycle ledger or a
    controller cycle result; both carry the initial E/S/F reading, the
    measurement cost and the second-law report.  The caller gives the columns
    that depend on the run mode."""
    return LedgerRow(
        scenario_id=config.scenario_id,
        mode=config.mode,
        dim=config.dim,
        T=config.temperature,
        E=run.initial.energy,
        S=run.initial.entropy,
        F=run.initial.free_energy,
        n_outcomes=n_outcomes,
        delta_E_meas=run.delta_e_meas,
        delta_S_meas=run.report.delta_s_meas,
        shannon_outcomes=run.report.shannon_outcomes,
        work_total=work_total,
        work_fb=work_fb,
        delta_F=delta_f,
        delta_S_tot=run.report.delta_s_tot,
        closure_distance=closure,
        efficiency_flag=run.report.efficiency_flag,
    )


def _format_csv_value(name: str, value):
    kind = COLUMN_KINDS[name]
    if kind == "bool":
        return "true" if value else "false"
    if kind == "float":
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
    return json.dumps([asdict(r) for r in rows], indent=2) + "\n"


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
        for (name, kind), text_value in zip(COLUMN_KINDS.items(), record):
            where = f"line {line}, column {name}"
            if kind == "bool":
                if text_value not in ("true", "false"):
                    raise IoError(f"{where}: {text_value!r} is not true or false")
                kwargs[name] = text_value == "true"
            elif kind == "str":
                kwargs[name] = text_value
            else:
                convert = int if kind == "int" else float
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

