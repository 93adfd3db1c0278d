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


def ledger_row(config, ledger, **columns) -> LedgerRow:
    """The row of a cycle ledger, of either picture, run in ``config.mode``.  Every
    column comes from the config or the ledger but those in ``columns``, named as the
    row names them, which a run mode sets itself: the summed work of a continuous run, a
    transform's ΔF, the controller's closure."""
    report = ledger.report
    row = dict(
        scenario_id=config.scenario_id,
        mode=config.mode,
        dim=config.dim,
        T=config.temperature,
        E=ledger.initial.energy,
        S=ledger.initial.entropy,
        F=ledger.initial.free_energy,
        n_outcomes=len(ledger.outcomes),
        delta_E_meas=ledger.delta_e_meas,
        delta_S_meas=report.delta_s_meas,
        shannon_outcomes=report.shannon_outcomes,
        work_total=ledger.work_total,
        work_fb=ledger.work_fb,
        delta_F=0.0,
        delta_S_tot=report.delta_s_tot,
        closure_distance=ledger.closure_distance,
        efficiency_flag=report.efficiency_flag,
    )
    return LedgerRow(**(row | columns))


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

