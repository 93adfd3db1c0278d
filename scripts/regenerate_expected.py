#!/usr/bin/env python3
"""Rebuild the committed expected-ledger CSVs for every shipped preset.

Run from anywhere; writes into src/qfeedback/presets/expected/.  The test
suite compares fresh runs against these files numerically (1e-9) and the
emitter byte-for-byte, so regenerate only when the physics or the CSV format
intentionally changes.
"""

import sys
from pathlib import Path

from qfeedback.cli import load_config, run_scenario
from qfeedback.config import with_value
from qfeedback.ledger import emit_csv

SWEEPS = {
    # preset name -> (param path, values) for presets whose expected file is
    # a sweep rather than a single run
    "weak-sweep": ("measurement.epsilon", (0.4, 0.2, 0.1, 0.05)),
}

PRESET_DIR = Path(__file__).resolve().parent.parent / "src" / "qfeedback" / "presets"
# one expected ledger per shipped presets/*.yaml
PRESETS = tuple(sorted(path.stem for path in PRESET_DIR.glob("*.yaml")))


def expected_rows(name):
    config = load_config(name)
    if name in SWEEPS:
        param, values = SWEEPS[name]
        return [run_scenario(with_value(config, param, v))[0] for v in values]
    return [run_scenario(config)[0]]


def main():
    out_dir = PRESET_DIR / "expected"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in PRESETS:
        text = emit_csv(expected_rows(name))
        target = out_dir / f"{name}.csv"
        target.write_text(text)
        print(f"wrote {target} ({len(text.splitlines()) - 1} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
