"""Command-line front end: exit codes, preset resolution, ledger files,
determinism of the emitted CSV bytes."""

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from qfeedback import measurement
from qfeedback.cli import load_config, main, run_scenario
from qfeedback.config import KINDS, MODES, with_value
from qfeedback.errors import InputError, IoError, ParseError
from qfeedback.feedback import run_transform
from qfeedback.ledger import COLUMNS, emit, emit_csv, emit_json, parse_csv

from oracles import parse_json

LN2 = math.log(2.0)

# a Latin-1 "é" in a comment: valid YAML once decoded, but not UTF-8
NON_UTF8_CONFIG = b"scenario_id: bad\n# caf\xe9\nrun: {mode: cycle}\n"

GOOD_CONFIG = """\
scenario_id: tmp-good
run: {mode: cycle}
system: {dim: 2, hamiltonian: [0.0, 0.0]}
bath: {temperature: 1.0}
measurement:
  kind: bare
  operators:
    - [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    - [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
"""

BAD_TEMPERATURE = GOOD_CONFIG.replace("temperature: 1.0", "temperature: -3.0")

# T = 5e-324 passes validation, but the retuned levels -kT ln λ of the weak
# outcomes round to 0 at that kT, so the landing check of the feedback plan
# fails numerically (a PlanMismatchError) rather than at validation
DEGENERATE_CONFIG = """\
scenario_id: tmp-degenerate
run: {mode: cycle}
system: {dim: 2, hamiltonian: [0.0, 0.0]}
bath: {temperature: 5.0e-324}
measurement:
  kind: weak
  generator:
    - [[1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0]]
  epsilon: 0.4
"""

CONTINUOUS_CONFIG = """\
scenario_id: tmp-continuous
run: {mode: continuous}
system: {dim: 2, hamiltonian: [0.0, 1.0]}
bath: {temperature: 1.0}
measurement:
  kind: weak
  generator:
    - [[1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0]]
  epsilon: 0.3
continuous: {steps: 3}
"""

# the reset channel |0><0|, |0><1| under one outcome: every state lands on |0>,
# so the entropy bill S({p_n}) - dS_meas = 0 - S is negative
RESET_CHANNEL_CONFIG = """\
scenario_id: tmp-reset
run: {mode: cycle}
system: {dim: 2, hamiltonian: [0.0, 1.0]}
bath: {temperature: 1.0}
measurement:
  kind: inefficient
  groups:
    - - [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
      - [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
"""

TRANSFORM_CONFIG = """\
scenario_id: tmp-transform
run: {mode: transform}
system: {dim: 2, hamiltonian: [0.0, 0.7]}
bath: {temperature: 1.0}
measurement:
  kind: bare
  operators:
    - [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    - [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
transform: {h2: [0.0, 1.3]}
"""

ZERO_OUTCOME_CONFIG = GOOD_CONFIG + """\
    - [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
"""

# one preset per shipped presets/*.yaml
PRESETS = tuple(
    sorted(
        entry.name.removesuffix(".yaml")
        for entry in resources.files("qfeedback").joinpath("presets").iterdir()
        if entry.name.endswith(".yaml")
    )
)


def expected_text(name):
    return (
        resources.files("qfeedback")
        .joinpath("presets", "expected", f"{name}.csv")
        .read_text()
    )


class TestLoadConfig:
    def test_preset_by_name(self):
        config = load_config("szilard")
        assert config.scenario_id == "szilard"
        assert config.dim == 2

    def test_preset_with_extension(self):
        assert load_config("szilard.yaml").scenario_id == "szilard"

    def test_file_path_wins(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(GOOD_CONFIG)
        assert load_config(str(path)).scenario_id == "tmp-good"

    def test_missing(self):
        with pytest.raises(IoError):
            load_config("no-such-config-anywhere")

    def test_non_utf8_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(NON_UTF8_CONFIG)
        with pytest.raises(ParseError, match=f"{path}: not valid UTF-8"):
            load_config(str(path))


class TestRun:
    def test_stdout_csv(self, capsys):
        assert main(["run", "szilard"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert abs(rows[0].work_fb - LN2) < 1e-6
        assert rows[0].delta_E_meas == 0.0

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "ledger.csv"
        assert main(["run", "szilard", "--output", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert rows[0].scenario_id == "szilard"
        assert capsys.readouterr().out == ""

    def test_json_format(self, capsys):
        assert main(["run", "szilard", "--format", "json"]) == 0
        rows = parse_json(capsys.readouterr().out)
        assert abs(rows[0].work_fb - LN2) < 1e-6

    def test_detail_payload(self, capsys):
        assert main(["run", "szilard", "--detail"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["row"]["work_fb"] - LN2) < 1e-6
        outcomes = payload["detail"]["outcomes"]
        assert len(outcomes) == 2
        assert abs(outcomes[0]["probability"] - 0.5) < 1e-12

    def test_detail_with_output_file(self, tmp_path, capsys):
        out = tmp_path / "ledger.csv"
        assert main(["run", "szilard", "--detail", "--output", str(out)]) == 0
        assert "detail" in json.loads(capsys.readouterr().out)
        assert len(parse_csv(out.read_text())) == 1

    def test_missing_config_is_io_error(self, capsys):
        assert main(["run", "nowhere.yaml"]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_TEMPERATURE)
        assert main(["run", str(path)]) == 1
        assert "bath.temperature" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["0.7", "1.0e-7"])
    def test_continuous_epsilon_out_of_range(self, tmp_path, capsys, epsilon):
        # weak models accept any strength in (0, 1); continuous mode needs
        # [1e-6, 0.5], and validate must reject what run cannot run
        path = tmp_path / "continuous.yaml"
        path.write_text(CONTINUOUS_CONFIG.replace("epsilon: 0.3", f"epsilon: {epsilon}"))
        assert main(["validate", str(path)]) == 1
        assert "measurement.epsilon" in capsys.readouterr().err
        assert main(["run", str(path)]) == 1
        assert "measurement.epsilon" in capsys.readouterr().err

    def test_continuous_epsilon_in_range(self, tmp_path, capsys):
        path = tmp_path / "continuous.yaml"
        path.write_text(CONTINUOUS_CONFIG)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path)]) == 0

    @pytest.mark.parametrize("mode", ["cycle", "controller"])
    def test_zero_probability_outcome_is_dropped(self, tmp_path, capsys, mode):
        # the third operator is zero, so its outcome has p = 0 exactly: it is
        # dropped instead of dividing 0 by 0
        path = tmp_path / "zero-outcome.yaml"
        path.write_text(ZERO_OUTCOME_CONFIG.replace("mode: cycle", f"mode: {mode}"))
        assert main(["run", str(path), "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["n_outcomes"] == 2

    def test_numerical_failure(self, tmp_path, capsys):
        path = tmp_path / "degenerate.yaml"
        path.write_text(DEGENERATE_CONFIG)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "tmp-degenerate" in err

    # numpy overflow warnings printed ahead of each of these errors; the runs that
    # exit 0 print their ledger, with ΔS_meas as given, and no warning either
    @pytest.mark.parametrize(
        "text, old, new, code, delta_s_meas",
        [
            (GOOD_CONFIG, "[0.0, 0.0]}", "[1.0e+308, -1.0e+308]}", 1, None),
            (
                GOOD_CONFIG,
                "[0.0, 0.0]}",
                "[[[0, 0], [1.0e+308, 0]], [[-1.0e+308, 0], [0, 0]]]}",
                1,
                None,
            ),
            # pure outcomes at kT = 1e308: the kernel level is +inf at no work
            (GOOD_CONFIG, "temperature: 1.0", "temperature: 1.0e+308", 0, LN2),
            (CONTINUOUS_CONFIG, "- [[1.0, 0.0]", "- [[1.0e+300, 0.0]", 1, None),
            (CONTINUOUS_CONFIG, "- [[1.0, 0.0]", "- [[1.0e+308, 0.0]", 1, None),
            # retuned levels near 1e308 on the maximally mixed state's weak outcomes
            # (I ± 0.3 Z)/2, which the plans hold without forming a matrix of them
            (
                CONTINUOUS_CONFIG,
                "temperature: 1.0}",
                "temperature: 1.0e+308}",
                0,
                LN2 + 0.65 * math.log(0.65) + 0.35 * math.log(0.35),
            ),
        ],
        ids=[
            "diagonal-hamiltonian",
            "off-diagonal-hamiltonian",
            "temperature",
            "generator-1e300",
            "generator-1e308",
            "retuned-levels",
        ],
    )
    def test_overflow_prints_only_the_error(
        self, tmp_path, capsys, text, old, new, code, delta_s_meas
    ):
        assert old in text
        path = tmp_path / "huge.yaml"
        path.write_text(text.replace(old, new))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path), "--format", "json"]) == code
        out, err = capsys.readouterr()
        if code:
            assert len(err.splitlines()) == 1
            return
        [row] = json.loads(out)
        steps = load_config(str(path)).steps
        assert err == ""
        assert row["delta_S_meas"] == pytest.approx(delta_s_meas, abs=1e-15)
        assert row["work_fb"] == pytest.approx(steps * (row["T"] * delta_s_meas), rel=1e-14)
        assert row["work_total"] == row["work_fb"]

    def test_temperature_far_below_the_gap(self, tmp_path, capsys):
        # (E - E_0)/kT overflows to inf: the excited level's weight is exactly 0
        path = tmp_path / "cold.yaml"
        path.write_text(CONTINUOUS_CONFIG.replace("temperature: 1.0}", "temperature: 5.0e-324}"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_eigensolver_failure_is_numerical(self, monkeypatch, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["run", "szilard"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err


class TestModeColumns:
    """The columns a run mode sets itself, read back at full precision."""

    def json_row(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(text)
        assert main(["run", str(path), "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        return row, load_config(str(path))

    def test_transform_delta_f(self, tmp_path, capsys):
        row, config = self.json_row(tmp_path, capsys, TRANSFORM_CONFIG)
        result = run_transform(config.hamiltonian, config.h2, config.temperature, config.model)
        assert result.delta_f != 0.0
        assert row["delta_F"] == result.delta_f
        assert row["work_total"] == result.ledger.work_total
        assert row["work_fb"] == result.ledger.work_fb

    def test_continuous_work_is_cumulative(self, tmp_path, capsys):
        row, config = self.json_row(tmp_path, capsys, CONTINUOUS_CONFIG)
        one_step = CONTINUOUS_CONFIG.replace("mode: continuous", "mode: cycle").replace(
            "continuous: {steps: 3}\n", ""
        )
        cycle, _ = self.json_row(tmp_path, capsys, one_step)
        assert config.steps == 3
        for name in COLUMNS:
            if name in ("work_total", "work_fb"):
                assert row[name] == config.steps * cycle[name], name
            elif name == "mode":
                assert (row[name], cycle[name]) == ("continuous", "cycle")
            else:
                assert row[name] == cycle[name], name


class TestSweep:
    def test_values_in_order(self, capsys):
        code = main(
            ["sweep", "weak-sweep", "--param", "measurement.epsilon",
             "--values", "0.4,0.1,0.2"]
        )
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r.scenario_id for r in rows] == [
            "weak-sweep[measurement.epsilon=0.4]",
            "weak-sweep[measurement.epsilon=0.1]",
            "weak-sweep[measurement.epsilon=0.2]",
        ]
        # smaller readout strength extracts less work
        assert rows[0].work_fb > rows[2].work_fb > rows[1].work_fb > 0.0

    def test_empty_values(self, capsys):
        """A --values with no number in it is refused, not run as an empty sweep."""
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --values: no number in ''\n"

    @pytest.mark.parametrize("values", [",", " , ,"])
    def test_values_with_no_number(self, capsys, values):
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", values])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --values: no number in {values!r}\n"

    def test_unknown_param(self, capsys):
        code = main(["sweep", "szilard", "--param", "bath.pressure",
                     "--values", "1,2"])
        assert code == 1

    def test_non_numeric_values(self, capsys):
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", "0.1,abc"])
        assert code == 1
        assert "--values" in capsys.readouterr().err

    def test_szilard_at_the_largest_temperature(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["sweep", "szilard", "--param", "bath.temperature",
                         "--values", "1e308", "--format", "json"])
        assert code == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["work_fb"] == 1e308 * LN2

    def test_numerical_failure_names_variant(self, tmp_path, capsys):
        path = tmp_path / "degenerate.yaml"
        path.write_text(DEGENERATE_CONFIG)
        code = main(["sweep", str(path), "--param", "measurement.epsilon",
                     "--values", "0.3"])
        assert code == 2
        assert "tmp-degenerate[measurement.epsilon=0.3]: " in capsys.readouterr().err

    def test_close_values_get_distinct_ids(self, capsys):
        # both values print as 0.1 to six significant digits
        values = ("0.10000001", "0.10000002")
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", ",".join(values)])
        assert code == 0
        ids = [r.scenario_id for r in parse_csv(capsys.readouterr().out)]
        assert len(set(ids)) == 2
        prefix = "weak-sweep[measurement.epsilon="
        for scenario_id, value in zip(ids, values):
            assert scenario_id.startswith(prefix) and scenario_id.endswith("]")
            assert float(scenario_id[len(prefix):-1]) == float(value)

    def test_output_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", "0.3", "--output", str(out)])
        assert code == 0
        assert len(parse_csv(out.read_text())) == 1


class TestValidate:
    def test_preset_ok(self, capsys):
        assert main(["validate", "szilard"]) == 0
        assert "config ok: szilard" in capsys.readouterr().out

    def test_invalid_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_TEMPERATURE)
        assert main(["validate", str(path)]) == 1
        assert "bath.temperature" in capsys.readouterr().err

    def test_missing(self, capsys):
        assert main(["validate", "nowhere"]) == 3

    def test_non_utf8_file_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(NON_UTF8_CONFIG)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"invalid: {path}: not valid UTF-8")
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid UTF-8")

    def test_generator_norm_above_one_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "weak.yaml"
        path.write_text(CONTINUOUS_CONFIG.replace("[-1.0, 0.0]]", "[-2.0, 0.0]]"))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("invalid: generator norm")

    # an entry near the float limit makes the model invalid (exit 1): a bare
    # operator fails the model check, a weak generator fails config parsing
    @pytest.mark.parametrize(
        "text, old, where",
        [
            (GOOD_CONFIG, "- [[[1.0, 0.0]", "completeness residual: inf"),
            (CONTINUOUS_CONFIG, "- [[1.0, 0.0]", "measurement.generator"),
        ],
        ids=["bare-operator", "weak-generator"],
    )
    def test_out_of_range_operator_is_invalid(self, tmp_path, capsys, text, old, where):
        assert old in text
        path = tmp_path / "huge.yaml"
        path.write_text(text.replace(old, old.replace("1.0", "1.0e+308")))
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert where in captured.out + captured.err

    # constants held Boltzmann's k: the temperature is kT now, so k = c reads as temperature c·T;
    # numerics held the floors, and with the last of them gone the section is unknown itself
    @pytest.mark.parametrize(
        "key, section",
        [
            ("seed", None),
            ("tolerance", "numerics"),
            ("lambda_floor", "numerics"),
            ("constants", None),
            ("numerics", None),
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, key, section):
        tree = yaml.safe_load(GOOD_CONFIG)
        (tree.setdefault(section, {}) if section else tree)[key] = 1
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(tree))
        assert main(["validate", str(path)]) == 1
        assert main(["run", str(path)]) == 1
        assert f"{section or key}: unknown key" in capsys.readouterr().err

    # each of these printed "config ok" and then made `run` exit 1
    @pytest.mark.parametrize(
        "old, new",
        [
            ("temperature: 1.0", "temperature: .nan"),
            ("temperature: 1.0", "temperature: .inf"),
            ("temperature: 1.0", "temperature: 1.0e+308"),
            ("hamiltonian: [0.0, 0.0]", "hamiltonian: [1.0e+308, -1.0e+308]"),
        ],
    )
    def test_ok_means_run_does_not_reject(self, tmp_path, capsys, old, new):
        text = resources.files("qfeedback").joinpath("presets", "szilard.yaml").read_text()
        assert old in text
        path = tmp_path / "szilard.yaml"
        path.write_text(text.replace(old, new))
        if main(["validate", str(path)]) == 0:
            assert main(["run", str(path)]) in (0, 2)


class TestReport:
    def run_to_file(self, preset, path):
        assert main(["run", preset, "--output", str(path)]) == 0

    def test_pass_summary(self, tmp_path, capsys):
        path = tmp_path / "ledger.csv"
        self.run_to_file("szilard", path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS (efficient)" in out  # Szilard saturates the bound
        assert "1/1 rows satisfy" in out

    def test_fail_row(self, tmp_path, capsys):
        path = tmp_path / "ledger.csv"
        self.run_to_file("szilard", path)
        rows = parse_csv(path.read_text())
        broken = dataclasses.replace(rows[0], delta_S_tot=-1.0)
        path.write_text(emit_csv([broken]))
        assert main(["report", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "0/1 rows satisfy" in out

    def test_negative_bill_fails_and_is_not_efficient(self, tmp_path, capsys):
        config = tmp_path / "reset.yaml"
        config.write_text(RESET_CHANNEL_CONFIG)
        path = tmp_path / "ledger.csv"
        self.run_to_file(str(config), path)
        (row,) = parse_csv(path.read_text())
        assert row.delta_S_tot == pytest.approx(-0.582203108888, abs=1e-9)
        assert not row.efficiency_flag
        assert main(["report", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "(efficient)" not in out
        assert "0/1 rows satisfy" in out

    def test_missing_file(self, capsys):
        assert main(["report", str("/no/such/ledger.csv")]) == 3

    def test_ledger_with_a_clamp_flag_column_is_refused(self, tmp_path, capsys):
        # ledgers written before the clamp flag was retired carry it as a last column
        path = tmp_path / "ledger.csv"
        self.run_to_file("szilard", path)
        header, row = path.read_text().splitlines()
        path.write_text(f"{header},clamp_flag\n{row},false\n")
        assert main(["report", str(path)]) == 3
        assert "unexpected ledger header" in capsys.readouterr().err

    def test_non_utf8_ledger(self, tmp_path, capsys):
        path = tmp_path / "ledger.csv"
        path.write_bytes(b"scenario_id,mode\ncaf\xe9,cycle\n")
        assert main(["report", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"i/o error: cannot read {path}")

    @pytest.mark.parametrize(
        "column, text",
        [
            pytest.param("T", "x", id="T"),
            pytest.param("dim", "x", id="dim"),
            # exit 3, not 2 from the row's own finite check
            pytest.param("T", "nan", id="T-nan"),
            pytest.param("work_fb", "inf", id="work_fb-inf"),
            pytest.param("delta_S_tot", "-inf", id="delta_S_tot--inf"),
            # a flag spelled other than true/false must not read as false
            pytest.param("efficiency_flag", "True", id="efficiency_flag-True"),
            pytest.param("efficiency_flag", "1", id="efficiency_flag-1"),
        ],
    )
    def test_non_numeric_field(self, tmp_path, capsys, column, text):
        path = tmp_path / "ledger.csv"
        self.run_to_file("szilard", path)
        header, row = path.read_text().splitlines()
        fields = row.split(",")
        fields[COLUMNS.index(column)] = text
        path.write_text(f"{header}\n{','.join(fields)}\n")
        assert main(["report", str(path)]) == 3
        assert f"line 2, column {column}: {text!r}" in capsys.readouterr().err

    def test_short_row(self, tmp_path, capsys):
        path = tmp_path / "ledger.csv"
        self.run_to_file("szilard", path)
        path.write_text(path.read_text().rsplit(",", 1)[0] + "\n")
        assert main(["report", str(path)]) == 3
        assert f"line 2: {len(COLUMNS) - 1} fields" in capsys.readouterr().err


class TestExpectedLedgers:
    """Every preset regenerates byte-for-byte to its committed ledger."""

    @pytest.mark.parametrize("name", [p for p in PRESETS if p != "weak-sweep"])
    def test_single_run_presets(self, name, capsys):
        assert main(["run", name]) == 0
        assert capsys.readouterr().out == expected_text(name)

    def test_weak_sweep_preset(self, capsys):
        code = main(["sweep", "weak-sweep", "--param", "measurement.epsilon",
                     "--values", "0.4,0.2,0.1,0.05"])
        assert code == 0
        assert capsys.readouterr().out == expected_text("weak-sweep")

    def test_both_pictures_give_one_row(self):
        # xbasis-thermal and controller-fullcycle are one scenario, run in the
        # measurement and in the controller picture
        cycle, _ = run_scenario(load_config("xbasis-thermal"))
        controller, _ = run_scenario(load_config("controller-fullcycle"))
        for name in COLUMNS:
            a, b = getattr(cycle, name), getattr(controller, name)
            if name in ("scenario_id", "mode"):
                assert a != b
            elif isinstance(a, float):
                assert abs(a - b) <= 1e-9, name
            else:
                assert a == b, name

    # both outcomes have p = 0.5, which `apply` keeps at a drop floor of 0.5; the
    # joint state's blocks read 0.5 -+ 1 ulp, so a second drop test there lost one
    def test_both_pictures_keep_the_same_outcomes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(measurement, "P_FLOOR", 0.5)
        preset = resources.files("qfeedback").joinpath("presets", "controller-fullcycle.yaml")
        text = preset.read_text()
        path, cycle_path = tmp_path / "controller.yaml", tmp_path / "cycle.yaml"
        path.write_text(text)
        cycle_path.write_text(text.replace("mode: controller", "mode: cycle"))
        controller, _ = run_scenario(load_config(str(path)))
        cycle, _ = run_scenario(load_config(str(cycle_path)))
        assert controller.n_outcomes == 2
        for name in COLUMNS:
            a, b = getattr(cycle, name), getattr(controller, name)
            if isinstance(a, float):
                assert abs(a - b) <= 1e-9, name
            elif name != "mode":
                assert a == b, name
        ledger = tmp_path / "ledger.csv"
        assert main(["run", str(path), "--output", str(ledger)]) == 0
        assert main(["report", str(ledger)]) == 0
        assert "1/1 rows satisfy" in capsys.readouterr().out

    def test_repeat_runs_are_identical(self, capsys):
        assert main(["run", "xbasis-thermal"]) == 0
        first = capsys.readouterr().out
        assert main(["run", "xbasis-thermal"]) == 0
        assert capsys.readouterr().out == first


class TestSerializationRoundTrip:
    def rows(self):
        out = []
        for name in ("szilard", "controller-fullcycle"):
            row, _ = run_scenario(load_config(name))
            out.append(row)
        return out

    def test_json_is_exact(self):
        rows = self.rows()
        assert parse_json(emit_json(rows)) == rows

    def test_csv_keeps_twelve_digits(self):
        rows = self.rows()
        back = parse_csv(emit_csv(rows))
        for a, b in zip(rows, back):
            for field in dataclasses.fields(a):
                x, y = getattr(a, field.name), getattr(b, field.name)
                if isinstance(x, float):
                    assert abs(x - y) <= 1e-11 * max(1.0, abs(x))
                else:
                    assert x == y

    def test_unknown_format_is_input_error(self):
        with pytest.raises(InputError, match="format must be csv or json"):
            emit(self.rows(), "xml", io.StringIO())

    def test_sweep_tag_matches_config_edit(self):
        config = load_config("weak-sweep")
        edited = with_value(config, "measurement.epsilon", 0.25)
        row, _ = run_scenario(edited)
        assert row.scenario_id == "weak-sweep[measurement.epsilon=0.25]"


# Values at and beyond every bound a config field has, plus non-numbers.
EDGE_VALUES = st.sampled_from(
    [0, 1, -1, 2, 7, 2**64, 10**400, 0.0, -0.0, 5e-324, 1e-300, 1e-7, 1e-6, 0.5, 0.7,
     1.0, 1.5, -1.0, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan, True, "1", None]
)
FINITE = st.floats(-3.0, 3.0)


def _entry(value):
    return [value, 0.0]


def _hermitian(data, dim):
    m = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        m[i][i] = _entry(data.draw(FINITE))
        for j in range(i + 1, dim):
            re, im = data.draw(FINITE), data.draw(FINITE)
            m[i][j], m[j][i] = [re, im], [re, -im]
    return m


def _hamiltonian(data, dim):
    scale = data.draw(st.sampled_from([1.0, 1e8, 1e160, 1e300]))
    if data.draw(st.booleans()):
        return [scale * data.draw(FINITE) for _ in range(dim)]
    return [[[scale * re, scale * im] for re, im in row] for row in _hermitian(data, dim)]


def _measurement(data, kind, dim):
    """A valid model of the kind: projectors onto a random partition of the
    basis, rotated by a cyclic shift for efficient models and split in two
    Kraus operators per outcome for inefficient ones."""
    if kind == "weak":
        generator = [[_entry(data.draw(st.floats(-1.0, 1.0)) if i == j else 0.0)
                      for j in range(dim)] for i in range(dim)]
        return {"kind": kind, "generator": generator,
                "epsilon": data.draw(st.floats(1e-6, 0.5))}
    n_out = data.draw(st.integers(1, 3))
    labels = [data.draw(st.integers(0, n_out - 1)) for _ in range(dim)]
    shift = 1 if kind == "efficient" else 0
    ops = [[[_entry(1.0 if labels[j] == n and i == (j + shift) % dim else 0.0)
             for j in range(dim)] for i in range(dim)] for n in range(n_out)]
    if kind == "inefficient":
        half = [[[[x * math.sqrt(0.5), y] for x, y in row] for row in op] for op in ops]
        return {"kind": kind, "groups": [[op, op] for op in half]}
    return {"kind": kind, "operators": ops}


def _leaves(node, path=()):
    """Paths of every number in a config tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


@st.composite
def config_trees(draw):
    data = draw(st.data())
    mode, kind = draw(st.sampled_from(MODES)), draw(st.sampled_from(KINDS))
    if mode == "continuous" and draw(st.booleans()):
        kind = "weak"
    dim = draw(st.integers(1, 6))
    tree = {
        "scenario_id": "fuzz",
        "run": {"mode": mode},
        "system": {"dim": dim, "hamiltonian": _hamiltonian(data, dim)},
        "bath": {"temperature": draw(st.floats(0.1, 10.0))},
        "measurement": _measurement(data, kind, dim),
    }
    if mode == "transform":
        tree["transform"] = {"h2": _hamiltonian(data, dim)}
    if mode == "continuous":
        tree["continuous"] = {"steps": draw(st.integers(1, 5))}
    leaves = _leaves(tree)
    scalars = [path for path in leaves if len(path) == 2]  # dim, temperature, steps, ...
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(scalars) | st.sampled_from(leaves))
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(EDGE_VALUES)
    return tree


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.yaml"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=config_trees())
def test_config_fuzz_exit_codes(fuzz_path, tree):
    """No config makes main raise; exit codes stay in {0, 1, 2, 3}; and a
    config that validates never makes run exit with a validation failure."""
    fuzz_path.write_text(yaml.safe_dump(tree))
    validated = _quiet_main(["validate", str(fuzz_path)])
    ran = _quiet_main(["run", str(fuzz_path)])
    assert validated in (0, 1, 2, 3) and ran in (0, 1, 2, 3)
    if validated == 0:
        assert ran != 1


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "qfeedback.cli", "run", "szilard"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "szilard" in proc.stdout
