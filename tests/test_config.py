"""Config parsing: strict key trees, field-path errors, sweep edits."""

import copy

import numpy as np
import pytest

from qfeedback.config import parse_config, parse_dict, with_value
from qfeedback.controller import correlate
from qfeedback.errors import InvalidModelError, ParseError, UnknownParameterError, ValidationError
from qfeedback.measurement import MeasurementModel
from qfeedback.thermo import Hamiltonian, thermal_state


def minimal(mode="cycle"):
    """A small valid scenario tree; tests copy and break one field at a time."""
    data = {
        "scenario_id": "unit",
        "run": {"mode": mode},
        "system": {"dim": 2, "hamiltonian": [0.0, 1.0]},
        "bath": {"temperature": 1.0},
        "measurement": {
            "kind": "bare",
            "operators": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            ],
        },
    }
    if mode == "transform":
        data["transform"] = {"h2": [0.0, 2.0]}
    if mode == "continuous":
        data["measurement"] = {
            "kind": "weak",
            "generator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            "epsilon": 0.3,
        }
        data["continuous"] = {"steps": 4}
    return data


class TestParseDict:
    def test_minimal_cycle(self):
        config = parse_dict(minimal())
        assert config.scenario_id == "unit"
        assert config.mode == "cycle"
        assert config.dim == 2
        assert config.temperature == 1.0
        assert config.h2 is None
        assert config.steps == 1
        assert config.model.kind.value == "bare"
        np.testing.assert_allclose(np.diag(config.hamiltonian.matrix).real, [0.0, 1.0])

    def test_diagonal_shorthand_matches_full_matrix(self):
        short = parse_dict(minimal())
        full = minimal()
        full["system"]["hamiltonian"] = [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0]],
        ]
        long = parse_dict(full)
        np.testing.assert_allclose(short.hamiltonian.matrix, long.hamiltonian.matrix)

    def test_transform_mode(self):
        config = parse_dict(minimal("transform"))
        assert config.mode == "transform"
        np.testing.assert_allclose(np.diag(config.h2.matrix).real, [0.0, 2.0])

    def test_continuous_mode(self):
        config = parse_dict(minimal("continuous"))
        assert config.steps == 4
        assert config.model.kind.value == "weak"
        assert config.model.strength == 0.3

    def test_inefficient_groups(self):
        data = minimal()
        half = 0.5
        data["measurement"] = {
            "kind": "inefficient",
            "groups": [
                [
                    [[[half, 0.0], [half, 0.0]], [[half, 0.0], [half, 0.0]]],
                    [[[half, 0.0], [-half, 0.0]], [[-half, 0.0], [half, 0.0]]],
                ]
            ],
        }
        config = parse_dict(data)
        assert config.model.kind.value == "inefficient"
        assert len(config.model.groups) == 1
        assert len(config.model.groups[0]) == 2


class TestRejection:
    def check(self, data, path_prefix):
        with pytest.raises(ValidationError) as err:
            parse_dict(data)
        assert err.value.path.startswith(path_prefix), err.value

    def test_negative_temperature(self):
        data = minimal()
        data["bath"]["temperature"] = -1.0
        self.check(data, "bath.temperature")

    def test_zero_temperature(self):
        data = minimal()
        data["bath"]["temperature"] = 0.0
        self.check(data, "bath.temperature")

    def test_non_hermitian_matrix_names_entry(self):
        data = minimal()
        data["system"]["hamiltonian"] = [
            [[0.0, 0.0], [0.2, 0.0]],
            [[0.3, 0.0], [1.0, 0.0]],
        ]
        self.check(data, "system.hamiltonian[0][1]")

    def test_matrix_entry_must_be_pair(self):
        data = minimal()
        data["system"]["hamiltonian"] = [[1.0, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        self.check(data, "system.hamiltonian[0][0]")

    def test_row_length(self):
        data = minimal()
        data["system"]["hamiltonian"] = [[[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        self.check(data, "system.hamiltonian[0]")

    def test_diagonal_length_mismatch(self):
        data = minimal()
        data["system"]["hamiltonian"] = [0.0, 1.0, 2.0]
        self.check(data, "system.hamiltonian")

    def test_unknown_top_level_key(self):
        data = minimal()
        data["extra"] = 1
        self.check(data, "extra")

    def test_unknown_nested_key(self):
        data = minimal()
        data["system"]["basis"] = "z"
        self.check(data, "system.basis")

    def test_missing_section(self):
        data = minimal()
        del data["bath"]
        self.check(data, "bath")

    def test_bad_mode(self):
        data = minimal()
        data["run"]["mode"] = "bogus"
        self.check(data, "run.mode")

    def test_bad_kind(self):
        data = minimal()
        data["measurement"]["kind"] = "projective"
        self.check(data, "measurement.kind")

    def test_dim_not_positive(self):
        data = minimal()
        data["system"]["dim"] = 0
        self.check(data, "system.dim")

    def test_dim_must_be_int(self):
        data = minimal()
        data["system"]["dim"] = 2.0
        self.check(data, "system.dim")

    def test_bool_is_not_a_number(self):
        data = minimal()
        data["bath"]["temperature"] = True
        self.check(data, "bath.temperature")

    def test_weak_epsilon_out_of_range(self):
        for eps in (0.0, 1.0, -0.2):
            data = minimal()
            data["measurement"] = {
                "kind": "weak",
                "generator": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
                "epsilon": eps,
            }
            self.check(data, "measurement.epsilon")

    def test_weak_rejects_operator_list(self):
        data = minimal()
        data["measurement"]["kind"] = "weak"
        # leftover bare-style key must be flagged, not ignored
        self.check(data, "measurement.operators")

    def test_continuous_requires_weak(self):
        data = minimal("continuous")
        data["measurement"] = minimal()["measurement"]
        self.check(data, "measurement.kind")

    def test_transform_section_needs_transform_mode(self):
        data = minimal()
        data["transform"] = {"h2": [0.0, 2.0]}
        self.check(data, "transform")

    def test_continuous_section_needs_continuous_mode(self):
        data = minimal()
        data["continuous"] = {"steps": 3}
        self.check(data, "continuous")

    def test_transform_mode_needs_section(self):
        data = minimal("transform")
        del data["transform"]
        self.check(data, "transform")

    def test_empty_operator_list(self):
        data = minimal()
        data["measurement"]["operators"] = []
        self.check(data, "measurement.operators")

    def test_empty_inefficient_group(self):
        data = minimal()
        data["measurement"] = {"kind": "inefficient", "groups": [[]]}
        self.check(data, "measurement.groups[0]")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_numbers_name_their_field(self, value):
        data = minimal()
        data["bath"]["temperature"] = value
        self.check(data, "bath.temperature")
        data = minimal()
        data["system"]["hamiltonian"][1] = value
        self.check(data, "system.hamiltonian[1]")
        data = minimal()
        data["measurement"]["operators"][0][0][0][1] = value
        self.check(data, "measurement.operators[0][0][0][1]")

    def test_controller_mode_needs_positive_operators(self):
        data = minimal("controller")
        data["measurement"]["kind"] = "efficient"
        self.check(data, "measurement.kind")

    def test_controller_kinds_are_one_rule(self):
        # config validation and correlate read the same kinds, each with its own message
        data = minimal("controller")
        data["measurement"]["kind"] = "efficient"
        with pytest.raises(ValidationError) as info:
            parse_dict(data)
        assert str(info.value) == "measurement.kind: controller mode requires a bare or weak model"
        rho = thermal_state(Hamiltonian.diagonal([0.0, 1.0]), 1.0)
        with pytest.raises(InvalidModelError) as info:
            correlate(rho, MeasurementModel.efficient([np.eye(2)]))
        message = "controller correlation needs positive operators, got kind efficient"
        assert str(info.value) == message

    @pytest.mark.parametrize("eps", [0.0, 1.0])
    def test_weak_strength_range_is_one_rule(self, eps):
        # config validation and the weak builder read the same open interval
        data = minimal()
        data["measurement"] = dict(minimal("continuous")["measurement"], epsilon=eps)
        with pytest.raises(ValidationError) as info:
            parse_dict(data)
        assert str(info.value) == f"measurement.epsilon: must lie in (0, 1), got {eps!r}"
        with pytest.raises(InvalidModelError) as info:
            MeasurementModel.weak(np.diag([1.0, -1.0]), eps)
        assert str(info.value) == f"weak strength must lie in (0, 1), got {eps!r}"

    def test_lambda_floor_is_no_longer_a_key(self):
        # feedback is planned on each outcome's support; there is no floor to set,
        # and the numerics section that held it is gone
        data = minimal()
        data["numerics"] = {"lambda_floor": 1e-12}
        with pytest.raises(ValidationError, match="unknown key") as info:
            parse_dict(data)
        assert info.value.path == "numerics"

    @pytest.mark.parametrize("value", [0.0, 1e-14, 1e-3])
    def test_numerics_is_no_longer_a_section(self, value):
        # the drop floor is fixed at measurement.P_FLOOR; there is no floor to set
        data = minimal()
        data["numerics"] = {"p_floor": value}
        with pytest.raises(ValidationError, match="unknown key") as info:
            parse_dict(data)
        assert info.value.path == "numerics"

    def test_constants_is_no_longer_a_section(self):
        # the temperature is kT; there is no Boltzmann constant to set
        data = minimal()
        data["constants"] = {"k": 1.0}
        with pytest.raises(ValidationError, match="unknown key") as info:
            parse_dict(data)
        assert info.value.path == "constants"


class TestParseText:
    TEXT = """
scenario_id: text-demo
run: {mode: cycle}
system:
  dim: 2
  hamiltonian: [0.0, 0.5]
bath: {temperature: 2.0}
measurement:
  kind: weak
  generator:
    - [[1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0]]
  epsilon: 0.25
"""

    def test_yaml_text(self):
        config = parse_config(self.TEXT)
        assert config.scenario_id == "text-demo"
        assert config.temperature == 2.0
        assert config.model.strength == 0.25

    def test_exponent_floats_are_numbers(self):
        text = self.TEXT.replace("temperature: 2.0", "temperature: 1e-3").replace(
            "epsilon: 0.25", "epsilon: 25E-2"
        )
        config = parse_config(text)
        assert config.temperature == 1e-3
        assert config.model.strength == 0.25

    def test_quoted_exponent_stays_a_string(self):
        text = self.TEXT.replace("temperature: 2.0", "temperature: '1e-3'")
        with pytest.raises(ValidationError, match="expected a number, got str"):
            parse_config(text)

    def test_unparseable_text(self):
        with pytest.raises(ParseError):
            parse_config("run: [unclosed")

    def test_top_level_must_be_mapping(self):
        with pytest.raises(ParseError):
            parse_config("- 1\n- 2\n")


class TestWithValue:
    def test_scalar_field(self):
        base = parse_dict(minimal())
        edited = with_value(base, "bath.temperature", 2.0)
        assert edited.temperature == 2.0
        assert edited.scenario_id == "unit[bath.temperature=2]"
        # the original is untouched
        assert base.temperature == 1.0
        assert base.raw["bath"]["temperature"] == 1.0

    def test_indexed_path(self):
        base = parse_dict(minimal())
        edited = with_value(base, "system.hamiltonian[1]", 3.0)
        np.testing.assert_allclose(np.diag(edited.hamiltonian.matrix).real, [0.0, 3.0])

    def test_weak_epsilon(self):
        data = minimal("continuous")
        edited = with_value(parse_dict(data), "measurement.epsilon", 0.1)
        assert edited.model.strength == 0.1
        assert edited.scenario_id == "unit[measurement.epsilon=0.1]"

    def test_integer_fields_stay_integral(self):
        base = parse_dict(minimal("continuous"))
        edited = with_value(base, "continuous.steps", 8.0)
        assert edited.steps == 8
        assert isinstance(edited.raw["continuous"]["steps"], int)

    def test_unknown_path(self):
        base = parse_dict(minimal())
        with pytest.raises(UnknownParameterError):
            with_value(base, "bath.pressure", 1.0)

    def test_bad_index(self):
        base = parse_dict(minimal())
        with pytest.raises(UnknownParameterError):
            with_value(base, "system.hamiltonian[7]", 1.0)

    def test_non_numeric_field(self):
        base = parse_dict(minimal())
        with pytest.raises(UnknownParameterError):
            with_value(base, "scenario_id", 1.0)

    def test_revalidates(self):
        base = parse_dict(minimal())
        with pytest.raises(ValidationError):
            with_value(base, "bath.temperature", -1.0)

    def test_matrix_entry_component(self):
        data = minimal("continuous")
        base = parse_dict(data)
        edited = with_value(base, "measurement.generator[0][0][0]", 0.5)
        assert edited.model.generator[0, 0] == 0.5

    def test_raw_is_deep_copied(self):
        data = minimal()
        base = parse_dict(data)
        snapshot = copy.deepcopy(data)
        with_value(base, "bath.temperature", 9.0)
        assert data == snapshot
