"""Config YAML loaders: the libyaml loader that `config` picks, when the
install has it, builds the same trees as PyYAML's pure-Python SafeLoader and
rejects the same texts, so no ledger depends on which one parsed a config.
Both are compared as `config` reads them, with its exponent-float resolver."""

import contextlib
import io
import subprocess
import sys
from importlib import resources

import pytest
import yaml
from hypothesis import HealthCheck, given, settings

from qfeedback import config
from qfeedback.cli import main
from qfeedback.errors import ParseError, ValidationError

import test_config
from test_cli import (
    BAD_TEMPERATURE,
    CONTINUOUS_CONFIG,
    DEGENERATE_CONFIG,
    GOOD_CONFIG,
    PRESETS,
    ZERO_OUTCOME_CONFIG,
    config_trees,
)

LOADERS = pytest.mark.parametrize(
    "loader", [yaml.SafeLoader, config.YAML_LOADER], ids=["pure-python", "default"]
)

TEST_TEXTS = {
    "good": GOOD_CONFIG,
    "bad-temperature": BAD_TEMPERATURE,
    "degenerate": DEGENERATE_CONFIG,
    "continuous": CONTINUOUS_CONFIG,
    "zero-outcome": ZERO_OUTCOME_CONFIG,
    "parse-text": test_config.TestParseText.TEXT,
    "top-level-list": "- 1\n- 2\n",
}

# valid YAML whose scalars or layout resolve in less common ways
EDGE_TEXTS = {
    "hex-octal-underscore": "a: 0x1F\nb: 017\nc: 0o17\nd: 1_000\ne: 1_0.5\nf: 0b101\n",
    "sexagesimal": "a: 1:30\nb: 1:30.5\n",
    "special-floats": "a: .nan\nb: .NaN\nc: -.inf\nd: +.Inf\ne: -0.0\nf: 5.0e-324\n",
    "beyond-float": "a: 1.0e+400\nb: 1.0e-400\nc: 100000000000000000000000000000\n",
    "exponent-without-dot": "a: 1e3\nb: 1.e3\nc: .5\n",
    "exponent-forms": "a: 1e-3\nb: -2E+5\nc: +3e0\nd: '1e-3'\ne: \"1e-3\"\nf: 1e3x\ng: 1_0e3\n",
    "bools-and-nulls": "a: yes\nb: Off\nc: ~\nd: null\ne: ''\n",
    "quoted-escapes": "a: \"caf\\u00e9 \\t\\x41\"\nb: 'it''s'\nc: é\n",
    "anchors-and-merge": "base: &b {x: 1, y: [2, 3]}\nc: *b\nd:\n  <<: *b\n  x: 4\n",
    "byte-order-mark": "﻿scenario_id: bom\n",
    "crlf": "a: 1\r\nb: [2, 3]\r\n",
    "block-scalars": "a: |\n  one\n  two\nb: >-\n  three\n  four\n",
    "empty": "",
    "comment-only": "# nothing\n",
}

MALFORMED_TEXTS = {
    "unclosed-flow": "run: [unclosed",
    "tab-indent": "run:\n\tmode: cycle\n",
    "undefined-alias": "run: *missing\n",
    "python-object-tag": "run: !!python/object:os.system {}\n",
    "nul": "scenario_id: a\x00b\n",
    "control-character": "scenario_id: a\x07b\n",
    "lone-surrogate": "scenario_id: a\ud800b\n",
    "two-documents": "a: 1\n---\nb: 2\n",
    # one level past config.MAX_NESTING, counting the top-level mapping
    "deep-flow-sequence": "a: " + "[" * config.MAX_NESTING + "]" * config.MAX_NESTING,
    "deep-block-sequence": "a:\n" + "- " * config.MAX_NESTING + "x\n",
    "deep-flow-mapping": "a: " + "{b: " * config.MAX_NESTING + "}" * config.MAX_NESTING,
    "deep-block-mapping": "".join(" " * i + "a:\n" for i in range(config.MAX_NESTING + 1)),
}


def _canonical(node):
    """The tree with every float as its hex string (NaN and -0.0 kept
    apart from other values) and every leaf tagged with its type; mappings
    become lists of pairs, so key order counts too."""
    if isinstance(node, dict):
        return [(_canonical(k), _canonical(v)) for k, v in node.items()]
    if isinstance(node, list):
        return [_canonical(v) for v in node]
    if isinstance(node, float):
        return ("float", node.hex())
    return (type(node).__name__, node)


def _trees(text):
    return [_canonical(yaml.load(text, Loader=config.config_loader(loader)))
            for loader in (yaml.SafeLoader, config.YAML_LOADER)]


def _preset_text(name):
    return resources.files("qfeedback").joinpath("presets", f"{name}.yaml").read_text(
        encoding="utf-8"
    )


def test_default_loader_is_libyaml_when_installed():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert config.YAML_LOADER is expected


@LOADERS
def test_exponent_floats_are_read_as_numbers(loader):
    tree = yaml.load(EDGE_TEXTS["exponent-forms"], Loader=config.config_loader(loader))
    assert tree == {"a": 1e-3, "b": -2e5, "c": 3.0, "d": "1e-3", "e": "1e-3", "f": "1e3x",
                    "g": "1_0e3"}
    assert all(type(tree[key]) is float for key in "abc")
    # the loader it extends is left as it was
    assert yaml.load("a: 1e-3\n", Loader=loader) == {"a": "1e-3"}


@pytest.mark.parametrize("name", PRESETS)
def test_presets_load_alike(name):
    python, default = _trees(_preset_text(name))
    assert python == default


@pytest.mark.parametrize("text", list(TEST_TEXTS.values()) + list(EDGE_TEXTS.values()),
                         ids=list(TEST_TEXTS) + list(EDGE_TEXTS))
def test_texts_load_alike(text):
    python, default = _trees(text)
    assert python == default


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree=config_trees())
def test_dumped_config_trees_load_alike(tree):
    python, default = _trees(yaml.safe_dump(tree))
    assert python == default


@LOADERS
@pytest.mark.parametrize("text", MALFORMED_TEXTS.values(), ids=MALFORMED_TEXTS)
def test_malformed_text_is_parse_error(monkeypatch, loader, text):
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    with pytest.raises(ParseError):
        config.parse_config(text)


@LOADERS
def test_nesting_at_the_limit_is_built(monkeypatch, loader):
    depth = config.MAX_NESTING - 1
    monkeypatch.setattr(config, "YAML_LOADER", loader)
    with pytest.raises(ValidationError, match="a: unknown key"):
        config.parse_config("a: " + "[" * depth + "]" * depth)


def test_very_deep_config_is_invalid(tmp_path):
    # the pure-Python loader raised RecursionError here and libyaml's C
    # recursion overflows the stack, so run it in a process of its own
    path = tmp_path / "deep.yaml"
    path.write_text("a: " + "[" * 100_000 + "]" * 100_000 + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qfeedback.cli", "validate", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == (
        f"invalid: {path}: collections nest deeper than {config.MAX_NESTING} levels\n"
    )


def _run_stdout(preset) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", preset]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", PRESETS)
def test_pure_python_loader_runs_presets_alike(monkeypatch, name):
    default = _run_stdout(name)
    monkeypatch.setattr(config, "YAML_LOADER", yaml.SafeLoader)
    assert _run_stdout(name) == default
