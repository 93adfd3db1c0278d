"""The README against the code: its YAML config example passes ``parse_config``,
and every call in its Python blocks that names a ``qfeedback`` function binds to
that function's signature."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import qfeedback
from qfeedback.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def named_function(func: ast.expr):
    """The ``qfeedback`` callable a call's function expression names, such as
    ``run_cycle`` or ``MeasurementModel.weak``, or None when it names none."""
    names = []
    while isinstance(func, ast.Attribute):
        names.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    names.append(func.id)
    names.reverse()
    target = qfeedback
    for name in names[1:] if names[0] == "qfeedback" else names:
        target = getattr(target, name, None)
    return target if callable(target) else None


def readme_calls() -> list:
    calls = []
    for block in code_blocks("python"):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Call) and named_function(node.func) is not None:
                calls.append(pytest.param(node, id=ast.unparse(node.func)))
    return calls


def test_yaml_example_parses():
    (example,) = code_blocks("yaml")
    parse_config(example, source="README")


def test_python_blocks_call_qfeedback():
    assert len(readme_calls()) >= 4  # the four run_* functions at least


@pytest.mark.parametrize("call", readme_calls())
def test_python_call_binds_to_the_signature(call):
    assert not any(isinstance(a, ast.Starred) for a in call.args)
    assert all(k.arg is not None for k in call.keywords)
    signature = inspect.signature(named_function(call.func))
    signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
