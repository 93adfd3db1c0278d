"""Scenario configuration: a strict YAML key-tree.

Layout (all matrices are nested [re, im] pairs, row-major; Hamiltonians may
instead be given as a flat list of diagonal energies)::

    scenario_id: szilard
    run:
      mode: cycle                # cycle | transform | continuous | controller
    system:
      dim: 2
      hamiltonian: [0.0, 0.0]    # diagonal energies, or a full Hermitian matrix
    bath:
      temperature: 1.0           # kT, in the Hamiltonian's energy units
    measurement:
      kind: bare                 # bare | efficient | inefficient | weak
      operators: [ ... ]         # bare/efficient: list of matrices
      # groups: [ [ ... ], ... ] # inefficient: list of operator lists
      # generator: [ ... ]       # weak: Hermitian matrix, norm <= 1
      # epsilon: 0.1             # weak: strength in (0, 1); [1e-6, 0.5] in continuous mode
    transform:                   # transform mode only
      h2: [0.0, 0.0]
    continuous:                  # continuous mode only
      steps: 10

Unknown keys anywhere are rejected with the offending field path, and so are
numbers that are not finite.  A number in exponent form without a dot, such
as ``1e-3``, is read as a float, as YAML 1.2 and JSON read it; quoted, it
stays a string.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import DomainError, ParseError, UnknownParameterError, ValidationError
from .feedback import CONTINUOUS_EPSILON_RANGE
from .linalg import HERMITICITY_TOL, dagger
from .measurement import WEAK_STRENGTH_RANGE, MeasurementModel
from .thermo import Hamiltonian

# libyaml's C scanner and parser when the install has them, else PyYAML's pure
# Python ones; both build the tree with SafeConstructor, so the trees agree.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
# YAML 1.1 reads a float only with a dot in it, so 1e-3 would be a string
EXPONENT_FLOAT = re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$")

# Both loaders build nested collections by recursion: the pure-Python one
# runs out of Python stack a few hundred levels deep, and libyaml overflows
# the C stack (a segfault) about 20,000 levels deep on an 8 MB stack.  A valid
# config nests seven deep, so deeper texts are rejected before they are built.
MAX_NESTING = 100

MODES = ("cycle", "transform", "continuous", "controller")
# measurement kind -> the keys it takes besides ``kind``
KIND_KEYS = {
    "bare": ("operators",),
    "efficient": ("operators",),
    "inefficient": ("groups",),
    "weak": ("generator", "epsilon"),
}
KINDS = tuple(KIND_KEYS)
# top-level key -> the keys of its section (``scenario_id`` is a plain string);
# ``transform`` and ``continuous`` are read only in the run mode of their name
SECTIONS = {
    "scenario_id": (),
    "run": ("mode",),
    "system": ("dim", "hamiltonian"),
    "bath": ("temperature",),
    "measurement": ("kind", *dict.fromkeys(key for keys in KIND_KEYS.values() for key in keys)),
    "transform": ("h2",),
    "continuous": ("steps",),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario, plus the raw tree it came from (kept so
    sweeps can mutate one field and re-validate)."""

    scenario_id: str
    mode: str
    dim: int
    hamiltonian: Hamiltonian
    temperature: float  # kT
    model: MeasurementModel
    h2: Hamiltonian | None
    steps: int
    raw: dict = field(repr=False, compare=False)


def _reject_unknown(node: dict, path: str, known):
    for key in node:
        if key not in known:
            where = f"{path}.{key}" if path else str(key)
            raise ValidationError(where, "unknown key")


def _get(node: dict, key: str, path: str):
    if key not in node:
        where = f"{path}.{key}" if path else key
        raise ValidationError(where, "missing required key")
    return node[key]


def _section(data: dict, name: str, required: bool = True) -> dict:
    """The mapping under a top-level key, holding only its section's keys; an
    absent optional section reads as empty."""
    if name not in data and not required:
        return {}
    node = _get(data, name, "")
    if not isinstance(node, dict):
        raise ValidationError(name, f"expected a mapping, got {type(node).__name__}")
    _reject_unknown(node, name, SECTIONS[name])
    return node


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, path: str) -> float:
    if not _is_number(value):
        raise ValidationError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(path, f"must be a finite number, got {number!r}")
    return number


def _bounded(node: dict, path: str, key: str, rule: str, ok) -> float:
    """``node[key]`` as a finite float for which ``ok`` holds, else an error
    whose message is ``rule`` formatted with the value; a missing key is an error."""
    where = f"{path}.{key}"
    value = _as_float(_get(node, key, path), where)
    if not ok(value):
        raise ValidationError(where, rule.format(value))
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(path, f"expected a string, got {type(value).__name__}")
    return value


def _parse_entry(node, path: str) -> complex:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise ValidationError(path, "matrix entry must be a [re, im] pair of numbers")
    return complex(_as_float(node[0], f"{path}[0]"), _as_float(node[1], f"{path}[1]"))


def _parse_matrix(node, path: str, dim: int) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ValidationError(path, "expected a non-empty list of rows")
    if len(node) != dim:
        raise ValidationError(path, f"expected {dim} rows, got {len(node)}")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}[{i}]", f"expected a row of {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{path}[{i}][{j}]")
    return out


def _non_empty_list(node, path: str, what: str) -> list:
    if not isinstance(node, list) or not node:
        raise ValidationError(path, f"expected a non-empty list of {what}")
    return node


def _parse_matrices(node, path: str, dim: int, hermitian: bool = False) -> list[np.ndarray]:
    """A non-empty list of dim x dim matrices, each Hermitian if asked."""
    out = []
    for i, op in enumerate(_non_empty_list(node, path, "matrices")):
        out.append(_parse_matrix(op, f"{path}[{i}]", dim))
        if hermitian:
            _check_hermitian(out[-1], f"{path}[{i}]")
    return out


def _check_hermitian(m: np.ndarray, path: str):
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf
        residual = np.abs(m - dagger(m))
    if residual.max() > HERMITICITY_TOL:
        i, j = np.unravel_index(int(np.argmax(residual)), residual.shape)
        raise ValidationError(
            f"{path}[{i}][{j}]",
            f"matrix is not Hermitian (entry disagrees with its transpose "
            f"conjugate by {residual[i, j]:.3e})",
        )


def _parse_hamiltonian(node, path: str, dim: int) -> Hamiltonian:
    if isinstance(node, list) and node and all(_is_number(x) for x in node):
        if len(node) != dim:
            raise ValidationError(path, f"expected {dim} diagonal energies, got {len(node)}")
        m = np.diag([_as_float(x, f"{path}[{i}]") for i, x in enumerate(node)])
    else:
        m = _parse_matrix(node, path, dim)
        _check_hermitian(m, path)
    try:
        return Hamiltonian.from_matrix(m)
    except DomainError as exc:
        raise ValidationError(path, str(exc)) from None


def _parse_measurement(data: dict, dim: int) -> MeasurementModel:
    path = "measurement"
    node = _section(data, path)
    kind = _as_str(_get(node, "kind", path), f"{path}.kind")
    if kind not in KINDS:
        raise ValidationError(f"{path}.kind", f"must be one of {', '.join(KINDS)}")
    _reject_unknown(node, path, ("kind", *KIND_KEYS[kind]))
    if kind in ("bare", "efficient"):
        ops = _get(node, "operators", path)
        builder = MeasurementModel.bare if kind == "bare" else MeasurementModel.efficient
        return builder(_parse_matrices(ops, f"{path}.operators", dim, hermitian=kind == "bare"))
    if kind == "inefficient":
        groups = _non_empty_list(_get(node, "groups", path), f"{path}.groups", "operator lists")
        return MeasurementModel.inefficient(
            [_parse_matrices(g, f"{path}.groups[{i}]", dim) for i, g in enumerate(groups)]
        )
    generator = _parse_matrix(_get(node, "generator", path), f"{path}.generator", dim)
    _check_hermitian(generator, f"{path}.generator")
    lo, hi = WEAK_STRENGTH_RANGE
    epsilon = _bounded(
        node, path, "epsilon", f"must lie in ({lo:g}, {hi:g}), got {{!r}}", lambda x: lo < x < hi
    )
    try:
        return MeasurementModel.weak(generator, epsilon)
    except DomainError as exc:
        raise ValidationError(f"{path}.generator", str(exc)) from None


def parse_dict(data, source: str = "<config>") -> ScenarioConfig:
    """Validate an already-loaded config tree."""
    if not isinstance(data, dict):
        raise ParseError("", f"{source}: top level must be a mapping")
    _reject_unknown(data, "", SECTIONS)
    scenario_id = _as_str(_get(data, "scenario_id", ""), "scenario_id")
    mode = _as_str(_get(_section(data, "run"), "mode", "run"), "run.mode")
    if mode not in MODES:
        raise ValidationError("run.mode", f"must be one of {', '.join(MODES)}")

    system = _section(data, "system")
    dim = _as_int(_get(system, "dim", "system"), "system.dim")
    if dim < 1:
        raise ValidationError("system.dim", f"must be a positive integer, got {dim}")
    hamiltonian = _parse_hamiltonian(
        _get(system, "hamiltonian", "system"), "system.hamiltonian", dim
    )
    bath = _section(data, "bath")
    temperature = _bounded(bath, "bath", "temperature", "must be > 0, got {!r}", lambda x: x > 0.0)

    model = _parse_measurement(data, dim)
    if mode == "continuous":
        if model.kind.value != "weak":
            raise ValidationError("measurement.kind", "continuous mode requires a weak model")
        lo, hi = CONTINUOUS_EPSILON_RANGE
        if not lo <= model.strength <= hi:
            raise ValidationError(
                "measurement.epsilon",
                f"continuous mode needs it in [{lo:g}, {hi:g}], got {model.strength!r}",
            )
    for name in ("transform", "continuous"):
        if name in data and mode != name:
            raise ValidationError(name, f"only valid when run.mode is {name}")

    h2 = None
    if mode == "transform":
        transform = _section(data, "transform")
        h2 = _parse_hamiltonian(_get(transform, "h2", "transform"), "transform.h2", dim)
    steps = _as_int(_section(data, "continuous", False).get("steps", 1), "continuous.steps")
    _as_float(steps, "continuous.steps")  # the work per step is scaled by it
    if steps < 1:
        raise ValidationError("continuous.steps", f"must be >= 1, got {steps}")

    return ScenarioConfig(
        scenario_id=scenario_id,
        mode=mode,
        dim=dim,
        hamiltonian=hamiltonian,
        temperature=temperature,
        model=model,
        h2=h2,
        steps=steps,
        raw=copy.deepcopy(data),
    )


def _nests_too_deep(text: str) -> bool:
    """Whether collections in the text nest deeper than MAX_NESTING.  Every
    collection opens with one of ``[{-?:``, so a text with no more of those
    than the limit is not walked; the walk reads the parse events, which
    neither loader builds by recursion."""
    if sum(map(text.count, "[{-?:")) <= MAX_NESTING:
        return False
    depth = 0
    for event in yaml.parse(text, Loader=YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                return True
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return False


@functools.cache
def config_loader(base: type) -> type:
    """A subclass of the loader ``base`` that also reads an exponent-form
    number such as 1e-3 as a float; ``base`` itself is left unchanged."""
    loader = type(f"Config{base.__name__}", (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", EXPONENT_FLOAT, list("-+0123456789"))
    return loader


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate scenario text; errors carry the offending field path."""
    try:
        if _nests_too_deep(text):
            raise ParseError("", f"{source}: collections nest deeper than {MAX_NESTING} levels")
        data = yaml.load(text, Loader=config_loader(YAML_LOADER))
    # libyaml encodes the text to UTF-8 first, so a lone surrogate fails there
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        raise ParseError("", f"{source}: {exc}") from exc
    return parse_dict(data, source)


def _resolve_path(tree: dict, dotted: str):
    """Walk an ``a.b[2].c`` style path through the raw tree, one name or
    ``[index]`` token at a time; returns (container, final key/index)."""
    container, key, node = None, None, tree
    for token in re.split(r"\.|(?=\[)", dotted):
        if token.startswith("[") and token.endswith("]"):
            try:
                key = int(token[1:-1])
            except ValueError:
                raise UnknownParameterError(f"bad index {token[1:-1]!r} in {dotted!r}") from None
            found = isinstance(node, list) and -len(node) <= key < len(node)
        else:
            key = token
            found = isinstance(node, dict) and key in node
        if not found:
            raise UnknownParameterError(f"no such config field: {dotted!r}")
        container, node = node, node[key]
    return container, key


def with_value(config: ScenarioConfig, dotted: str, value: float) -> ScenarioConfig:
    """Copy the scenario with one numeric field replaced, re-validating the
    whole tree.  The path must already exist and hold a number.  The variant's
    id is tagged with the value's ``:g`` text, or with its shortest exact
    text when the ``:g`` one would read back as another number."""
    tree = copy.deepcopy(config.raw)
    container, key = _resolve_path(tree, dotted)
    current = container[key]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise UnknownParameterError(f"{dotted!r} is not a numeric field")
    if isinstance(current, int) and float(value).is_integer():
        container[key] = int(value)  # keep integer fields integral
    else:
        container[key] = value
    text = f"{value:g}"
    if float(text) != value:
        text = repr(float(value)).removesuffix(".0")
    tag = f"{config.scenario_id}[{dotted}={text}]"
    return replace(parse_dict(tree, source=tag), scenario_id=tag, raw=tree)
