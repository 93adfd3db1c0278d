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
      temperature: 1.0
    constants:                   # optional
      k: 1.0
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
    numerics:                    # optional
      lambda_floor: 1.0e-12
      p_floor: 1.0e-14

Unknown keys anywhere are rejected with the offending field path, and so are
numbers that are not finite.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .errors import DomainError, ParseError, UnknownParameterError, ValidationError
from .feedback import CONTINUOUS_EPSILON_RANGE, DEFAULT_LAMBDA_FLOOR
from .linalg import HERMITICITY_TOL, dagger
from .measurement import DEFAULT_P_FLOOR, MeasurementModel
from .thermo import Hamiltonian

# libyaml's C scanner and parser when the install has them, else PyYAML's pure
# Python ones; both build the tree with SafeConstructor, so the trees agree.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Both loaders build nested collections by recursion: the pure-Python one
# runs out of Python stack a few hundred levels deep, and libyaml overflows
# the C stack (a segfault) about 20,000 levels deep on an 8 MB stack.  A valid
# config nests seven deep, so deeper texts are rejected before they are built.
MAX_NESTING = 100

MODES = ("cycle", "transform", "continuous", "controller")
KINDS = ("bare", "efficient", "inefficient", "weak")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully validated scenario, plus the raw tree it came from (kept so
    sweeps can mutate one field and re-validate)."""

    scenario_id: str
    mode: str
    dim: int
    hamiltonian: Hamiltonian
    temperature: float
    k: float
    model: MeasurementModel
    h2: Hamiltonian | None
    steps: int
    lambda_floor: float
    p_floor: float
    raw: dict = field(repr=False, compare=False)


def _expect_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ValidationError(path, f"expected a mapping, got {type(node).__name__}")
    return node


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


def _parse_matrix(node, path: str, dim: int | None = None) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ValidationError(path, "expected a non-empty list of rows")
    n = len(node)
    if dim is not None and n != dim:
        raise ValidationError(path, f"expected {dim} rows, got {n}")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != n:
            raise ValidationError(f"{path}[{i}]", f"expected a row of {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_entry(entry, f"{path}[{i}][{j}]")
    return out


def _check_hermitian(m: np.ndarray, path: str):
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


def _parse_measurement(node, path: str, dim: int) -> MeasurementModel:
    node = _expect_mapping(node, path)
    kind = _as_str(_get(node, "kind", path), f"{path}.kind")
    if kind not in KINDS:
        raise ValidationError(f"{path}.kind", f"must be one of {', '.join(KINDS)}")

    if kind in ("bare", "efficient"):
        _reject_unknown(node, path, {"kind", "operators"})
        ops_node = _get(node, "operators", path)
        if not isinstance(ops_node, list) or not ops_node:
            raise ValidationError(f"{path}.operators", "expected a non-empty list of matrices")
        ops = []
        for i, op in enumerate(ops_node):
            m = _parse_matrix(op, f"{path}.operators[{i}]", dim)
            if kind == "bare":
                _check_hermitian(m, f"{path}.operators[{i}]")
            ops.append(m)
        builder = MeasurementModel.bare if kind == "bare" else MeasurementModel.efficient
        return builder(ops)

    if kind == "inefficient":
        _reject_unknown(node, path, {"kind", "groups"})
        groups_node = _get(node, "groups", path)
        if not isinstance(groups_node, list) or not groups_node:
            raise ValidationError(f"{path}.groups", "expected a non-empty list of operator lists")
        groups = []
        for i, group in enumerate(groups_node):
            if not isinstance(group, list) or not group:
                raise ValidationError(
                    f"{path}.groups[{i}]", "expected a non-empty list of matrices"
                )
            groups.append(
                [_parse_matrix(op, f"{path}.groups[{i}][{j}]", dim) for j, op in enumerate(group)]
            )
        return MeasurementModel.inefficient(groups)

    _reject_unknown(node, path, {"kind", "generator", "epsilon"})
    generator = _parse_matrix(_get(node, "generator", path), f"{path}.generator", dim)
    _check_hermitian(generator, f"{path}.generator")
    epsilon = _as_float(_get(node, "epsilon", path), f"{path}.epsilon")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"{path}.epsilon", f"must lie in (0, 1), got {epsilon!r}")
    try:
        return MeasurementModel.weak(generator, epsilon)
    except DomainError as exc:
        raise ValidationError(f"{path}.generator", str(exc)) from None


def parse_dict(data, source: str = "<config>") -> ScenarioConfig:
    """Validate an already-loaded config tree."""
    if not isinstance(data, dict):
        raise ParseError("", f"{source}: top level must be a mapping")
    _reject_unknown(
        data,
        "",
        {
            "scenario_id",
            "run",
            "system",
            "bath",
            "constants",
            "measurement",
            "transform",
            "continuous",
            "numerics",
        },
    )
    scenario_id = _as_str(_get(data, "scenario_id", ""), "scenario_id")

    run = _expect_mapping(_get(data, "run", ""), "run")
    _reject_unknown(run, "run", {"mode"})
    mode = _as_str(_get(run, "mode", "run"), "run.mode")
    if mode not in MODES:
        raise ValidationError("run.mode", f"must be one of {', '.join(MODES)}")

    system = _expect_mapping(_get(data, "system", ""), "system")
    _reject_unknown(system, "system", {"dim", "hamiltonian"})
    dim = _as_int(_get(system, "dim", "system"), "system.dim")
    if dim < 1:
        raise ValidationError("system.dim", f"must be a positive integer, got {dim}")
    hamiltonian = _parse_hamiltonian(
        _get(system, "hamiltonian", "system"), "system.hamiltonian", dim
    )

    bath = _expect_mapping(_get(data, "bath", ""), "bath")
    _reject_unknown(bath, "bath", {"temperature"})
    temperature = _as_float(_get(bath, "temperature", "bath"), "bath.temperature")
    if temperature <= 0.0:
        raise ValidationError("bath.temperature", f"must be > 0, got {temperature!r}")

    k = 1.0
    if "constants" in data:
        constants = _expect_mapping(data["constants"], "constants")
        _reject_unknown(constants, "constants", {"k"})
        if "k" in constants:
            k = _as_float(constants["k"], "constants.k")
            if k <= 0.0:
                raise ValidationError("constants.k", f"must be > 0, got {k!r}")

    model = _parse_measurement(_get(data, "measurement", ""), "measurement", dim)
    if mode == "controller" and model.kind.value not in ("bare", "weak"):
        raise ValidationError("measurement.kind", "controller mode requires a bare or weak model")
    if mode == "continuous":
        if model.kind.value != "weak":
            raise ValidationError("measurement.kind", "continuous mode requires a weak model")
        lo, hi = CONTINUOUS_EPSILON_RANGE
        if not lo <= model.strength <= hi:
            raise ValidationError(
                "measurement.epsilon",
                f"continuous mode needs it in [{lo:g}, {hi:g}], got {model.strength!r}",
            )

    h2 = None
    if mode == "transform":
        transform = _expect_mapping(_get(data, "transform", ""), "transform")
        _reject_unknown(transform, "transform", {"h2"})
        h2 = _parse_hamiltonian(_get(transform, "h2", "transform"), "transform.h2", dim)
    elif "transform" in data:
        raise ValidationError("transform", "only valid when run.mode is transform")

    steps = 1
    if mode == "continuous":
        if "continuous" in data:
            continuous = _expect_mapping(data["continuous"], "continuous")
            _reject_unknown(continuous, "continuous", {"steps"})
            if "steps" in continuous:
                steps = _as_int(continuous["steps"], "continuous.steps")
                _as_float(steps, "continuous.steps")  # the work per step is scaled by it
                if steps < 1:
                    raise ValidationError("continuous.steps", f"must be >= 1, got {steps}")
    elif "continuous" in data:
        raise ValidationError("continuous", "only valid when run.mode is continuous")

    lambda_floor, p_floor = DEFAULT_LAMBDA_FLOOR, DEFAULT_P_FLOOR
    if "numerics" in data:
        numerics = _expect_mapping(data["numerics"], "numerics")
        _reject_unknown(numerics, "numerics", {"lambda_floor", "p_floor"})
        if "lambda_floor" in numerics:
            lambda_floor = _as_float(numerics["lambda_floor"], "numerics.lambda_floor")
            if not 0.0 < lambda_floor < 1.0:
                raise ValidationError("numerics.lambda_floor", "must lie in (0, 1)")
        if "p_floor" in numerics:
            p_floor = _as_float(numerics["p_floor"], "numerics.p_floor")
            if not 0.0 <= p_floor < 1.0:
                raise ValidationError("numerics.p_floor", "must lie in [0, 1)")

    return ScenarioConfig(
        scenario_id=scenario_id,
        mode=mode,
        dim=dim,
        hamiltonian=hamiltonian,
        temperature=temperature,
        k=k,
        model=model,
        h2=h2,
        steps=steps,
        lambda_floor=lambda_floor,
        p_floor=p_floor,
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


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse and validate scenario text; errors carry the offending field path."""
    try:
        if _nests_too_deep(text):
            raise ParseError("", f"{source}: collections nest deeper than {MAX_NESTING} levels")
        data = yaml.load(text, Loader=YAML_LOADER)
    # libyaml encodes the text to UTF-8 first, so a lone surrogate fails there
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        raise ParseError("", f"{source}: {exc}") from exc
    return parse_dict(data, source)


def _resolve_path(tree: dict, dotted: str):
    """Walk ``a.b[2].c`` style paths through the raw tree; returns
    (container, final key/index)."""
    node = tree
    parts = []
    for piece in dotted.split("."):
        name = piece
        indices = []
        while name.endswith("]"):
            cut = name.rindex("[")
            idx_text = name[cut + 1 : -1]
            try:
                indices.insert(0, int(idx_text))
            except ValueError:
                raise UnknownParameterError(f"bad index {idx_text!r} in {dotted!r}") from None
            name = name[:cut]
        parts.append((name, indices))
    trail = None
    for name, indices in parts:
        if trail is not None:
            container, key = trail
            node = container[key]
        if not isinstance(node, dict) or name not in node:
            raise UnknownParameterError(f"no such config field: {dotted!r}")
        trail = (node, name)
        for idx in indices:
            container, key = trail
            node = container[key]
            if not isinstance(node, list) or not -len(node) <= idx < len(node):
                raise UnknownParameterError(f"no such config field: {dotted!r}")
            trail = (node, idx)
    return trail


def with_value(config: ScenarioConfig, dotted: str, value: float) -> ScenarioConfig:
    """Copy the scenario with one numeric field replaced, re-validating the
    whole tree.  The path must already exist and hold a number."""
    tree = copy.deepcopy(config.raw)
    container, key = _resolve_path(tree, dotted)
    current = container[key]
    if isinstance(current, bool) or not isinstance(current, (int, float)):
        raise UnknownParameterError(f"{dotted!r} is not a numeric field")
    if isinstance(current, int) and float(value).is_integer():
        container[key] = int(value)  # keep integer fields integral
    else:
        container[key] = value
    tag = f"{config.scenario_id}[{dotted}={value:g}]"
    return replace(parse_dict(tree, source=tag), scenario_id=tag, raw=tree)
