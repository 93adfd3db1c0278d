"""Span tracer that wraps the program's public functions from outside.

Every public function defined in one of the layer modules is replaced, in
each ``qfeedback`` module that binds it, by a wrapper that records a span
(name, start, end, parent span, op id) while the tracer is active.
``DensityMatrix.from_matrix`` is wrapped on the class.  Spans stay in
memory; :meth:`Tracer.write` dumps them at the end of a run.

A span's self time is its duration minus the part of it covered by its child
spans.  A span opened on a worker thread with no open span of its own (the
sweep's thread pool) takes the main thread's innermost open span as parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("linalg", "thermo", "measurement", "feedback", "controller", "config", "ledger", "cli")
EIG = "linalg.eig_hermitian"
FROM_MATRIX = "thermo.DensityMatrix.from_matrix"
# Spans that carry (model kind, outcomes) so their eig calls can be checked
# against the per-cycle budget of the seed commit.
FORMULA_SPANS = ("feedback.run_cycle", "feedback.run_transform", "controller.run_controller_cycle")

# metric stem -> span names it sums over
STAGES = {
    "thermo.from_matrix": (FROM_MATRIX,),
    "thermo.thermal_state": ("thermo.thermal_state",),
    "thermo.entropy": ("thermo.von_neumann_entropy",),
    "thermo.trace_distance": ("thermo.trace_distance",),
    "measurement.apply": ("measurement.apply",),
    "measurement.validate": ("measurement.validate",),
    "feedback.plan": ("feedback.plan_feedback",),
    "feedback.execute": ("feedback.execute_plan",),
    "feedback.run": ("feedback.run_cycle", "feedback.run_transform", "feedback.run_continuous"),
    "controller.correlate": ("controller.correlate",),
    "controller.feedback_unitary": ("controller.feedback_unitary", "controller.apply_joint_unitary"),
    "controller.decohere": ("controller.decohere_controller", "controller.decohere_via_ancilla"),
    "controller.finalize": ("controller.finalize_branches",),
    "controller.reset": ("controller.reset_controller",),
    "config.parse": ("config.parse_config", "config.parse_dict", "config.with_value"),
    "ledger.emit": ("ledger.emit", "ledger.emit_csv", "ledger.emit_json"),
    "cli.run": (
        "cli.main", "cli.build_parser", "cli.load_config", "cli.run_scenario",
        "cli.cmd_run", "cli.cmd_validate", "cli.cmd_report",
    ),
    "cli.sweep": ("cli.cmd_sweep",),
}
CALL_METRICS = (
    "thermo.from_matrix", "thermo.thermal_state", "thermo.entropy",
    "thermo.trace_distance", "measurement.validate",
)
SELF_MS_METRICS = (
    "thermo.from_matrix", "thermo.thermal_state", "measurement.apply",
    "feedback.plan", "feedback.execute", "feedback.run",
    "controller.correlate", "controller.feedback_unitary", "controller.decohere",
    "controller.finalize", "controller.reset",
    "config.parse", "ledger.emit", "cli.run", "cli.sweep",
)
# (name, unit) of every per-layer metric, in report order
PER_LAYER_METRICS = (
    [
        ("linalg.eig_calls", "count"),
        ("linalg.eig_distinct_ratio", "ratio"),
        ("linalg.eig_n3", "count"),
        ("linalg.eig_self_ms", "ms"),
        ("linalg.eig_ns_per_n3", "ns"),
    ]
    + [(f"{stem}_calls", "count") for stem in CALL_METRICS]
    + [(f"{stem}_self_ms", "ms") for stem in SELF_MS_METRICS]
    + [("trace.overhead_frac", "ratio")]
)


def seed_eig_budget(span_name: str, kind: str, n_outcomes: int) -> int | None:
    """Eig calls one cycle made at the seed commit, or None if not pinned."""
    if span_name == "controller.run_controller_cycle":
        return 13 * n_outcomes + 13
    if kind == "efficient":
        return 11 * n_outcomes + 8
    if span_name == "feedback.run_cycle" and kind in ("bare", "weak"):
        return 12 * n_outcomes + 8
    return None


def _covered_ns(span, children) -> int:
    """Length of [start, end] covered by the union of the children's spans."""
    covered = 0
    reach = span[1]
    for start, end in sorted((c[1], c[2]) for c in children):
        start = max(start, reach)
        end = min(end, span[2])
        if end > start:
            covered += end - start
            reach = end
    return covered


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []  # [name, start_ns, end_ns, parent span or None, op, info]
        self.eig_inputs = defaultdict(set)  # op -> distinct eig inputs (shape, bytes)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _eig_info(self, args, kwargs) -> int:
        a = np.asarray(args[0] if args else kwargs["m"], dtype=complex)
        self.eig_inputs[self.op].add((a.shape, a.tobytes()))
        return a.shape[0]

    def _model_info(self, signature):
        def info(args, kwargs):
            model = signature.bind(*args, **kwargs).arguments["model"]
            return [model.kind.value, model.n_outcomes]

        return info

    def _wrap(self, name, fn, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            extra = info(args, kwargs) if info else None
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = [name, 0, 0, parent, tracer.op, extra]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qfeedback.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                info = None
                if name == EIG:
                    info = self._eig_info
                elif name in FORMULA_SPANS:
                    info = self._model_info(inspect.signature(fn))
                wrappers[fn] = self._wrap(name, fn, info)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "qfeedback"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        density = importlib.import_module("qfeedback.thermo").DensityMatrix
        raw = vars(density)["from_matrix"].__func__
        self._patch(density, "from_matrix", classmethod(self._wrap(FROM_MATRIX, raw)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _self_ns(self) -> list:
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append(span)
        return [s[2] - s[1] - _covered_ns(s, children.get(id(s), ())) for s in self.spans]

    def per_layer(self, n_ops: int) -> dict:
        """Per-op values of every per-layer metric except the overhead."""
        calls = Counter()
        self_ns = Counter()
        for span, own in zip(self.spans, self._self_ns()):
            calls[span[0]] += 1
            self_ns[span[0]] += own
        eig_calls = calls[EIG]
        eig_n3 = sum(s[5] ** 3 for s in self.spans if s[0] == EIG)
        distinct = sum(len(keys) for keys in self.eig_inputs.values())
        out = {
            "linalg.eig_calls": eig_calls / n_ops,
            "linalg.eig_distinct_ratio": distinct / eig_calls if eig_calls else 0.0,
            "linalg.eig_n3": eig_n3 / n_ops,
            "linalg.eig_self_ms": self_ns[EIG] / 1e6 / n_ops,
            "linalg.eig_ns_per_n3": self_ns[EIG] / eig_n3 if eig_n3 else 0.0,
        }
        for stem in CALL_METRICS:
            out[f"{stem}_calls"] = sum(calls[n] for n in STAGES[stem]) / n_ops
        for stem in SELF_MS_METRICS:
            out[f"{stem}_self_ms"] = sum(self_ns[n] for n in STAGES[stem]) / 1e6 / n_ops
        return out

    def calls_by_name(self) -> dict:
        return dict(sorted(Counter(s[0] for s in self.spans).items()))

    def eig_calls_by_caller(self) -> dict:
        """Eig calls grouped by the name of the span that made them."""
        callers = Counter(s[3][0] if s[3] else "<op>" for s in self.spans if s[0] == EIG)
        return dict(sorted(callers.items()))

    def eig_budget_check(self) -> dict:
        """Compare each cycle's eig calls with the seed commit's budget."""
        eig_per_cycle = Counter()
        for span in self.spans:
            if span[0] != EIG:
                continue
            owner = span[3]
            while owner is not None and owner[0] not in FORMULA_SPANS:
                owner = owner[3]
            if owner is not None:
                eig_per_cycle[id(owner)] += 1
        checked = matched = 0
        mismatches = Counter()
        for span in self.spans:
            if span[0] not in FORMULA_SPANS:
                continue
            kind, n_outcomes = span[5]
            budget = seed_eig_budget(span[0], kind, n_outcomes)
            if budget is None:
                continue
            checked += 1
            got = eig_per_cycle[id(span)]
            if got == budget:
                matched += 1
            else:
                mismatches[f"{span[0]} {kind} N={n_outcomes}: {got} vs {budget}"] += 1
        return {"checked": checked, "matched": matched, "mismatches": dict(mismatches)}

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [name, start, end, index[id(parent)] if parent else None, op, info]
            for name, start, end, parent, op, info in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "info"],
                       "spans": rows}, handle)
