"""Span recorder for the traced benchmark run.

`Tracer.install` wraps, for the duration of one process, the public functions
and methods of every cipos layer module, plus the arithmetic operators of its
classes.  Each wrapped call is a span on a stack: its self time is its
duration minus the time covered by the spans it caused.  Spans that cross
from one layer into another (or start at the root) are also kept as
(id, parent id, name, start, end) records in memory and written when the
process ends.  Counts that need the operands (term pairs of a product, size
of a tower class) are taken in the same wrappers.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types

LAYERS = ("polyring", "chow", "jets", "schur", "bounds", "vecfields", "cli")

# private names stay unwrapped, except the ring operators of the classes
OPERATORS = frozenset(
    ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
)

THRESHOLD = "bounds.shifted_positivity_threshold"

# per-layer metric -> wrapped names whose calls and self time it sums
GROUPS = {
    "polyring.init": ("polyring.MultidegreePoly.__init__",),
    "polyring.mul": ("polyring.MultidegreePoly.__mul__", "polyring.MultidegreePoly.__rmul__"),
    "polyring.add": ("polyring.MultidegreePoly.__add__", "polyring.MultidegreePoly.__radd__"),
    "polyring.shifted": ("polyring.MultidegreePoly.shifted",),
    "polyring.eval": ("polyring.MultidegreePoly.eval",),
    "polyring.derivative": ("polyring.MultidegreePoly.derivative",),
    "chow.mul": ("chow.ChowClass.__mul__", "chow.ChowClass.__rmul__"),
    "chow.segre_cotangent": ("chow.segre_cotangent",),
    "jets.mul": ("jets.JetClass.__mul__", "jets.JetClass.__rmul__"),
    "jets.pow": ("jets.JetClass.__pow__",),
    "jets.pushforward": ("jets.pushforward",),
    "jets.tower_segre": ("jets.tower_segre",),
    "jets.reduce_to_base": ("jets.reduce_to_base",),
    "schur.det": ("schur.schur_det",),
    "bounds.shifted_threshold": (THRESHOLD,),
    "vecfields.defining_equations": ("vecfields.defining_equations",),
    "vecfields.lie_derivative": ("vecfields.lie_derivative",),
    "vecfields.field_build": (
        "vecfields.solved_coefficient_field",
        "vecfields.coordinate_field",
        "vecfields.coefficient_shift_field",
        "vecfields.velocity_field",
    ),
    "vecfields.point_check": ("vecfields.point_tangency_check",),
    "cli.main": ("cli.main",),
}

# (name, unit, better) of every per-layer metric, in report order
METRICS = [
    ("polyring.init_calls", "count", "lower"),
    ("polyring.init_s", "s", "lower"),
    ("polyring.mul_calls", "count", "lower"),
    ("polyring.mul_s", "s", "lower"),
    ("polyring.mul_term_pairs", "count", "lower"),
    ("polyring.add_calls", "count", "lower"),
    ("polyring.add_s", "s", "lower"),
    ("polyring.shifted_calls", "count", "lower"),
    ("polyring.shifted_s", "s", "lower"),
    ("polyring.eval_calls", "count", "lower"),
    ("polyring.eval_s", "s", "lower"),
    ("polyring.derivative_s", "s", "lower"),
    ("polyring.self_s", "s", "lower"),
    ("chow.mul_calls", "count", "lower"),
    ("chow.mul_s", "s", "lower"),
    ("chow.segre_cotangent_s", "s", "lower"),
    ("chow.self_s", "s", "lower"),
    ("jets.mul_calls", "count", "lower"),
    ("jets.mul_s", "s", "lower"),
    ("jets.mul_term_pairs", "count", "lower"),
    ("jets.mul_terms_out", "count", "lower"),
    ("jets.mul_yield", "ratio", "higher"),
    ("jets.pow_s", "s", "lower"),
    ("jets.pushforward_calls", "count", "lower"),
    ("jets.pushforward_s", "s", "lower"),
    ("jets.tower_segre_calls", "count", "lower"),
    ("jets.reduce_to_base_s", "s", "lower"),
    ("jets.peak_class_terms", "count", "lower"),
    ("jets.self_s", "s", "lower"),
    ("schur.det_calls", "count", "lower"),
    ("schur.det_s", "s", "lower"),
    ("schur.self_s", "s", "lower"),
    ("bounds.shifted_threshold_calls", "count", "lower"),
    ("bounds.shifted_threshold_s", "s", "lower"),
    ("bounds.shift_probes", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("vecfields.defining_equations_calls", "count", "lower"),
    ("vecfields.defining_equations_s", "s", "lower"),
    ("vecfields.lie_derivative_calls", "count", "lower"),
    ("vecfields.lie_derivative_s", "s", "lower"),
    ("vecfields.field_build_s", "s", "lower"),
    ("vecfields.point_check_s", "s", "lower"),
    ("vecfields.self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
]


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.stack: list[list] = []  # [name, layer, span id, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.counts = {
            "polyring.mul_term_pairs": 0,
            "jets.mul_term_pairs": 0,
            "jets.mul_terms_out": 0,
            "jets.peak_class_terms": 0,
            "bounds.shift_probes": 0,
        }
        self._last_id = 0

    def wrap(self, name: str, layer: str, fn, after=None):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            boundary = parent is None or parent[1] != layer
            if boundary:
                self._last_id += 1
                span_id = self._last_id
            else:
                span_id = parent[2]
            frame = [name, layer, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                if boundary:
                    spans.append((span_id, parent[2] if parent else 0, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer module of the already imported cipos package."""
        modules = {layer: importlib.import_module(f"cipos.{layer}") for layer in LAYERS}
        poly_cls = modules["polyring"].MultidegreePoly
        jet_cls = modules["jets"].JetClass
        hooks = self._hooks(poly_cls, jet_cls)
        replaced: dict[int, tuple] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = f"{layer}.{attr}"
                    wrapper = self.wrap(name, layer, obj, hooks.get(name, hooks.get(layer)))
                    replaced[id(obj)] = (obj, wrapper)
                elif isinstance(obj, type):
                    self._wrap_class(layer, obj, hooks)
        # modules that imported a function by name hold their own reference
        for module_name, module in list(sys.modules.items()):
            if module_name != "cipos" and not module_name.startswith("cipos."):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = replaced.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, attr, wrapper)

    def _wrap_class(self, layer: str, cls: type, hooks: dict) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            after = hooks.get(name, hooks.get(layer))
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(name, layer, member, after))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, layer, member.__func__, after)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, layer, member.__func__, after)))

    def _hooks(self, poly_cls, jet_cls) -> dict:
        counts, stack = self.counts, self.stack

        def poly_mul(args, result):
            other = args[1]
            width = len(other.terms) if isinstance(other, poly_cls) else 1
            counts["polyring.mul_term_pairs"] += len(args[0].terms) * width

        def shifted(args, result):
            if any(frame[0] == THRESHOLD for frame in stack):
                counts["bounds.shift_probes"] += 1

        def jet_size(args, result):
            target = result if isinstance(result, jet_cls) else args[0] if args else None
            if isinstance(target, jet_cls) and len(target.terms) > counts["jets.peak_class_terms"]:
                counts["jets.peak_class_terms"] = len(target.terms)

        def jet_mul(args, result):
            other = args[1]
            width = len(other.terms) if isinstance(other, jet_cls) else 1
            counts["jets.mul_term_pairs"] += len(args[0].terms) * width
            if isinstance(result, jet_cls):
                counts["jets.mul_terms_out"] += len(result.terms)
            jet_size(args, result)

        return {
            "polyring.MultidegreePoly.__mul__": poly_mul,
            "polyring.MultidegreePoly.__rmul__": poly_mul,
            "polyring.MultidegreePoly.shifted": shifted,
            "jets.JetClass.__mul__": jet_mul,
            "jets.JetClass.__rmul__": jet_mul,
            "jets": jet_size,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"calls": self.calls, "self_s": self.self_s, "counts": self.counts, "spans": self.spans}, handle)


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of several processes (the peak is a maximum)."""
    total = {"calls": {}, "self_s": {}, "counts": {}}
    for dump in dumps:
        for key in ("calls", "self_s"):
            for name, value in dump[key].items():
                total[key][name] = total[key].get(name, 0) + value
        for name, value in dump["counts"].items():
            if name == "jets.peak_class_terms":
                total["counts"][name] = max(total["counts"].get(name, 0), value)
            else:
                total["counts"][name] = total["counts"].get(name, 0) + value
    return total


def layer_metrics(total: dict, rounds: int, wall_s: float) -> dict:
    """Per-layer metric values, per round of the workload."""
    calls, self_s, counts = total["calls"], total["self_s"], total["counts"]
    values: dict[str, float] = {}
    for group, names in GROUPS.items():
        values[f"{group}_calls"] = sum(calls.get(n, 0) for n in names) / rounds
        values[f"{group}_s"] = sum(self_s.get(n, 0.0) for n in names) / rounds
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer) / rounds
    for name, value in counts.items():
        values[name] = value if name == "jets.peak_class_terms" else value / rounds
    pairs = counts.get("jets.mul_term_pairs", 0)
    values["jets.mul_yield"] = counts.get("jets.mul_terms_out", 0) / pairs if pairs else 0.0
    probes, searches = counts.get("bounds.shift_probes", 0), calls.get(THRESHOLD, 0)
    values["bounds.shift_probes"] = probes / searches if searches else 0.0
    values["trace.wall_s"] = wall_s
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
