"""Span tracer wrapped around tdq's public entry points from outside the package.

``install`` replaces every binding of each traced function in every loaded
``tdq`` module (so ``from .linalg import subspace_sum`` in battery and engine is
covered too) and patches the traced ``Matrix`` and ``Scalar`` methods on their
classes.  ``uninstall`` puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, instance]`` lists and turned into per-layer
metrics by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# (defining module, attribute, span name)
FUNCTION_SPANS = (
    ("tdq.linalg", "subspace_sum", "linalg.subspace_sum"),
    ("tdq.linalg", "subspace_intersect", "linalg.subspace_intersect"),
    ("tdq.linalg", "eigenspace", "linalg.eigenspace"),
    ("tdq.qcalc", "q_exp", "qcalc.q_exp"),
    ("tdq.leonard", "leonard_suite", "leonard.leonard_suite"),
    ("tdq.leonard", "operator_matrix", "leonard.operator_matrix"),
    ("tdq.leonard", "exp_psi_matrix", "leonard.exp_psi_matrix"),
    ("tdq.leonard", "delta_matrix", "leonard.delta_matrix"),
    ("tdq.leonard", "transition_matrix", "leonard.transition_matrix"),
    ("tdq.engine", "derive_suite", "engine.derive_suite"),
    ("tdq.engine", "split_from_AK", "engine.split"),
    ("tdq.engine", "split_from_pair", "engine.split"),
    ("tdq.engine", "psi_from_KB", "engine.psi_from_KB"),
    ("tdq.engine", "delta_from_characterization", "engine.delta_char"),
    ("tdq.battery", "verify_battery", "battery.verify_battery"),
    ("tdq.fixtures", "read_fixture", "fixtures.read"),
    ("tdq.fixtures", "write_fixture", "fixtures.write"),
    ("tdq.fixtures", "write_json", "fixtures.write"),
)

# (defining module, attribute, counter name): counted, no span
FUNCTION_COUNTS = (
    ("tdq.qcalc", "q_fact", "qcalc.q_fact.calls"),
    ("tdq.parser", "parse_scalar", "parser.parse_scalar.calls"),
)

# (class attribute, span name); matmul spans only Matrix x Matrix products
MATRIX_SPANS = (
    ("__mul__", "linalg.matmul"),
    ("inverse", "linalg.inverse"),
    ("rref", "linalg.rref"),
)

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv")

# bindings made by ``from .x import f`` that a tracer must not miss
REQUIRED_BINDINGS = (
    ("tdq.battery", "subspace_sum"),
    ("tdq.engine", "subspace_sum"),
    ("tdq.engine", "subspace_intersect"),
    ("tdq.battery", "q_exp"),
    ("tdq.engine", "q_exp"),
    ("tdq.leonard", "q_exp"),
    ("tdq.leonard", "q_fact"),
    ("tdq.leonard", "psi_from_KB"),
    ("tdq.battery", "psi_from_KB"),
    ("tdq.engine", "eigenspace"),
    ("tdq.cli", "leonard_suite"),
    ("tdq.cli", "derive_suite"),
    ("tdq.cli", "verify_battery"),
    ("tdq.cli", "read_fixture"),
    ("tdq.cli", "write_json"),
    ("tdq.fixtures", "parse_scalar"),
)


class Tracer:
    """In-memory span and counter store; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.instance = None
        self._stack: list[int] = []
        self._scalar_ops = [0]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def adopt(self, spans: list, counts: dict) -> None:
        """Merge spans recorded by a child process under the open span."""
        base = len(self.spans)
        root = self._stack[-1] if self._stack else None
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end,
                               root if parent is None else base + parent, self.instance])
        self.counts.update(counts)

    def snapshot_counts(self) -> Counter:
        out = Counter(self.counts)
        out["scalars.ops"] += self._scalar_ops[0]
        return out

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _write_json_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(path, doc):
            fn(path, doc)
            counts["fixtures.bytes"] += os.path.getsize(path)
        return self._span_wrapper("fixtures.write", wrapper)

    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tdq" or mod_name.startswith("tdq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        importlib.import_module("tdq.cli")  # loads every tdq module
        for mod_name, attr, name in FUNCTION_SPANS:
            original = getattr(importlib.import_module(mod_name), attr)
            if attr == "write_json":
                wrapper = self._write_json_wrapper(original)
            else:
                wrapper = self._span_wrapper(name, original)
            self._rebind_everywhere(original, wrapper)
        for mod_name, attr, name in FUNCTION_COUNTS:
            original = getattr(importlib.import_module(mod_name), attr)
            self._rebind_everywhere(original, self._count_wrapper(name, original))

        from tdq.linalg import Matrix
        from tdq.scalars import Scalar

        for attr, name in MATRIX_SPANS:
            original = Matrix.__dict__[attr]
            if attr == "__mul__":
                wrapper = self._matmul_wrapper(original, Matrix)
            else:
                wrapper = self._span_wrapper(name, original)
            self._undo.append((Matrix, attr, original))
            setattr(Matrix, attr, wrapper)
        cell = self._scalar_ops
        for attr in SCALAR_OPS:
            original = Scalar.__dict__[attr]
            self._undo.append((Scalar, attr, original))
            setattr(Scalar, attr, _counted(original, cell))

    def _matmul_wrapper(self, original, matrix_cls):
        @functools.wraps(original)
        def wrapper(left, right):
            if not isinstance(right, matrix_cls):
                return original(left, right)
            idx = self.open("linalg.matmul")
            try:
                return original(left, right)
            finally:
                self.close(idx)
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def unpatched(self) -> list[str]:
        """Required bindings that still hold an unwrapped function."""
        missing = []
        for mod_name, attr in REQUIRED_BINDINGS:
            value = getattr(sys.modules[mod_name], attr)
            if not hasattr(value, "__wrapped__"):
                missing.append(f"{mod_name}.{attr}")
        return missing


def _counted(fn, cell):
    @functools.wraps(fn)
    def wrapper(*args):
        cell[0] += 1
        return fn(*args)
    return wrapper


# -- metrics ------------------------------------------------------------------

LINALG_OPS = ("matmul", "inverse", "rref", "subspace_sum", "subspace_intersect")

# every span name a traced pass of each workload must produce at least once
EXPECTED_SPANS = {
    "common": ("linalg.matmul", "linalg.inverse", "linalg.rref", "linalg.subspace_sum",
               "linalg.subspace_intersect", "linalg.eigenspace", "qcalc.q_exp",
               "engine.derive_suite", "engine.split", "engine.psi_from_KB",
               "engine.delta_char", "battery.verify_battery", "fixtures.read",
               "fixtures.write"),
    "generate": ("leonard.leonard_suite", "leonard.operator_matrix",
                 "leonard.exp_psi_matrix", "leonard.delta_matrix",
                 "leonard.transition_matrix"),
}
EXPECTED_COUNTS = ("scalars.ops", "qcalc.q_fact.calls", "parser.parse_scalar.calls",
                   "fixtures.bytes")


def coverage_problems(spans: list, counts: dict, generates: bool) -> list[str]:
    """Entry points with zero calls where calls are expected, and leonard
    calls on a workload that must not generate."""
    seen = Counter(s[0] for s in spans)
    expected = EXPECTED_SPANS["common"] + (EXPECTED_SPANS["generate"] if generates else ())
    problems = [f"no calls to {name}" for name in expected if not seen[name]]
    problems += [f"no {name}" for name in EXPECTED_COUNTS if not counts.get(name)]
    if not generates:
        problems += [f"unexpected calls to {name}" for name in EXPECTED_SPANS["generate"]
                     if seen[name]]
    return problems


def layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield p
            p = spans[p][3]

    def select(name, parent=None, under=None):
        for i, s in enumerate(spans):
            if s[0] != name:
                continue
            if any(spans[a][0] == name for a in ancestors(i)):
                continue  # nested in a span of the same name: already counted
            if parent is not None and (s[3] is None or spans[s[3]][0] != parent):
                continue
            if under is not None and not any(spans[a][0] == under for a in ancestors(i)):
                continue
            yield i

    def incl(name, **kw):
        return sum(dur[i] for i in select(name, **kw))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def self_time(pred):
        return sum(dur[i] - child[i] for i, s in enumerate(spans) if pred(s[0]))

    m: dict[str, float] = {
        "scalars.ops": counts.get("scalars.ops", 0),
        "parser.parse_scalar.calls": counts.get("parser.parse_scalar.calls", 0),
        "fixtures.read_s": incl("fixtures.read"),
        "fixtures.write_s": incl("fixtures.write"),
        "fixtures.bytes": counts.get("fixtures.bytes", 0),
    }
    for op in LINALG_OPS:
        name = f"linalg.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}_s"] = self_time(lambda x, name=name: x == name)
    m.update({
        "qcalc.q_exp.calls": calls("qcalc.q_exp"),
        "qcalc.q_exp_s": incl("qcalc.q_exp"),
        "qcalc.q_fact.calls": counts.get("qcalc.q_fact.calls", 0),
        "leonard.leonard_suite_s": incl("leonard.leonard_suite"),
        "leonard.operator_matrix.calls": calls("leonard.operator_matrix"),
        "leonard.operator_matrix_s": incl("leonard.operator_matrix"),
        "leonard.exp_psi_matrix.calls": calls("leonard.exp_psi_matrix"),
        "leonard.delta_matrix.calls": calls("leonard.delta_matrix"),
        "leonard.transition_matrix_s": incl("leonard.transition_matrix"),
        "engine.derive_suite_s": incl("engine.derive_suite"),
        "engine.split_s": incl("engine.split", under="engine.derive_suite"),
        "engine.psi_s": incl("engine.psi_from_KB", under="engine.derive_suite"),
        "engine.delta_char_s": incl("engine.delta_char", under="engine.derive_suite"),
        "engine.w_s": incl("linalg.eigenspace", parent="engine.derive_suite"),
        "engine.self_s": self_time(lambda x: x == "engine.derive_suite"),
        "cli.self_s": self_time(lambda x: x.startswith("cli.")),
    })
    return m


def dump(path: str, spans: list, counts: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "counts": dict(counts)}, handle)
