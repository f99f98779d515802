"""Spans and counters around piezoband's public functions.

The traced run replaces module attributes of ``piezoband`` with wrappers
that record a span per call: name, start, end, parent span and counts
taken from the arguments and result. ``patched`` restores every attribute
it replaced, also when the traced code raises. Nothing in this file touches
``piezoband`` unless ``patched`` is entered.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict[str, float] = {}


class Tracer:
    """Keeps spans in memory; records only inside ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops = 0
        self._stack: list[int] = []
        self._recording = False
        self._pending: list[tuple[Span, object, list]] = []

    @contextlib.contextmanager
    def op(self):
        """Record the spans of one op; post-process them after it ends."""
        self._recording = True
        try:
            yield
        finally:
            self._recording = False
            self._stack.clear()
            self.ops += 1
            pending, self._pending = self._pending, []
        for span, cell, branches in pending:
            span.counts["max_residual"] = _max_residual(cell, branches)

    def wrap(self, name: str, fn, count=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, span, bound.arguments, result)
            return result

        return wrapper

    def defer_residual(self, span: Span, cell, branches) -> None:
        self._pending.append((span, cell, branches))


def _max_residual(cell, branches) -> float:
    """Worst |h - cos KT| over the roots, with the solver's own half-trace.

    This is the residual the solver certifies; the correctness checks use
    the independent half-trace in ``checks`` instead.
    """
    if not branches:
        return 0.0
    w = np.concatenate([b.omega for b in branches])
    k = np.concatenate([b.k for b in branches])
    h = sys.modules["piezoband.band_structure"].half_trace_values(cell, w)
    return float(np.max(np.abs(h - np.cos(k * cell.period))))


# --- what each layer counts ---------------------------------------------------


def _count_points(tracer, span, args, result):
    span.counts["points"] = float(np.size(args["omega"]))


def _count_scan(tracer, span, args, result):
    span.counts["nodes"] = float(len(result.nodes))
    span.counts["poles"] = float(len(result.poles))


def _count_trace(tracer, span, args, result):
    span.counts["samples"] = float(sum(len(b) for b in result))
    span.counts["slots"] = float(args["k_points"] * len(result))
    tracer.defer_residual(span, args["cell"], result)


def _count_stopbands(tracer, span, args, result):
    span.counts["intervals"] = float(len(result))


def _count_cli(tracer, span, args, result):
    argv = list(args["argv"] or [])
    if "--out" in argv:
        span.counts["bytes_written"] = float(os.path.getsize(argv[argv.index("--out") + 1]))


# (module, function, counter) for every layer the benchmark reports.
LAYERS = [
    ("transfer_matrix", "monodromy_entries", _count_points),
    ("transfer_matrix", "shunt_denominator", _count_points),
    ("band_structure", "scan_frequencies", _count_scan),
    ("band_structure", "trace_branches", _count_trace),
    ("band_structure", "stopbands", _count_stopbands),
    ("band_structure", "find_flat_capacitance", None),
    ("band_structure", "group_velocity", None),
    ("cli", "main", _count_cli),
    ("quasistatic", "effective_model", None),
    ("materials", "load_material_file", None),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap each layer function wherever a piezoband module refers to it.

    Modules import functions from each other by name, so the same function
    object can sit in several module namespaces; each of them is replaced
    and put back on exit.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "piezoband"]
    saved: list[tuple[object, str, object]] = []
    try:
        for module_name, func_name, count in LAYERS:
            original = getattr(sys.modules[f"piezoband.{module_name}"], func_name)
            wrapper = tracer.wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield saved
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op counts and times from the recorded spans.

    Self time is a span's duration minus the time its child spans cover.
    ``trace_branches.kernel_*`` count the kernel calls made by a trace
    itself (bisection), not those of a scan it builds; ``find_flat_capacitance
    .traces`` counts the traces it runs.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    by_name: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = by_name.setdefault(s.name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += s.end - s.start
        agg["self_s"] += s.end - s.start - child_time[i]
        for key, value in s.counts.items():
            if key == "max_residual":
                agg[key] = max(agg.get(key, 0.0), value)
            else:
                agg[key] = agg.get(key, 0.0) + value
        if s.parent is not None:
            # "caller<-callee" counts the calls a layer makes directly.
            parent = by_name.setdefault(f"{spans[s.parent].name}<-{s.name}", {})
            parent["calls"] = parent.get("calls", 0.0) + 1
            parent["points"] = parent.get("points", 0.0) + s.counts.get("points", 0.0)

    def get(name, key):
        return by_name.get(name, {}).get(key, 0.0)

    ops = max(tracer.ops, 1)
    kernel = "transfer_matrix.monodromy_entries"
    trace = "band_structure.trace_branches"
    out = {}
    for name, keys in [
        (kernel, ("calls", "points", "busy_s")),
        ("transfer_matrix.shunt_denominator", ("points",)),
        ("band_structure.scan_frequencies", ("calls", "busy_s", "self_s", "nodes", "poles")),
        (trace, ("calls", "busy_s", "self_s", "samples")),
        ("band_structure.stopbands", ("calls", "busy_s", "intervals")),
        ("band_structure.find_flat_capacitance", ("calls", "busy_s")),
        ("band_structure.group_velocity", ("calls", "busy_s")),
        ("cli.main", ("calls", "busy_s", "self_s", "bytes_written")),
        ("quasistatic.effective_model", ("calls", "busy_s")),
        ("materials.load_material_file", ("calls", "busy_s")),
    ]:
        for key in keys:
            out[f"{name}.{key}"] = get(name, key) / ops
    points = get(kernel, "points")
    out[f"{kernel}.ns_per_point"] = 1e9 * get(kernel, "busy_s") / points if points else 0.0
    out[f"{trace}.kernel_calls"] = get(f"{trace}<-{kernel}", "calls") / ops
    out[f"{trace}.kernel_points"] = get(f"{trace}<-{kernel}", "points") / ops
    slots = get(trace, "slots")
    out[f"{trace}.complete_ratio"] = get(trace, "samples") / slots if slots else 1.0
    out[f"{trace}.max_residual"] = get(trace, "max_residual")
    out["band_structure.find_flat_capacitance.traces"] = (
        get(f"band_structure.find_flat_capacitance<-{trace}", "calls") / ops
    )
    return out
