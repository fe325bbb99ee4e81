"""Spans around the calls into each of the program's layers.

Wrappers are installed from the benchmark's own files, on the names that
callers look up: a function bound under several module globals (for
example `_dirichlet_draws`, imported by the CLI, the scorer, the sampler and
the bias code) is replaced under every one of them. A layer whose function
no longer exists is reported as absent; its metrics read 0.

One span per wrapped call holds (layer, start, end, parent span, count).
The count is whatever the layer's metrics need from the call, such as the
rows drawn or the quadrature evaluations; it is None when the call's
signature or result no longer has it. Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


def _arg(name: str):
    """Count extractor: the value of parameter `name` in the call."""

    def bind(fn):
        params = list(inspect.signature(fn).parameters)
        index = params.index(name) if name in params else None

        def get(args, kwargs, result):
            if name in kwargs:
                return kwargs[name]
            if index is not None and index < len(args):
                return args[index]
            return None

        return get

    return bind


def _result(fn_of_result: Callable[[Any], Any]):
    def bind(fn):
        return lambda args, kwargs, result: [fn_of_result(result)]

    return bind


def _draws_count(fn):
    get_params = _arg("params")(fn)
    get_count = _arg("count")(fn)

    def get(args, kwargs, result):
        params = get_params(args, kwargs, result)
        key = (tuple(params.proper), params.cs)
        return [int(get_count(args, kwargs, result)), hash(key)]

    return get


def _file_bytes(fn):
    get_path = _arg("path")(fn)
    return lambda args, kwargs, result: [os.path.getsize(get_path(args, kwargs, result))]


def _x_size(fn):
    get_x = _arg("x")(fn)
    return lambda args, kwargs, result: [int(np.size(get_x(args, kwargs, result)))]


def _quadrature(fn):
    return lambda args, kwargs, result: [int(result.n_evaluations), int(result.depth_exceeded)]


@dataclass(frozen=True)
class Layer:
    """A traced layer: its metric prefix and the functions that make it up.

    Each function is named by the module that defines it; a layer made of
    several functions (the closed forms) counts only its outermost calls.
    `count` binds to a function and returns an extractor of the values
    named in `counts` from each call; `key` is a draw's parameter vector,
    which only the distinct share uses.
    """

    name: str
    module: str
    functions: tuple[str, ...]
    count: Callable | None = None
    counts: tuple[str, ...] = ()


LAYERS = (
    Layer("cli", "cli", ("main",)),
    Layer("dataset_io.load_records", "dataset_io", ("load_records",), _result(lambda r: r.n_rows), ("rows",)),
    Layer("dataset_io.score_items", "dataset_io", ("score_items",), _result(len), ("items",)),
    Layer("dataset_io.export_reports", "dataset_io", ("export_reports",), _file_bytes, ("bytes",)),
    Layer("numerics.dirichlet_draws", "numerics", ("_dirichlet_draws",), _draws_count, ("rows", "key")),
    Layer("measures.ambiguity_array", "measures", ("ambiguity_array",), _result(len), ("elements",)),
    Layer("posterior_sampling.summarize", "posterior_sampling", ("summarize",)),
    Layer("posterior_sampling.sample_transformed", "posterior_sampling", ("sample_transformed",)),
    Layer("posterior_sampling.histogram_mode", "posterior_sampling", ("histogram_mode",)),
    Layer(
        "posterior_analytics.closed_form",
        "posterior_analytics",
        ("posterior_moments", "expected_amb", "expected_amb_modified", "var_amb", "var_amb_modified"),
    ),
    Layer("binary_density.density", "binary_density", ("posterior_density_binary",)),
    Layer("binary_density.cdf", "binary_density", ("posterior_cdf_binary",)),
    Layer("numerics.adaptive_simpson", "numerics", ("adaptive_simpson",), _quadrature,
          ("evaluations", "depth_exceeded")),
    Layer("numerics.incomplete_beta", "numerics", ("regularized_incomplete_beta",), _x_size, ("elements",)),
    Layer("frequentist.bias_curve", "frequentist", ("bias_curve",)),
)

# Errors a count extractor may meet when a later version of the program
# changes a signature or a result type; the span is kept without a count.
_COUNT_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError)


class Tracer:
    """Installs the wrappers and holds the spans of the current op."""

    def __init__(self):
        self.absent: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def install(self, package: str = "ambiq") -> None:
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer_id, layer in enumerate(LAYERS):
            home = sys.modules.get(f"{package}.{layer.module}")
            for fn_name in layer.functions:
                original = getattr(home, fn_name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(f"{layer.module}.{fn_name}")
                    continue
                wrapper = self._wrap(layer_id, layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, layer_id: int, layer: Layer, fn):
        count = layer.count(fn) if layer.count is not None else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (layer_id, start, clock(), parent, None)
                raise
            end = clock()
            stack.pop()
            value = None
            if count is not None:
                try:
                    value = count(args, kwargs, result)
                except _COUNT_ERRORS:
                    value = None
            spans[index] = (layer_id, start, end, parent, value)
            return result

        return wrapper

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def export(self) -> list:
        return list(self.spans)


PER_LAYER_METRICS = (
    ("cli.self_ms", "ms"),
    ("dataset_io.load_records.ms", "ms"),
    ("dataset_io.load_records.rows", "count"),
    ("dataset_io.score_items.ms", "ms"),
    ("dataset_io.score_items.self_ms", "ms"),
    ("dataset_io.score_items.items", "count"),
    ("dataset_io.export_reports.ms", "ms"),
    ("dataset_io.export_reports.bytes", "bytes"),
    ("numerics.dirichlet_draws.calls", "count"),
    ("numerics.dirichlet_draws.rows", "count"),
    ("numerics.dirichlet_draws.ms", "ms"),
    ("numerics.dirichlet_draws.distinct_share", "ratio"),
    ("measures.ambiguity_array.calls", "count"),
    ("measures.ambiguity_array.elements", "count"),
    ("measures.ambiguity_array.ms", "ms"),
    ("posterior_sampling.summarize.ms", "ms"),
    ("posterior_sampling.sample_transformed.ms", "ms"),
    ("posterior_sampling.histogram_mode.calls", "count"),
    ("posterior_sampling.histogram_mode.ms", "ms"),
    ("posterior_analytics.closed_form.calls", "count"),
    ("posterior_analytics.closed_form.ms", "ms"),
    ("binary_density.density.calls", "count"),
    ("binary_density.density.ms", "ms"),
    ("binary_density.cdf.calls", "count"),
    ("binary_density.cdf.ms", "ms"),
    ("binary_density.evaluations_per_point", "count"),
    ("numerics.adaptive_simpson.calls", "count"),
    ("numerics.adaptive_simpson.evaluations", "count"),
    ("numerics.adaptive_simpson.depth_exceeded", "count"),
    ("numerics.adaptive_simpson.ms", "ms"),
    ("numerics.incomplete_beta.calls", "count"),
    ("numerics.incomplete_beta.elements", "count"),
    ("numerics.incomplete_beta.ms", "ms"),
    ("frequentist.bias_curve.ms", "ms"),
    ("frequentist.bias_curve.self_ms", "ms"),
)


def op_totals(spans: list) -> dict[str, float]:
    """Sum one op's spans into per-layer totals (calls, ms, self ms, counts).

    A span whose parent belongs to the same layer is nested inside it (a
    closed form calling another), so only outermost spans of a layer add
    to its calls and time. Self time is a span's time minus the time of
    its direct children; calls run on one thread, so children never
    overlap.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    binary = {i for i, layer in enumerate(LAYERS) if layer.name.startswith("binary_density.")}
    draw_keys = set()
    for i, (layer_id, start, end, parent, values) in enumerate(spans):
        layer = LAYERS[layer_id]
        if parent >= 0 and spans[parent][0] == layer_id:
            continue
        ms = (end - start) * 1e3
        add(f"{layer.name}.calls", 1)
        add(f"{layer.name}.ms", ms)
        add(f"{layer.name}.self_ms", ms - child_time[i] * 1e3)
        for count, value in zip(layer.counts, values or ()):
            if count == "key":
                draw_keys.add(value)
            else:
                add(f"{layer.name}.{count}", value)
        if layer.name == "numerics.adaptive_simpson" and values:
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] not in binary:
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                add("binary_density.point_evaluations", values[0])
    add("numerics.dirichlet_draws.distinct", len(draw_keys))
    return totals


def per_layer_metrics(op_span_lists: list[list]) -> dict[str, dict]:
    """Per-op means over the run's ops, plus the two ratios."""
    totals: dict[str, float] = {}
    for spans in op_span_lists:
        for key, value in op_totals(spans).items():
            totals[key] = totals.get(key, 0.0) + value

    def ratio(num, den):
        return totals.get(num, 0.0) / den if den else 0.0

    points = totals.get("binary_density.density.calls", 0.0) + totals.get("binary_density.cdf.calls", 0.0)
    derived = {
        "numerics.dirichlet_draws.distinct_share": ratio(
            "numerics.dirichlet_draws.distinct", totals.get("numerics.dirichlet_draws.calls", 0.0)
        ),
        "binary_density.evaluations_per_point": ratio("binary_density.point_evaluations", points),
    }
    n_ops = max(len(op_span_lists), 1)
    return {
        name: {"value": derived[name] if name in derived else totals.get(name, 0.0) / n_ops, "unit": unit}
        for name, unit in PER_LAYER_METRICS
    }
