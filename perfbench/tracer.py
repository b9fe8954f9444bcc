"""Span tracer for the benchmark's traced run.

``Tracer`` wraps every public function of the scattertomo layers from the
outside and rebinds every alias of each function object across the package's
modules (``optimize`` imports ``ea_cr`` by name while ``cli`` calls
``closedform.ea_cr``, so patching one module would miss calls). Each wrapped
call records a span (function, start, end, parent span, result info); spans
stay in memory until ``summary`` reduces them. Uninstalling restores every
original binding, so the untraced runs pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

PACKAGE = "scattertomo"
LAYERS = ("smallmat", "states", "scatter", "qfi", "closedform", "optimize", "cli")

# functions that per-layer metrics are computed from; any that a later version
# of the package folds or renames is reported as absent instead of failing
REQUIRED = (
    "smallmat.herm_eig",
    "smallmat.partial_trace",
    "states.probe_state",
    "scatter.s_matrices",
    "scatter.apply_channel",
    "scatter.channel_derivatives",
    "qfi.qfi_numeric",
    "cli.main",
)


def _elements(result) -> int:
    """Array elements a closed-form call returned (1 for a scalar or object)."""
    if isinstance(result, (np.ndarray, np.generic, float, int)):
        return int(np.size(result))
    return 1


def _solve(result):
    """(iterations, converged) of an optimizer result, None for anything else."""
    if hasattr(result, "iterations") and hasattr(result, "converged"):
        return int(result.iterations), bool(result.converged)
    return None


RESULT_INFO = {"closedform": _elements, "optimize": _solve}


class Tracer:
    """Context manager that traces the package's public functions while active."""

    def __init__(self):
        self.names: list[str] = []      # function id -> "layer.function"
        self.layer_of: list[str] = []   # function id -> layer
        self.spans: list = []           # (fid, start, end, parent, info)
        self.missing_layers: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, fn, fid: int, info_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = (fid, start, clock(), parent, None)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (fid, start, end, parent,
                          info_of(result) if info_of is not None else None)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)]
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing_layers.append(layer)
                continue
            modules.append(mod)
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                fid = self._register(f"{layer}.{name}", layer)
                wrappers[id(obj)] = (obj, self._wrap(obj, fid, RESULT_INFO.get(layer)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside a span of the benchmark's own pseudo-layer "bench"."""
        if name not in self.names:
            self._register(name, "bench")
        return self._wrap(fn, self.names.index(name), None)(*args)

    def absent(self) -> list[str]:
        return [name for name in REQUIRED if name not in self.names]

    def summary(self) -> dict:
        """Reduce the spans to per-function and per-layer totals.

        A span's self time is its duration minus the durations of its direct
        children (calls nest on one thread, so children never overlap); a
        layer's self time sums its spans' self times. A function's
        ``layer_s`` also keeps the time of nested calls into its own layer,
        so that one public function delegating to another in the same module
        is charged for the work. A layer's entry calls are its spans whose
        parent lies in another layer.
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]
        # parents precede their children, so a reverse pass folds nested
        # same-layer time into each span before its parent reads it
        layer_time = self_time[:]
        for i in range(n - 1, -1, -1):
            fid, parent = spans[i][0], spans[i][3]
            if parent >= 0 and self.layer_of[spans[parent][0]] == self.layer_of[fid]:
                layer_time[parent] += layer_time[i]

        functions = {name: {"calls": 0, "self_s": 0.0, "layer_s": 0.0} for name in self.names}
        layers = {layer: {"self_s": 0.0, "entry_calls": 0, "elements": 0,
                          "solves": 0, "evals": 0, "converged": 0}
                  for layer in (*LAYERS, "bench")}
        for i, (fid, _, _, parent, info) in enumerate(spans):
            name, layer = self.names[fid], self.layer_of[fid]
            fn = functions[name]
            fn["calls"] += 1
            fn["self_s"] += self_time[i]
            fn["layer_s"] += layer_time[i]
            acc = layers[layer]
            acc["self_s"] += self_time[i]
            if parent < 0 or self.layer_of[spans[parent][0]] != layer:
                acc["entry_calls"] += 1
                if layer == "closedform" and info is not None:
                    acc["elements"] += info
            if layer == "optimize" and info is not None:
                acc["solves"] += 1
                acc["evals"] += info[0]
                acc["converged"] += int(info[1])
        return {"functions": functions, "layers": layers, "spans": n,
                "absent": self.absent(), "missing_layers": list(self.missing_layers)}


def per_call_us(summary: dict, name: str) -> float:
    """Mean in-layer time per call of one function in microseconds (0 if absent)."""
    fn = summary["functions"].get(name)
    if not fn or not fn["calls"]:
        return 0.0
    return 1e6 * fn["layer_s"] / fn["calls"]


def calls(summary: dict, name: str) -> int:
    fn = summary["functions"].get(name)
    return fn["calls"] if fn else 0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

