"""Outside-in tracer for the ews32 layers.

The tracer wraps every public function defined in each ews32 module and
rebinds the wrapper under every name that refers to the function in
any ews32 namespace (the package and each module). Calls between
modules and within one module, such as rybczynski_matrix calling
assemble_system, therefore pass through wrappers, and each call's span
has its caller's span as parent. A span's self time is its duration
minus the durations of its child spans; the tracer keeps per-function
totals of self time and calls. Nothing under src/ is changed, and a
function that is missing or renamed is simply not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# The modules of ews32, one layer each (errors defines no functions).
LAYERS = ("shares", "substitution", "geometry", "statics", "scenario", "sweep", "figure", "cli")

# Functions reported on their own, besides the per-layer totals.
FUNCTIONS = {
    "statics": (
        "solve_responses",
        "cofactors",
        "determinant_delta",
        "assemble_system",
        "rybczynski_matrix",
        "stolper_samuelson_matrix",
    ),
    "substitution": ("validate_aes", "epsilon_from_aes", "ews_from_epsilon"),
    "geometry": ("classify_subregion", "line_coefficients", "boundary_value"),
    "shares": ("build_share_table", "check_intensity_ranking"),
    "scenario": ("scenario_from_mapping", "format_report"),
    "sweep": ("sweep", "format_csv"),
    "figure": ("render_figure",),
}


def _layer_module(layer: str):
    # `ews32.sweep` is the sweep function once the package is imported;
    # the module itself is only reachable through sys.modules.
    try:
        importlib.import_module(f"ews32.{layer}")
    except ImportError:
        return None
    return sys.modules[f"ews32.{layer}"]


class Tracer:
    """Per-(layer, function) self time in seconds and call counts."""

    def __init__(self):
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = _layer_module(layer)
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap((layer, name), fn)
        namespaces = [m for name, m in sys.modules.items() if name == "ews32" or name.startswith("ews32.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, ops: int, scale: float, layers=LAYERS) -> dict[str, float]:
        """Per-op self time (scaled microseconds) and calls for each layer
        and each listed function; zero where nothing was called."""
        out = {}
        for layer in layers:
            keys = [k for k in self.calls if k[0] == layer]
            out[f"{layer}.self_us"] = sum(self.self_s[k] for k in keys) * scale * 1e6 / ops
            out[f"{layer}.calls"] = sum(self.calls[k] for k in keys) / ops
            for name in FUNCTIONS.get(layer, ()):
                out[f"{layer}.{name}.self_us"] = self.self_s.get((layer, name), 0.0) * scale * 1e6 / ops
                out[f"{layer}.{name}.calls"] = self.calls.get((layer, name), 0) / ops
        return out
