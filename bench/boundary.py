"""Layer spans at the boundaries between gaussrough modules.

The package itself is never edited.  ``Tracer.install`` rebinds, in every
gaussrough module, each name that refers to a function defined in another
gaussrough module (found through ``__module__``, so renamed or added helpers
are picked up without edits here), and every such function held in a
module-level dict, list or tuple, such as ``cli._RECORD_RUNNERS``.  Each
wrapper opens a span booked to the callee's module.  A module's self time is
the duration of its spans minus the spans they caused; its total time counts
only its outermost spans, so recursion through another module is not counted
twice.

Work counts are read from call arguments at the same boundaries.  They are
keyed by function name; a counter whose function no longer crosses a module
boundary (renamed, inlined or deleted), or whose arguments it can no longer
read (a renamed parameter), is skipped and reported by ``unbound_counters``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
import types

import numpy as np

PACKAGE = "gaussrough"
LAYERS = (
    "cli",
    "experiments",
    "gaussian_process",
    "karhunen_loeve",
    "path_lift",
    "tensor_group",
    "variation_metrics",
)


def _segments(values) -> int:
    # values: (..., d, n_nodes)
    return math.prod(values.shape[:-2]) * (values.shape[-1] - 1)


def _rho_nodes(a) -> int:
    hi = a["r"].shape[0] - 1 if a["hi"] is None else a["hi"]
    return hi - a["lo"] + 1


# (module, function) -> (counter, count from the bound arguments).
COUNTERS = {
    ("gaussian_process", "_sample_values"): ("draws", lambda a: a["count"]),
    ("karhunen_loeve", "conditional_log_mc"): ("mc_draws", lambda a: a["count"]),
    ("path_lift", "_lift_values"): ("segments_lifted", lambda a: _segments(a["values"])),
    ("variation_metrics", "_dp_max_sum"): (
        "dp_cells",
        lambda a: a["cost"].shape[0] * (a["cost"].shape[0] - 1) // 2,
    ),
    ("variation_metrics", "rho_var_2d"): ("rho_nodes", _rho_nodes),
}
COUNT_NAMES = (
    "gaussian_process.draws",
    "karhunen_loeve.mc_draws",
    "path_lift.segments_lifted",
    "tensor_group.elements",
    "variation_metrics.dp_cells",
    "variation_metrics.rho_nodes",
    "cli.bytes_written",
)


def _group_elements(a) -> int:
    """Batch elements in the first argument of a tensor_group call.

    Level-stacked arguments carry the batch shape in their degree-0 array;
    an element object counts as one; ``_unit_levels`` takes the batch shape.
    """
    if "batch" in a:
        return math.prod(a["batch"])
    first = next(iter(a.values()), None)
    if hasattr(first, "levels"):
        return 1
    if isinstance(first, (list, tuple)) and first:
        return int(np.size(first[0]))
    return 0


class LayerStats:
    """Per-op accumulators, one entry per layer and per work count."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNT_NAMES, 0)

    def flat(self) -> dict[str, float]:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.total_s"] = self.total_s.get(layer, 0.0)
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
        out.update(self.counts)
        return out


class Tracer:
    """Installs and removes boundary wrappers; books spans into ``stats``."""

    def __init__(self):
        self.modules = package_modules()
        self.stats = LayerStats()
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple[types.ModuleType, str, object]] = []
        self._wrapped: dict[types.FunctionType, types.FunctionType] = {}
        self.bound_counters: set[tuple[str, str]] = set()
        self.broken_counters: set[str] = set()
        self.layers_seen: set[str] = set()

    # -- spans -------------------------------------------------------------

    def call(self, layer: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        st = self.stats
        if counter is not None and counter[2] not in self.broken_counters:
            name, count, source = counter
            try:
                st.counts[name] += int(count(args, kwargs))
            except Exception:  # changed arguments drop the counter, not the op
                self.broken_counters.add(source)
        st.calls[layer] = st.calls.get(layer, 0) + 1
        self.layers_seen.add(layer)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self._stack.pop()
            self._depth[layer] -= 1
            st.self_s[layer] = st.self_s.get(layer, 0.0) + elapsed - frame[0]
            if self._depth[layer] == 0:
                st.total_s[layer] = st.total_s.get(layer, 0.0) + elapsed
            if self._stack:
                self._stack[-1][0] += elapsed

    # -- wrappers ----------------------------------------------------------

    def _counter_for(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        key = (layer, fn.__name__)
        if layer == "tensor_group":
            name, count = "elements", _group_elements
        elif key in COUNTERS:
            self.bound_counters.add(key)
            name, count = COUNTERS[key]
        else:
            return None
        sig = inspect.signature(fn)

        def from_args(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments)

        return (f"{layer}.{name}", from_args, f"{layer}.{fn.__name__}")

    def _wrap(self, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        layer = fn.__module__.rpartition(".")[2]
        counter = self._counter_for(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, counter)

        self._wrapped[fn] = wrapper
        return wrapper

    def _rewrap(self, value, owner: str, depth: int = 0):
        """``value`` with foreign gaussrough functions wrapped, or itself."""
        if isinstance(value, types.FunctionType):
            mod = value.__module__ or ""
            if mod.startswith(PACKAGE + ".") and mod != owner:
                return self._wrap(value)
            return value
        if depth >= 3:
            return value
        if isinstance(value, dict):
            new = {k: self._rewrap(v, owner, depth + 1) for k, v in value.items()}
            changed = any(new[k] is not v for k, v in value.items())
            return new if changed else value
        if type(value) in (list, tuple):
            new = [self._rewrap(v, owner, depth + 1) for v in value]
            changed = any(a is not b for a, b in zip(new, value))
            return type(value)(new) if changed else value
        return value

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                new = self._rewrap(value, mod.__name__)
                if new is not value:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, new)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._undo):
            setattr(mod, name, value)
        self._undo.clear()

    def unbound_counters(self) -> list[str]:
        """Counters whose function is gone or whose arguments no longer fit."""
        gone = {f"{m}.{f}" for m, f in set(COUNTERS) - self.bound_counters}
        return sorted(gone | self.broken_counters)


def package_modules():
    """Every submodule of the package, imported."""
    pkg = importlib.import_module(PACKAGE)
    return [
        importlib.import_module(f"{PACKAGE}.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
    ]
