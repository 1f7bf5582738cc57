"""Spans around the public functions of every ratefn module.

``cli`` and ``analysis`` import functions by name, so wrapping a module
attribute alone would miss their calls. ``Tracer.install`` therefore replaces
every attribute of every loaded ``ratefn`` module that *is* a traced function,
and ``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent)``; all spans of a run share the run id.
Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the durations of its direct children, which nest
inside it. Wrappers are inert unless ``active`` is set, so the benchmark's
own output checks can call the library without adding spans or counts.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "loss_data": ("load_dataset", "from_losses", "summarize", "reduce_augmented",
                  "compose_augmented", "dump_dataset"),
    "cumulant": ("cumulant_curve", "estimate_cumulant", "cumulant_derivative"),
    "rate": ("rate", "inverse_rate", "rate_curve", "grid_inverse_rate"),
    "analysis": ("generalization_bound", "compare_smoothness", "interpolator_ordering",
                 "da_inequality_check", "variance_taylor", "variance_rate_approx"),
    "oracle": ("exact_cumulant", "exact_rate", "expand_to_dataset", "sample_dataset",
               "cramer_tail", "estimator_bias_probe"),
    "serialize": ("to_json_text", "atomic_write_text", "cumulant_curve_to_csv",
                  "cumulant_curve_to_json"),
    "cli": ("run",),
}

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns)


# Counters recorded where the work happens. Each takes the tracer, the bound
# arguments, the result (None when the call raised) and the parent span name.

def _count_load(t, args, result, parent):
    path = os.fspath(args["path"])
    t.counts["bytes_read"] += os.path.getsize(path)
    t.load_paths.add(path)
    if result is not None:
        t.counts["rows"] += len(result)
        t.counts["load_rows"] += len(result)


def _count_from_losses(t, args, result, parent):
    if result is not None:
        t.counts["rows"] += len(result)


def _count_dump(t, args, result, parent):
    path = os.fspath(args["path"])
    if os.path.exists(path):
        t.counts["bytes_written"] += os.path.getsize(path)


def _count_curve(t, args, result, parent):
    if result is not None:
        t.counts["loss_tilts"] += len(args["ds"]) * len(result.grid)


def _count_solve(t, args, result, parent):
    t.counts["solves"] += 1
    t.counts["loss_solves"] += len(args["ds"])
    if result is not None and result.saturated:
        t.counts["saturated"] += 1


def _count_rate_curve(t, args, result, parent):
    n = len(args["a_values"]) if result is None else len(result)
    t.counts["solves"] += n
    t.counts["loss_solves"] += n * len(args["ds"])
    if result is not None:
        t.counts["saturated"] += sum(ev.saturated for ev in result)


def _count_cramer(t, args, result, parent):
    t.counts["draws"] += args["n"] * args["trials"]


def _count_bias(t, args, result, parent):
    t.counts["draws"] += args["n"] * args["replicates"]


def _count_rendered(t, args, result, parent):
    # Renderers nest (cumulant_curve_to_json calls to_json_text): count the outermost.
    if result is not None and not (parent or "").startswith("serialize."):
        t.counts["serialize_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "loss_data.load_dataset": _count_load,
    "loss_data.from_losses": _count_from_losses,
    "loss_data.dump_dataset": _count_dump,
    "cumulant.cumulant_curve": _count_curve,
    "rate.rate": _count_solve,
    "rate.inverse_rate": _count_solve,
    "rate.rate_curve": _count_rate_curve,
    "oracle.cramer_tail": _count_cramer,
    "oracle.estimator_bias_probe": _count_bias,
    "serialize.to_json_text": _count_rendered,
    "serialize.cumulant_curve_to_csv": _count_rendered,
    "serialize.cumulant_curve_to_json": _count_rendered,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict = defaultdict(int)
        self.load_paths: set = set()
        self.active = False
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self, bound.arguments, result, spans[parent][0] if parent >= 0 else None)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "ratefn" or key.startswith("ratefn.")]
        for module_name, fns in LAYERS.items():
            home = sys.modules[f"ratefn.{module_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def per_function(self) -> dict:
        """``{name: (calls, total_s, self_s)}`` for every traced function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = table[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - children
        return {name: tuple(row) for name, row in table.items()}

    def root_time(self) -> float:
        """Time inside outermost spans, which equals the sum of all self times."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "fields": ["name", "start", "end", "parent"], "spans": self.spans}
