"""Span tracing of the package's public functions, from outside the package.

Each layer is one module of ``mwadversary``.  The package imports functions
by name (``from .core import weight_power``), so a function object can sit
under several module attributes; every one of them is patched with the same
wrapper and restored afterwards.  Spans (name, start, end, parent) stay in
memory until :meth:`Tracer.summary` turns them into per-function call counts,
self times and work counters.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager
from types import ModuleType

import numpy as np

PACKAGE = "mwadversary"
LAYERS = ("cli", "output", "policies", "core", "exact_eval", "online_dp")


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _table_mb(args, kwargs, table) -> float:
    arrays = [*table.values, *table.lie_optimal, *table.tie_flags]
    return sum(a.nbytes for a in arrays) / 2**20


def _two_honest_cells(args, kwargs, result) -> int:
    n = _arg(args, kwargs, 0, "params").horizon
    return n * (2 * n + 1)


# Work counters (function, counter, value computed from the call's arguments
# or its return value).  Counters are summed over calls, except those named in
# PEAKS, which keep their largest value.
COUNTERS = (
    ("online_dp.solve_two_expert", "states", lambda a, k, r: r.states_evaluated),
    ("online_dp.solve_two_expert", "table_mb", _table_mb),
    ("online_dp.simulate_online", "trial_stages",
     lambda a, k, r: _arg(a, k, 2, "trials") * _arg(a, k, 0, "params").horizon),
    ("exact_eval.two_honest_value", "cells", _two_honest_cells),
    ("core.weight_power", "cells", lambda a, k, r: np.size(_arg(a, k, 0, "j"))),
    ("core.binomial", "trials", lambda a, k, r: _arg(a, k, 0, "trials")),
    ("policies.block_form", "blocks", lambda a, k, r: len(r.blocks)),
    ("output.write_csv", "csv_bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
)
PEAKS = {"online_dp.solve_two_expert.table_mb"}


def public_functions(module: ModuleType) -> dict[str, object]:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters = {f"{fn}.{counter}": 0.0 for fn, counter, _ in COUNTERS}
        self.wrapped: set[str] = set()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counters = [(f"{name}.{counter}", value) for f, counter, value in COUNTERS if f == name]
        self.wrapped.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(span)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[span] = time.perf_counter()
                self._open.pop()
            for metric, value in counters:
                v = value(args, kwargs, result)
                self.counters[metric] = (max(self.counters[metric], v) if metric in PEAKS
                                         else self.counters[metric] + v)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Route every module attribute that holds a layer's public function
        through a tracing wrapper for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        saved = []
        try:
            for layer in LAYERS:
                for fname, fn in public_functions(sys.modules[f"{PACKAGE}.{layer}"]).items():
                    wrapper = self.wrap(f"{layer}.{fname}", fn)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                setattr(module, attr, wrapper)
                                saved.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def summary(self) -> dict[str, float]:
        """Calls and self seconds per traced function and per layer, plus the
        work counters.  Self time is a span's duration minus the time its
        child spans cover (children of one span never overlap here: the
        package is single-threaded)."""
        child = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[span] - self.starts[span]
        out = dict.fromkeys([f"{layer}.self_s" for layer in LAYERS], 0.0)
        for name in self.wrapped:
            out[f"{name}.calls"] = out[f"{name}.self_s"] = 0.0
        for span, name in enumerate(self.names):
            self_s = self.ends[span] - self.starts[span] - child[span]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
        out.update(self.counters)
        return out
