"""Span tracing of calls into ``shallowbs``, installed from outside the package.

While ``Tracer.installed`` is active, every module-level binding of a traced
function in a ``shallowbs`` module (and the class attribute
``RngStream.generator``) is replaced by a wrapper that records one span per
call: name, start, end, parent span and task id.  Leaving the context puts the
original objects back, so nothing under ``src/`` changes and untraced runs pay
nothing.  Spans stay in memory until ``write`` and ``self_times`` read them.
"""

from __future__ import annotations

import csv
import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# (layer, module, attribute); a layer may cover several functions.
TRACED = (
    ("arch.realize", "arch", "realize"),
    ("arch.lightcone", "arch", "forward_lightcone"),
    ("arch.lightcone", "arch", "backward_lightcone"),
    ("linalg.generator", "linalg", "RngStream.generator"),
    ("linalg.haar_unitary", "linalg", "haar_unitary"),
    ("linalg.ginibre", "linalg", "ginibre"),
    ("matfn.permanent", "matfn", "permanent"),
    ("matfn.hafnian", "matfn", "hafnian"),
    ("fock.count_permitted", "fock", "count_permitted_fbs"),
    ("fock.count_permitted", "fock", "count_permitted_fbs_effective"),
    ("gaussian.count_permitted", "gaussian", "count_permitted_gbs"),
    ("gaussian.page_curve", "gaussian", "page_curve"),
    ("gaussian.symplectic", "gaussian", "symplectic_from_unitary"),
    ("stats.drivers", "stats", "frame_potential"),
    ("stats.drivers", "stats", "fbs_probability_samples"),
    ("stats.drivers", "stats", "gbs_probability_samples"),
    ("stats.drivers", "stats", "hiding_samples"),
    ("stats.bootstrap_std", "stats", "bootstrap_std"),
    ("stats.density_function", "stats", "density_function"),
    ("cli.run", "cli", "run"),
)

# Permanents up to this size are the closed-form candidates of the small-n path.
SMALL_PERMANENT = 3


class Tracer:
    """Records spans in flat arrays; ``clock`` is replaceable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.task = array("q")
        self.counters: dict[str, float] = {}
        self.task_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """Wrapper of ``fn`` that records a span named after ``layer``."""
        if layer == "matfn.permanent":
            def name_of(args: tuple) -> str:
                n = np.shape(args[0])[0]
                self.count("matfn.permanent.ops", n * 2**n)
                return f"{layer}.{'small' if n <= SMALL_PERMANENT else 'large'}"
        else:
            def name_of(args: tuple) -> str:
                return layer
        counting = layer.endswith(".count_permitted")
        prefix = layer.split(".")[0]

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counting:
                self.count(f"{prefix}.outcomes_total", result.total_outcomes)
                self.count(f"{prefix}.outcomes_permitted", result.exact_count)
            return result

        return traced

    @contextmanager
    def installed(self, task_id: int) -> Iterator[None]:
        """Swap wrappers into every ``shallowbs`` namespace that binds a traced function."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "shallowbs" or name.startswith("shallowbs."))]
        replace: dict[int, Callable] = {}
        for layer, module, attr in TRACED:
            owner = sys.modules[f"shallowbs.{module}"]
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
                namespaces.append(owner)
            original = vars(owner)[name]
            replace[id(original)] = self.wrap(layer, original)
        patched = []
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    patched.append((ns, attr, value))
        self.task_id = task_id
        try:
            yield
        finally:
            for ns, attr, value in reversed(patched):
                setattr(ns, attr, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time), self time excluding child spans."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        own = np.bincount(ids, weights=dur - child, minlength=size)
        return {name: (int(calls[i]), float(own[i])) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write all spans as CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "task", "name", "start_s", "end_s"])
            for i in range(len(self.start)):
                out.writerow([i, self.parent[i], self.task[i], self.names[self.name_id[i]],
                              f"{self.start[i] - t0:.9f}", f"{self.end[i] - t0:.9f}"])

