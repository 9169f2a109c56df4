"""Outside-in tracing of waringlab's layers.

The tracer wraps every public module-level function of each layer module
and rebinds the wrapper in every `waringlab` namespace that held the
original, including the names that `from .x import f` copied into other
modules.  Each call records a span (name, start, end, parent, request) in
flat arrays that stay in memory until the run ends.  A few boundaries also
count what passes through them, so that ratios are measured where the
work happens.

`scalars` and `forms` have no function boundary coarse enough to wrap;
their cost shows up as self time of their callers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "factory", "verifier", "points", "spans", "binary",
          "univariate", "linalg")

# Inclusive times reported per function, by span name.
BUSY = ("binary.real_rank", "spans.h1_ideal", "spans.membership",
        "spans.unique_intersection_point", "points.find_rich_conics",
        "verifier.classify", "verifier.detect_structure",
        "factory.generate_instance")

# Functions whose call counts a per-layer metric reads by name.
COUNTED = ("binary.complex_rank", "linalg.nullspace")


class CoverageError(RuntimeError):
    """A waringlab namespace still binds a function the tracer wrapped, or
    a function that a per-layer metric reads was not found to wrap."""


def _is_matrix(arg) -> bool:
    return (isinstance(arg, (list, tuple)) and bool(arg)
            and isinstance(arg[0], (list, tuple)))


def matrix_entries(args) -> int:
    """Sum of rows x cols over the matrix arguments of a linalg call."""
    return sum(len(a) * len(a[0]) for a in args if _is_matrix(a))


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        target = getattr(obj, "__wrapped__", obj)
        if (inspect.isfunction(target)
                and target.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_request = -1
        self._stack: list[int] = []
        self._originals: dict[int, object] = {}
        self._linalg_ids: set[int] = set()

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A wrapper around fn that records one span per call."""
        nid = self._name_id(name)
        stack = self._stack
        observe = _OBSERVERS.get(name)
        counts = self.counts
        entry_layer = name.startswith("linalg.")
        linalg_ids = self._linalg_ids
        if entry_layer:
            linalg_ids.add(nid)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = stack[-1] if stack else -1
            if entry_layer and (parent < 0 or
                                self.name_of[parent] not in linalg_ids):
                counts["linalg.entries"] += matrix_entries(args)
            self.name_of.append(nid)
            self.parent.append(parent)
            self.request.append(self.current_request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def install(self, package: str = "waringlab") -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in _public_functions(module):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
                    self._originals[id(fn)] = fn
        for module in self._package_modules(package):
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and self._originals[id(obj)] is obj:
                    setattr(module, name, wrapper)
        self.check_coverage(package)
        # a renamed boundary must fail the run, not read as zero calls
        absent = sorted((set(BUSY) | set(_OBSERVERS) | set(COUNTED))
                        - set(self._name_ids))
        if absent:
            raise CoverageError("no public function to wrap for: "
                                + ", ".join(absent))

    def check_coverage(self, package: str = "waringlab") -> None:
        """Fail when any waringlab namespace still binds an original."""
        missed = [f"{module.__name__}.{name}"
                  for module in self._package_modules(package)
                  for name, obj in vars(module).items()
                  if self._originals.get(id(obj)) is obj]
        if missed:
            raise CoverageError("unwrapped bindings: " + ", ".join(missed))

    @staticmethod
    def _package_modules(package: str):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == package
                                      or n.startswith(package + "."))]

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict:
        return summarize(self.names, self.name_of, self.parent, self.start,
                         self.end, BUSY)


def _observe_rank(counts, args, result) -> None:
    rows = args[0]
    counts["linalg.rank.calls"] += 1
    if rows and result == min(len(rows), len(rows[0])):
        counts["linalg.rank.full"] += 1


def _observe_roots(counts, args, result) -> None:
    counts["univariate.roots_over_gaussians.hits"] += result is not None


def _observe_real_rank(counts, args, result) -> None:
    counts["binary.real_rank.certified"] += result[1].minimality_certified


def _observe_attempt(counts, args, result) -> None:
    counts["verifier.attempts"] += 1
    counts["verifier.attempts_passed"] += result.passed


_OBSERVERS = {
    "linalg.rank": _observe_rank,
    "univariate.roots_over_gaussians": _observe_roots,
    "binary.real_rank": _observe_real_rank,
    "verifier.verify_case_a": _observe_attempt,
    "verifier.verify_case_b": _observe_attempt,
    "verifier.verify_case_c": _observe_attempt,
}


def summarize(names, name_of, parent, start, end, busy_names=()) -> dict:
    """Self time per layer and per name, inclusive time per name, calls.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly in a single thread, so the children
    cover disjoint parts of the parent.  Inclusive time of each name in
    busy_names counts only its outermost spans, so recursion is not
    counted twice.
    """
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    name_self: Counter = Counter()
    name_calls: Counter = Counter()
    busy: Counter = Counter()
    root_time = 0.0
    for i in range(n):
        name = names[name_of[i]]
        dur = end[i] - start[i]
        own = dur - child[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        name_self[name] += own
        name_calls[name] += 1
        if parent[i] < 0:
            root_time += dur
        if name in busy_names:
            p = parent[i]
            while p >= 0 and name_of[p] != name_of[i]:
                p = parent[p]
            if p < 0:
                busy[name] += dur
    return {"layer_self": layer_self, "layer_calls": layer_calls,
            "name_self": name_self, "name_calls": name_calls, "busy": busy,
            "root_time": root_time}


def child_counts(names, name_of, parent, child_name: str,
                 parent_name: str) -> int:
    """Number of child_name spans whose direct parent is parent_name."""
    cid = names.index(child_name) if child_name in names else -1
    pid = names.index(parent_name) if parent_name in names else -1
    if cid < 0 or pid < 0:
        return 0
    return sum(1 for i in range(len(name_of))
               if name_of[i] == cid and parent[i] >= 0
               and name_of[parent[i]] == pid)
