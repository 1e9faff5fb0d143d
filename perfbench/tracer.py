"""Span tracing of edlab from outside the package.

``Tracer`` wraps every public function of the layer modules (grids, states,
channels, metrics, supsearch, cli) plus ``WaveFunction.validate``.  A
function imported with ``from ... import`` is bound in several module
namespaces, and each binding is looked up at call time, so the wrapper is
installed under every name in every edlab namespace that holds the
original; patching only the defining module would silently miss calls.

Spans (name, start, end, parent, op id) are kept in memory and written out
at the end.  Wrappers re-raise exceptions unchanged, so ``maximize`` still
excludes members that raise ``InvariantViolation``.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns
from typing import Callable, Iterator

LAYERS = ("grids", "states", "channels", "metrics", "supsearch", "cli")
MIB = 2**20


def _count_transform(c: Counter, args, kwargs, result) -> None:
    c["grids.kernel_transform.elems"] += args[0].size


def _count_coupling(c: Counter, args, kwargs, result) -> None:
    joint = args[0]
    c["channels.apply_von_neumann.joint_mib"] += joint.system_grid.n_points * joint.probe_grid.n_points * 16 / MIB


def _count_density(c: Counter, args, kwargs, result) -> None:
    n = args[0].system_grid.n_points
    c["channels.density_mib"] += n * n * 16 / MIB


def _count_w2(c: Counter, args, kwargs, result) -> None:
    c["metrics.wasserstein2.points"] += len(args[0].support) + len(args[1].support)


def _count_search(c: Counter, args, kwargs, result) -> None:
    c["supsearch.evaluations"] += len(result.trace)
    c["supsearch.excluded"] += result.n_excluded


# Computed counts taken from a call's arguments or its result; bytes are
# computed from array shapes (16 B per complex element), not measured.
COUNTERS: dict[str, Callable] = {
    "grids.kernel_transform": _count_transform,
    "channels.apply_von_neumann": _count_coupling,
    "channels.reduce_system": _count_density,
    "metrics.wasserstein2": _count_w2,
    "supsearch.maximize": _count_search,
}


class Tracer:
    def __init__(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._confinement_error = modules["channels"].ConfinementError
        # (owner, attribute, original, wrapper) for every binding to patch
        self._patches: list[tuple] = []
        for layer, module in modules.items():
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is fn:
                            self._patches.append((ns, attr, fn, wrapper))
        wave = modules["grids"].WaveFunction
        validate = vars(wave)["validate"]
        self._patches.append((wave, "validate", validate, self._wrap("grids.validate", validate)))

    def bindings(self, name: str) -> list[str]:
        """Where the wrapper of ``name`` (e.g. "grids.kernel_transform") is installed."""
        return sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, wrapper in self._patches
            if wrapper.span_name == name
        )

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{name}.calls"
        rejects = name == "channels.apply_von_neumann"

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except self._confinement_error:
                if rejects:
                    counts["channels.confinement_rejects"] += 1
                raise
            finally:
                spans[index] = (name, start, perf_counter_ns(), parent, self._op)
                stack.pop()
                counts[calls] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.span_name = name
        return traced

    @contextmanager
    def installed(self, op: int) -> Iterator[None]:
        """Trace the calls made inside the block as op ``op``; untraced code
        runs outside it, with every original binding restored."""
        self._op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._op = None

    def self_times(self) -> tuple[Counter, Counter, Counter]:
        """Seconds per span name: self time, inclusive time; self time per op."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own, inclusive, per_op = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            own[name] += (end - start - child[i]) / 1e9
            inclusive[name] += (end - start) / 1e9
            per_op[op] += (end - start - child[i]) / 1e9
        return own, inclusive, per_op

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}))
                fh.write("\n")
