"""Spans around the public functions of the seven package modules.

The tracer wraps functions from outside the package: every public function
defined in a layer module is replaced, in every ``centrocirc`` namespace
that holds it (the package ``__init__`` included), by a wrapper that
records a span.  Calls made through from-imports are therefore caught too.
The two hot validators record counts only, because a span each would cost
more than the work they do.

Spans are kept in memory as ``(request, parent, name, start, end)`` and
written out once the pass has ended.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "verify", "centro", "relation", "circulant", "fourier", "dense")
COUNT_ONLY = frozenset({"dense.as_vector", "dense.as_matrix"})


def nbytes(value) -> int:
    """Bytes of the arrays in a return value: arrays, sequences, dataclasses."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(nbytes(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


def public_functions(layer: str):
    """(name, function) for every public function a layer module defines."""
    module = sys.modules[f"centrocirc.{layer}"]
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Records spans and counts while ``active``; idle wrappers only forward."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.out_bytes: list[int] = []
        self.spans: list = []
        self.request = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer):
                index = len(self.names)
                self.names.append(f"{layer}.{name}")
                self.calls.append(0)
                self.errors.append(0)
                self.out_bytes.append(0)
                make = self._counter if self.names[index] in COUNT_ONLY else self._span
                wrapped[id(fn)] = (fn, make(index, fn))
        for module_name, module in list(sys.modules.items()):
            if module_name != "centrocirc" and not module_name.startswith("centrocirc."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _counter(self, index: int, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[index] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[index] += 1
                raise
            self.out_bytes[index] += out.nbytes
            return out
        return counted

    def _span(self, index: int, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[index] += 1
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.errors[index] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[span] = (self.request, parent, index, start, end)
            self.out_bytes[index] += nbytes(out)
            return out
        return traced

    def self_times(self) -> list[float]:
        """Self time per function: span time minus the time of child spans."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = [0.0] * len(self.names)
        for k, (_, _, index, start, end) in enumerate(self.spans):
            totals[index] += end - start - child[k]
        return totals

    def summary(self) -> dict:
        """Per-function calls, self time, errors and returned bytes."""
        self_s = self.self_times()
        return {
            name: {"calls": self.calls[k], "self_s": self_s[k],
                   "errors": self.errors[k], "out_bytes": self.out_bytes[k]}
            for k, name in enumerate(self.names)
        }

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="ascii") as out:
            out.write("request,span,parent,name,start_s,end_s\n")
            for k, (request, parent, index, start, end) in enumerate(self.spans):
                out.write(f"{request},{k},{parent},{self.names[index]},"
                          f"{start - origin:.9f},{end - origin:.9f}\n")
