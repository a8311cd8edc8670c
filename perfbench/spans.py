"""Per-layer spans, recorded by wrapping the package's public functions.

``traced(tracer)`` replaces every public function of the traced modules,
and every public method of ``ZSet``, with a wrapper that records a span
(name, start, end, parent) while ``tracer.active`` is set.  Names bound by
``from module import name`` in other package modules are replaced too, and
everything is restored on exit.  Self time is span time minus the time of
the span's children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from math import factorial

MODULES = ("cli", "tito", "intervals", "sn", "total_orders", "dyer", "lattices", "crossing", "render")


def _quotient_sizes(result, counts: Counter) -> None:
    # every ordering of the window is tried; one per class is kept
    counts["lattices.tito_quotient.tried"] += factorial(result.b - result.a + 1)
    counts["lattices.tito_quotient.kept"] += len(result.poset)


class Tracer:
    """Spans kept in flat arrays; one tracer per traced phase."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        ident = self._ids[name]
        observe = _quotient_sizes if name == "lattices.tito_quotient" else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            k = len(tracer.start)
            tracer.name_id.append(ident)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0.0)
            tracer._stack.append(k)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count each error once, at the innermost layer it left
                if not getattr(exc, "_traced_layer", None):
                    exc._traced_layer = layer
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.end[k] = clock()
                tracer._stack.pop()
            if observe is not None:
                observe(result, tracer.counts)
            return result

        return wrapper

    def summary(self) -> dict:
        """calls and self seconds per span name, plus errors and counts."""
        size = len(self.start)
        child = [0.0] * size
        for k in range(size):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for k in range(size):
            name = self.names[self.name_id[k]]
            calls[name] += 1
            self_s[name] += self.end[k] - self.start[k] - child[k]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "errors": dict(self.errors),
            "counts": dict(self.counts),
            "spans": size,
        }


def merge(total: dict, part: dict) -> dict:
    for key in ("calls", "self_s", "errors", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    total["spans"] = total.get("spans", 0) + part.get("spans", 0)
    return total


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install wrappers for the duration of the block, then restore."""
    wrappers = {}
    patches = []
    for short in MODULES:
        mod = importlib.import_module("weakorder." + short)
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    zset = importlib.import_module("weakorder.intervals").ZSet
    for attr, obj in list(vars(zset).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            patches.append((zset, attr, obj))
            setattr(zset, attr, tracer.wrap(f"intervals.ZSet.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name == "weakorder" or name.startswith("weakorder."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, obj in reversed(patches):
            setattr(owner, attr, obj)
