"""Outside-in span tracing of lsakit, installed from the benchmark's files.

``Tracer.install`` wraps every public function of the measured lsakit
modules, and every public method of the classes they define, with a span
recorder.  A function is replaced in every lsakit module namespace that
binds the same object, because modules import names from each other
(``cli`` and ``simplicity`` do), and methods are patched on their class.
Spans keep name, start, end and parent in flat in-memory arrays; the
aggregation and the JSON dump happen after the traced pass.

A span's self time is its duration minus the durations of its direct child
spans.  ``total_s`` sums only the outermost span of each name, so a function
that reaches itself again is not counted twice.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from enum import Enum

LAYERS = (
    "scalars",
    "linalg",
    "polys",
    "algebra",
    "radicals",
    "simplicity",
    "cohomology",
    "serialize",
    "cli",
)

# Operator methods get a readable span name; other dunders are not traced.
_DUNDER_NAMES = {("linalg", "Matrix", "__mul__"): "matmul"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; wrappers stay installed."""
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: dict[int, int] = {}
        self.counts = {}

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            d = depth.get(nid, 0)
            tracer.outer.append(d == 0)
            depth[nid] = d + 1
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = clock()
                stack.pop()
                depth[nid] = d
                if hook is not None:
                    hook(tracer, args, None, exc)
                raise
            tracer.end[idx] = clock()
            stack.pop()
            depth[nid] = d
            if hook is not None:
                hook(tracer, args, result, None)
            return result

        traced.__wrapped_original__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self, lk, hooks: dict):
        """Wrap the public callables of each layer of the lsakit package
        ``lk``.  ``hooks`` maps a span name to ``hook(tracer, args, result,
        exc)``, called after the span closes, for counters such as matrix
        shapes."""
        layers = {layer: importlib.import_module(f"{lk.__name__}.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if name == lk.__name__ or name.startswith(lk.__name__ + ".")]
        replaced: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    span = f"{layer}.{attr}"
                    replaced[id(obj)] = self._wrap(span, obj, hooks.get(span))
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
                    self._patch_class(layer, obj, hooks)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped_original__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, layer: str, cls, hooks: dict):
        for attr, raw in list(vars(cls).items()):
            special = _DUNDER_NAMES.get((layer, cls.__name__, attr))
            if attr.startswith("_") and special is None:
                continue
            span = f"{layer}.{special or attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(span, raw.__func__, hooks.get(span)))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(span, raw.__func__, hooks.get(span)))
            elif inspect.isfunction(raw):
                new = self._wrap(span, raw, hooks.get(span))
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: calls, total_s (outermost spans), self_s."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            s[0] += 1
            if self.outer[i]:
                s[1] += dur
            s[2] += dur - child[i]
        return {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s) in stats.items()
        }

    def dump(self, path, meta: dict):
        """Write the recorded spans as gzipped JSON columns; times are
        integer nanoseconds from the first span's start."""
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            **meta,
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_ns": [int((x - t0) * 1e9) for x in self.start],
            "end_ns": [int((x - t0) * 1e9) for x in self.end],
            "counts": self.counts,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
