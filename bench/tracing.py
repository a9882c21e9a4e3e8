"""Spans around het3's public functions, installed from outside the package.

Each public function of a layer module is replaced by a wrapper on every het3
module that holds a reference to it: ``from .frame import curv_compose`` binds
a second name in ``residuals``, while calls through a module attribute resolve
on the defining module.  Spans are kept in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("cli", "constructors", "residuals", "torsion", "geometry", "frame")


class Tracer:
    def __init__(self, package):
        modules = {name: getattr(package, name) for name in LAYERS}
        self.names: list[str] = []  # "<layer>.<function>" by name id
        self.spans: list = []  # (name id, start ns, end ns, parent index, op)
        self.stack: list[int] = []
        self.op = -1
        self.bindings: list = []  # (module, attribute, function, wrapper)
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(len(self.names), fn)
                self.names.append(f"{layer}.{name}")
                for holder in modules.values():
                    if vars(holder).get(name) is fn:
                        self.bindings.append((holder, name, fn, wrapper))

    def install(self) -> None:
        for holder, name, fn, wrapper in self.bindings:
            setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, fn, wrapper in self.bindings:
            setattr(holder, name, fn)

    def _wrap(self, name_id: int, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)

        return traced

    def totals(self, scale, ops=None) -> dict:
        """{name: [calls, self ns]} over all spans, or over the ops given.

        Each span's self time is multiplied by ``scale[op]``, the
        calibration factor of the slice its op ran in.
        """
        child = defaultdict(int)
        for name_id, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in self.names}
        for index, (name_id, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            entry = out[self.names[name_id]]
            entry[0] += 1
            entry[1] += (end - start - child[index]) * scale[op]
        return out

    def write(self, path: str) -> None:
        """One line per span: op, span, parent, name, start ns, end ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for index, (name_id, start, end, parent, op) in enumerate(self.spans):
                f.write(f"{op}\t{index}\t{parent}\t{self.names[name_id]}\t{start}\t{end}\n")
