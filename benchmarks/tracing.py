"""Spans around every call into the public API of symchains.

``Tracer.install`` replaces each function named in ``symchains.__all__``
with a wrapper that records a span, in every module namespace that binds
it, so calls the package makes internally are traced as well as calls from
the benchmark.  A function that returns a generator gets one span for the
call and one ``<name>.next`` span per item, so enumeration time is charged
to the layer that enumerates rather than to its consumer.

Spans live in flat arrays until the pass ends and are then written out as a
gzipped TSV.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from types import GeneratorType

import symchains

MODULES = ("subsets", "coding", "boolean", "partitions", "identities")
LAYERS = MODULES + ("cli", "harness")


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def _iterate(self, nid: int, items):
        while True:
            idx = self._open(nid)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def wrap(self, name: str, fn):
        nid, next_id = self._id(name), self._id(name + ".next")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return self._iterate(next_id, out) if isinstance(out, GeneratorType) else out

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules wherever it is
        bound: its own module, modules that imported it, and the package."""
        modules = [importlib.import_module(f"symchains.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in symchains.__all__:
                fn = vars(mod).get(attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for ns in modules + [symchains]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
                    self._patched.append((ns, attr, obj))

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def self_times(self) -> dict[int, dict[str, int]]:
        """Self nanoseconds per layer, keyed by root span.  Parents always
        precede their children in the arrays."""
        count = len(self.name)
        child = array("q", bytes(8 * count))
        root = array("i", range(count))
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                root[i] = root[p]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out: dict[int, dict[str, int]] = {}
        for i in range(count):
            per = out.setdefault(root[i], dict.fromkeys(LAYERS, 0))
            per[layer_of[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def calls(self, name: str, parent_layer: str, since: int = 0) -> int:
        """Spans called ``name`` opened directly by a span of
        ``parent_layer``, among the spans from index ``since`` on."""
        nid = self._ids.get(name)
        layer_ids = {i for i, n in enumerate(self.names) if n.split(".", 1)[0] == parent_layer}
        return sum(1 for i in range(since, len(self.name))
                   if self.name[i] == nid and self.parent[i] >= 0
                   and self.name[self.parent[i]] in layer_ids)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tworkload\tname\tstart_ns\tend_ns\n")
            names, wid = self.names, self.workload
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{wid}\t{names[self.name[i]]}"
                         f"\t{self.start[i]}\t{self.end[i]}\n")
