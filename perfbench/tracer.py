"""Span tracer that wraps mdvt's public functions from outside the program.

Every public function of every ``mdvt`` module is replaced, for the length
of one ``with tracer.installed(...)`` block, by a wrapper that records a
span (name, parent span, start, end). The wrapper is bound under every
module attribute that held the original, so a name is patched where its
caller looks it up: ``cli.load_bundle`` as well as ``dataset.load_bundle``,
``trainer.make_batches`` as well as ``dataset.make_batches``, and
``dataset.sample_negative`` as ``make_batches`` finds it. Generator
functions get one span per ``next()``, not one for creating the generator.
Spans stay in compact arrays in memory and are written when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _end(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        sid = self._begin(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._end(sid)
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, modules, methods=(), counters=(), observers=None):
        """Patch for the block, then restore every original.

        ``modules``: the program's modules; each public function defined in
        one becomes a span named ``<module>.<function>``. ``methods``:
        ``(class, attribute, span name)`` triples. ``counters``: the same
        triples for calls that are only counted. ``observers``: span name
        to ``f(args, kwargs, result)`` called after each call returns.
        """
        observers = observers or {}
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self._wrap(name, obj, observers.get(name))
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patch(mod, attr, wrapped[obj])
            for cls, attr, name in methods:
                self._patch(cls, attr, self._wrap(name, vars(cls)[attr],
                                                  observers.get(name)))
            for cls, attr, name in counters:
                self._patch(cls, attr, self._counter(name, vars(cls)[attr]))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as arrays (times in perf_counter seconds)."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def summary(self, roots=()) -> dict:
        """Per span name: calls and inclusive seconds; per layer (module):
        self seconds; per entry span name: the self time of the entry span
        plus that of its same-layer descendants.

        A span's self time is its duration minus its children's durations.
        An entry span is one whose parent lies in another layer (or that
        has no parent), or whose name is in ``roots``.
        """
        a = self.arrays()
        n, k = len(a["name"]), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=n)
        self_t = dur - child
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        layer_of_name = [nm.split(".", 1)[0] for nm in self.names]
        layers = sorted(set(layer_of_name))
        layer_id = np.array([layers.index(x) for x in layer_of_name],
                            dtype=np.int64)
        span_layer = layer_id[a["name"]] if n else np.zeros(0, np.int64)
        layer_self = np.bincount(span_layer, weights=self_t,
                                 minlength=len(layers))
        root_ids = {self._ids[r] for r in roots if r in self._ids}
        entry = np.arange(n)
        parents = a["parent"].tolist()
        span_layer_l = span_layer.tolist()
        names_l = a["name"].tolist()
        for i in range(n):
            p = parents[i]
            if (p >= 0 and span_layer_l[p] == span_layer_l[i]
                    and names_l[i] not in root_ids):
                entry[i] = entry[p]
        entry_self = np.bincount(a["name"][entry], weights=self_t,
                                 minlength=k)
        return {
            "spans": n,
            "calls": {nm: int(calls[j]) for j, nm in enumerate(self.names)},
            "seconds": {nm: float(incl[j])
                        for j, nm in enumerate(self.names)},
            "entry_self_seconds": {nm: float(entry_self[j])
                                   for j, nm in enumerate(self.names)},
            "layer_self_seconds": {ly: float(layer_self[j])
                                   for j, ly in enumerate(layers)},
            "counts": dict(self.counts),
        }
