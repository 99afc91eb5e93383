"""In-memory span tracer that wraps the package's functions from outside.

A span is (name, start, end, parent); spans live in a list until the
run writes them out.  A layer's self time is its span duration minus
the durations of its direct child spans: one thread runs the whole
workload, so children never overlap and that difference is exactly
the part of the span no child covers.

Functions are wrapped at every module attribute that refers to them,
because callers look them up there: ``decoder`` imports
``crc_remainder_matrix`` by name, ``codespec`` imports ``build_field``
by name, so patching only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory plus counters attached at the same boundaries."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []        # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack: list = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn, observe=None):
        """Return ``fn`` recording a span per call; ``observe`` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return traced

    def self_times(self, roots=None) -> dict:
        """name -> (self seconds, calls), over the subtrees of ``roots``.

        ``roots`` is a set of span indices; None takes every span.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inside = self.subtree(roots)
        out: dict = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            if not inside[index]:
                continue
            self_s, calls = out.get(name, (0.0, 0))
            out[name] = (self_s + (end - start) - child_time[index], calls + 1)
        return out

    def subtree(self, roots) -> list:
        """Per span: does it lie in the subtree of one of ``roots``?"""
        if roots is None:
            return [True] * len(self.spans)
        inside = [False] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span[3]
            inside[index] = index in roots or (parent >= 0 and inside[parent])
        return inside

    def to_json(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def install(tracer: Tracer, modules, layers) -> callable:
    """Wrap each layer's function wherever ``modules`` expose it.

    ``layers`` maps "module.function" to an optional observer.  The
    original is found on the defining module (the first dotted part,
    looked up in ``modules`` by short name); every module attribute
    that is that same object gets the wrapper.  Returns a function
    that puts every original back.
    """
    by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    undo = []
    for layer, observe in layers.items():
        home, attr = layer.rsplit(".", 1)
        original = getattr(by_short[home], attr)
        wrapped = tracer.wrap(layer, original, observe)
        sites = [m for m in modules if getattr(m, attr, None) is original]
        for module in sites:
            setattr(module, attr, wrapped)
            undo.append((module, attr, original))

    def restore():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return restore
