"""Span tracing for the benchmark.

Wrappers set on the attributes of the ``lcl`` modules record one span per
call into a public function: its name, start, end and the span that was open
when it was called (its parent). Spans are kept in memory in a flat integer
array and written to a trace file when the benchmark ends. Nothing in
``src/lcl`` knows about them.
"""

from __future__ import annotations

import array
import functools
import gzip
import json
import time
import types
from dataclasses import dataclass

LAYERS = ("similarity", "curriculum", "model", "data", "experiments", "cli")


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for a root
    tag: object = None


class Tracer:
    """Records spans; install() sets traced wrappers on module attributes and
    uninstall() puts the original functions back."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._flat = array.array("q")  # (name id, start ns, end ns, parent)
        self.tags = {}  # span index -> value returned by the wrapper's tag
        self._stack = []
        self._patched = []

    def __len__(self):
        return len(self._flat) // 4

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name):
        idx = len(self)
        parent = self._stack[-1] if self._stack else -1
        self._flat.extend((self._name_id(name), time.perf_counter_ns(), 0, parent))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if self._stack.pop() != idx:
            raise RuntimeError("spans must end in the reverse order they began")
        self._flat[4 * idx + 2] = time.perf_counter_ns()

    def wrap(self, name, fn, tag=None):
        """Return fn wrapped in a span; tag(result), when given, is stored
        with the span of every call that returns."""
        nid = self._name_id(name)
        flat, stack, tags = self._flat, self._stack, self.tags
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(flat) // 4
            flat.extend((nid, clock(), 0, stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if tag is not None:
                    tags[idx] = tag(result)
                return result
            finally:
                stack.pop()
                flat[4 * idx + 2] = clock()

        return traced

    def install(self, modules, tags=None):
        """Wrap every public function found on the given modules, aliases
        included (``lcl.experiments.subsample`` is traced as
        ``data.subsample``). tags maps a span name to its tag function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        tags = tags or {}
        for module in modules:
            for attr, fn in list(vars(module).items()):
                name = span_name(attr, fn)
                if name is not None:
                    setattr(module, attr, self.wrap(name, fn, tags.get(name)))
                    self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def spans(self):
        flat, names = self._flat, self.names
        return [Span(names[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3],
                     self.tags.get(i // 4))
                for i in range(0, len(flat), 4)]


def write_trace(recorded, path):
    """Gzipped JSON lines: a header naming the fields, then one
    [index, parent, name, start_ns, end_ns, tag] array per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": ["index", "parent", "name", "start_ns",
                                        "end_ns", "tag"]}) + "\n")
        for i, s in enumerate(recorded):
            fh.write(json.dumps([i, s.parent, s.name, s.start_ns, s.end_ns, s.tag]) + "\n")


def span_name(attr, value):
    """``<module>.<function>`` for a public lcl function, else None."""
    if attr.startswith("_") or not isinstance(value, types.FunctionType):
        return None
    module = value.__module__ or ""
    if not module.startswith("lcl."):
        return None
    return f"{module[len('lcl.'):]}.{value.__name__}"


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    covered = [0] * len(spans)
    covered_to = {}  # parent index -> end of the children seen so far
    for i in sorted(range(len(spans)), key=lambda i: spans[i].start_ns):
        p = spans[i].parent
        if p < 0:
            continue
        start = max(spans[i].start_ns, covered_to.get(p, spans[p].start_ns))
        end = min(spans[i].end_ns, spans[p].end_ns)
        if end > start:
            covered[p] += end - start
            covered_to[p] = end
    return [s.end_ns - s.start_ns - c for s, c in zip(spans, covered)]


def roots(spans):
    """Index of each span's root ancestor (parents begin before children)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


def enclosing(spans, name):
    """Index of each span's nearest ancestor-or-self called name, or -1."""
    out = []
    for i, s in enumerate(spans):
        if s.name == name:
            out.append(i)
        else:
            out.append(-1 if s.parent < 0 else out[s.parent])
    return out
