"""Span recording for the traced benchmark run.

A Tracer wraps chainconc's public functions in every namespace they are
looked up from (``gamma.operator_norm`` and ``concentration.operator_norm``
get the same wrapper) and records one span per call: name, start, end,
parent span and op id. Spans live in flat arrays and are summarised when a
pass ends. The self time of a span is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import Counter


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents) -> list[int]:
    """Per span: duration minus the union of its direct children, clipped to it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[sid], ends[sid]))
    out = []
    for sid, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(sid)
        covered = 0
        if kids:
            covered = union_length((max(a, s), min(b, e)) for a, b in kids if min(b, e) > max(a, s))
        out.append(e - s - covered)
    return out


class Tracer:
    """In-memory span recorder; one instance is installed for a traced pass.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after the span closes to add computed counts to ``counts``.
    Spans named in ``memory_spans`` run under tracemalloc (when no enclosing
    span already does) and record their allocation peak in ``peak_bytes``;
    tracemalloc slows every allocation inside them, so a tracer with memory
    spans is for an untimed pass.
    """

    def __init__(self, clock=time.perf_counter_ns, hooks=None, memory_spans=()):
        self.clock = clock
        self.hooks = dict(hooks or {})
        self.memory_spans = frozenset(memory_spans)
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self.peak_bytes: dict[str, int] = {}

    def _open(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(-1)
        self._stack.append(sid)
        self.span_start.append(self.clock())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation; spans inside carry its id."""
        self.op_id = op_id
        sid = self._open("op")
        try:
            yield
        finally:
            self._close(sid)
            self.op_id = -1

    def call(self, name: str, fn, args, kwargs):
        own_memory = name in self.memory_spans and not tracemalloc.is_tracing()
        if own_memory:
            tracemalloc.start()
        sid = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid)
            if own_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def mark_distinct(self, name: str, key) -> None:
        self.distinct.setdefault(name, set()).add(key)

    def summary(self) -> dict:
        """Per span name: calls and self time (ns); per op span: the share of it
        that its child spans cover (1.0 for an op of zero length)."""
        selfs = self_times(self.span_start, self.span_end, self.span_parent)
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        op_cover = []
        for sid, idx in enumerate(self.span_name):
            name = self.names[idx]
            calls[name] += 1
            self_ns[name] += selfs[sid]
            if self.span_parent[sid] < 0:
                length = self.span_end[sid] - self.span_start[sid]
                op_cover.append(1.0 - selfs[sid] / length if length > 0 else 1.0)
        return {"calls": dict(calls), "self_ns": dict(self_ns), "op_cover": op_cover,
                "spans": len(self.span_name)}


def resolve(paths) -> list[tuple[str, object, str]]:
    """'concentration.TabularFunction.from_vectorized' -> (path, owner, attribute)."""
    out = []
    for path in paths:
        module, *rest = path.split(".")
        owner = importlib.import_module(f"chainconc.{module}")
        for part in rest[:-1]:
            owner = getattr(owner, part)
        out.append((path, owner, rest[-1]))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer, targets, modules):
    """Replace each target with a recording wrapper wherever it is bound.

    ``targets`` are (span name, owner, attribute) triples. A function is
    replaced in every module of ``modules`` that holds the same function
    object; a classmethod is replaced on its class. Everything is restored
    on exit.
    """
    patches = []
    try:
        for name, owner, attr in targets:
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                patches.append((owner, attr, raw))
                setattr(owner, attr, classmethod(_wrapper(tracer, name, raw.__func__)))
                continue
            wrapper = _wrapper(tracer, name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def package_modules() -> list:
    """Every loaded chainconc module, the package itself included."""
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "chainconc" or n.startswith("chainconc."))]


def _wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced
