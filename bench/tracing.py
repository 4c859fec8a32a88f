"""In-memory span tracer and the wrappers that time regencodes from outside.

`Instrument` swaps a library function or method for a wrapper that records a
span (name, start, end, parent span, op id) or bumps a counter, and
`restore()` puts the originals back. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for an op's root span
    op: int
    value: int = 0  # a size the wrapper measured, such as symbols passed in


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = self.clock()


def covered_length(intervals: Sequence[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [
        sp.end - sp.start - covered_length(kids, sp.start, sp.end)
        for sp, kids in zip(spans, children)
    ]


def span_wrapper(tracer: Tracer, name: str,
                 measure: Optional[Callable[[tuple, object], int]] = None):
    """Wrapper factory: a span per call; measure(args, result) fills Span.value."""

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if measure is not None:
                tracer.spans[idx].value = measure(args, result)
            return result

        return wrapper

    return make


def count_wrapper(tracer: Tracer, name: str):
    """Wrapper factory for hot calls: a counter bump and nothing else."""
    counters = tracer.counters

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper

    return make


def package_modules() -> list[object]:
    """Every loaded regencodes module: the places a patched function may be bound."""
    return [mod for name, mod in sys.modules.items()
            if (name == "regencodes" or name.startswith("regencodes.")) and mod is not None]


class Instrument:
    """Swaps functions and methods for wrappers until restore()."""

    def __init__(self, modules: Sequence[object]) -> None:
        self._modules = modules  # every module that may hold a reference
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # a module-level function is also bound wherever it was imported by name
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, obj: object, key: str, value: object) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def restore(self) -> None:
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()
