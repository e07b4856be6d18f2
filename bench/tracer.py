"""Spans and counters recorded around the public functions of each layer.

The program has no tracing of its own, so the benchmark wraps the layers'
public functions from outside.  A wrapper replaces the function under every
name a ``tunnel_slopes`` module binds it to, because callers look functions
up by the name they imported: ``slope_engine`` imports ``word``,
``winding_number``, ``segment`` and ``subgroup_slope`` from ``braid``,
``knot_families`` imports ``upper_slopes``, and ``BraidWord.__mul__`` calls
``braid.word``.  Spans live in memory as ``[name, parent, start_ns, end_ns]``
lists and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable


def _letters(w) -> int:
    return len(w.letters)


def _slope_count(seq) -> int:
    return 0 if not seq else 1 + len(seq.rest)


def _word_args(args, kwargs):
    # word() accepts any iterable; spell it out once so it can be counted.
    return (tuple(args[0]),), kwargs


# (module, function, counters): each counter is (suffix, fn(args, result)).
TARGETS: tuple[tuple[str, str, tuple], ...] = (
    ("cli", "main", ()),
    ("slope_engine", "upper_slopes", (("slopes", lambda args, r: _slope_count(r)),)),
    ("slope_engine", "lower_slopes", ()),
    ("slope_engine", "braid_from_slopes", ()),
    (
        "slope_engine",
        "peephole",
        (
            ("letters_in", lambda args, r: _letters(args[0])),
            ("letters_out", lambda args, r: _letters(r)),
        ),
    ),
    ("braid", "word", (("letters_in", lambda args, r: len(args[0])),)),
    ("braid", "winding_number", (("letters", lambda args, r: _letters(args[0])),)),
    ("braid", "subgroup_slope", ()),
    ("braid", "segment", (("segments", lambda args, r: len(r) if r else 0),)),
    ("exact_arith", "expand_odd_numerator", ()),
    ("exact_arith", "expand_all_even", ()),
    ("exact_arith", "cf_eval", ()),
    ("knot_families", "two_bridge_tunnels", ()),
    ("knot_families", "semisimple_slopes_closed_form", ()),
    ("knot_families", "find_two_bridge", ()),
    ("knot_families", "upper_semisimple_word", (("letters", lambda args, r: _letters(r)),)),
)

_PREPARE = {("braid", "word"): _word_args}


class Tracer:
    """Records spans and counts while installed; see ``installed``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, counters, prepare=None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            counts = tracer.counts
            counts[name + ".calls"] += 1
            for suffix, measure in counters:
                counts[f"{name}.{suffix}"] += measure(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target under each name the package binds it to."""
        patched: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "tunnel_slopes"]
        try:
            for module_name, function, counters in TARGETS:
                original = getattr(sys.modules[f"tunnel_slopes.{module_name}"], function)
                wrapper = self.wrap(
                    original,
                    f"{module_name}.{function}",
                    counters,
                    _PREPARE.get((module_name, function)),
                )
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """Total and self nanoseconds per span name.

        A span's self time is its duration minus the durations of its direct
        children; calls are synchronous on one thread, so children never
        overlap each other.
        """
        child = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict = defaultdict(int)
        own: dict = defaultdict(int)
        for i, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own


def write_spans(path, sections: dict[str, Tracer]) -> int:
    """Write spans as gzipped JSON lines; returns the span count.

    Each line is [section, index, parent index, name, start, end], with
    times in nanoseconds from the section's first span.
    """
    import gzip  # only the parent writes files; keep the CLI child's imports lean

    written = 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for section, tracer in sections.items():
            origin = tracer.spans[0][2] if tracer.spans else 0
            for i, (name, parent, start, end) in enumerate(tracer.spans):
                out.write(json.dumps([section, i, parent, name, start - origin, end - origin]) + "\n")
                written += 1
    return written


def ms(ns: int) -> float:
    return ns / 1e6
