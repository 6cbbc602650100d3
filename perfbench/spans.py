"""Spans around the program's public functions, recorded from outside it.

The program is not edited: ``Tracer.installed()`` swaps each function in
``TARGETS`` for a wrapper at every ``maskcomplete`` module attribute that
holds it, since callers look those names up on their own module at call
time, and swaps the originals back on exit.  A target that no longer
exists is skipped, and a target nobody calls records no spans; either way
its metrics read 0 rather than fail.

Spans stay in memory until the run ends.  Each records its name, start,
end, parent span and the id of the operation it belongs to.  Self time is
a span's duration minus its direct children's, which never overlap here
because the program is single-threaded.  In memory mode each span also
records its tracemalloc peak above the bytes live at its entry.
"""

import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# (span name, module that defines the function, attribute name)
TARGETS = (
    ("cli.main", "maskcomplete.cli", "main"),
    ("pbm.read_pbm", "maskcomplete.pbm", "read_pbm"),
    ("pbm.write_pbm", "maskcomplete.pbm", "write_pbm"),
    ("completion.gamma_search", "maskcomplete.completion", "gamma_search"),
    ("completion.complete_fixed_gamma", "maskcomplete.completion", "complete_fixed_gamma"),
    ("completion.complete_single_size", "maskcomplete.completion", "complete_single_size"),
    ("completion.candidate_field", "maskcomplete.completion", "candidate_field"),
    ("masks.integral_image", "maskcomplete.masks", "integral_image"),
    ("masks.as_mask", "maskcomplete.masks", "as_mask"),
    ("masks.popcount", "maskcomplete.masks", "popcount"),
    ("corruption.guarantee_trial", "maskcomplete.corruption", "guarantee_trial"),
    ("corruption.corrupt_outcome", "maskcomplete.corruption", "corrupt_outcome"),
    ("shapes.generate_shape_mask", "maskcomplete.shapes", "generate_shape_mask"),
)


def _accepted_any(args, result):
    accept = getattr(result, "accept", None)
    return None if accept is None else bool(accept.any())


def _file_bytes(index):
    def probe(args, result):
        return os.path.getsize(args[index])

    return probe


# Notes taken after a span ends, from the call's arguments and result.
PROBES = {
    "completion.candidate_field": _accepted_any,
    "pbm.read_pbm": _file_bytes(0),
    "pbm.write_pbm": _file_bytes(1),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note", "base", "acc", "peak")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.note = None
        self.start = self.end = 0.0
        self.base = self.acc = self.peak = 0

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "note": self.note,
                "peak_bytes": self.peak}


class Tracer:
    """Records spans of the wrapped functions; ``op`` tags the current operation."""

    def __init__(self, memory=False):
        self.spans = []
        self.op = None
        self.memory = memory
        self._stack = []
        self._patched = []

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent >= 0:
                outer = self.spans[parent]
                outer.acc = max(outer.acc, peak)
            tracemalloc.reset_peak()
            span.base = span.acc = current
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            top = max(span.acc, tracemalloc.get_traced_memory()[1])
            span.peak = top - span.base
            if span.parent >= 0:
                outer = self.spans[span.parent]
                outer.acc = max(outer.acc, top)

    @contextmanager
    def span(self, name):
        """Record the enclosed block as one span."""
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if probe is not None:
                try:
                    span.note = probe(args, result)
                except (OSError, IndexError, TypeError, AttributeError):
                    pass
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "maskcomplete" or n.startswith("maskcomplete.")]
        try:
            for name, module_name, attr in TARGETS:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for module, key, value in reversed(self._patched):
                setattr(module, key, value)
            self._patched.clear()

    def write(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


class SpanStats:
    """Per-name aggregates over the spans of a chosen set of operations."""

    def __init__(self, spans, ops):
        children = defaultdict(float)
        for span in spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        self.by_name = defaultdict(list)
        for index, span in enumerate(spans):
            if span.op in ops:
                self.by_name[span.name].append((span, span.end - span.start - children[index]))
        self.n_ops = max(len(ops), 1)

    def calls(self, *names):
        """Calls per operation."""
        return sum(len(self.by_name[n]) for n in names) / self.n_ops

    def ms(self, name):
        """Mean milliseconds per call."""
        rows = self.by_name[name]
        return 1e3 * sum(s.end - s.start for s, _ in rows) / len(rows) if rows else 0.0

    def ms_per_op(self, *names):
        """Milliseconds per operation, summed over the named spans."""
        return 1e3 * sum(s.end - s.start for n in names for s, _ in self.by_name[n]) / self.n_ops

    def self_ms(self, name):
        """Mean milliseconds per call outside child spans."""
        rows = self.by_name[name]
        return 1e3 * sum(own for _, own in rows) / len(rows) if rows else 0.0

    def note_mean(self, name):
        """Mean of the numeric notes of the named spans (booleans count as 0/1)."""
        notes = [s.note for s, _ in self.by_name[name] if s.note is not None]
        return sum(notes) / len(notes) if notes else 0.0

    def peak_per_pixel(self, name, pixels):
        """Largest tracemalloc peak of the named spans, per pixel."""
        return max((s.peak for s, _ in self.by_name[name]), default=0) / pixels
