"""In-memory span tracing installed from outside the program.

A :class:`Tracer` replaces public callables of the program (methods of
its classes, attributes of its modules or instances) with wrappers that
record one span per call: name, start, end, parent span and trace id.
Nothing under ``src/`` knows about it; :meth:`Tracer.restore` puts
every original back.

Parents are tracked per thread, so a span's parent is the innermost
wrapped call still open on the same thread. A trace id names the
request or scheduler tick a span belongs to: a wrapper created with
``begins_trace`` starts a new id on its thread, and every later span on
that thread inherits it until the next one starts.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import namedtuple

__all__ = ["Span", "Tracer", "self_times", "covered_seconds", "union_length"]

#: One finished call. ``note`` carries what the wrapper extracted from
#: the call (batch sizes, keys, labels queried), or ``None``.
Span = namedtuple(
    "Span", "id name start end parent trace thread note",
)


class Tracer:
    """Record spans around wrapped callables; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.absent = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trace = None
        return local

    def set_trace(self, trace_id):
        """Make ``trace_id`` the current trace of the calling thread."""
        self._state().trace = trace_id

    def wrap(self, owner, attr, name, note=None, begins_trace=None):
        """Wrap ``owner.attr`` so each call records a span ``name``.

        ``note(args, kwargs, result)`` may return a value stored on the
        span; ``begins_trace(args, kwargs)`` returns a new trace id for
        the calling thread. Returns ``False`` and records ``name`` under
        :attr:`absent` when ``owner`` has no such attribute, so a
        renamed or removed target shows up as a missing layer instead
        of an error.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        original = getattr(owner, attr, None)
        if original is None:
            self.absent[name] = f"{_qualname(owner)}.{attr}"
            return False
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else original
        wrapper = self._wrapper(func, name, note, begins_trace)
        self._patches.append((owner, attr, raw if isinstance(owner, type)
                              else owner.__dict__.get(attr)))
        setattr(owner, attr,
                classmethod(wrapper) if is_classmethod else wrapper)
        return True

    def _wrapper(self, func, name, note, begins_trace):
        # The workloads time requests with the same clock, so spans and
        # request timestamps can be compared.
        clock = time.perf_counter
        spans = self.spans
        ids = self._ids
        state = self._state

        def traced(*args, **kwargs):
            local = state()
            if begins_trace is not None:
                local.trace = begins_trace(args, kwargs)
            stack = local.stack
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(
                    span_id, name, start, end, parent, local.trace,
                    threading.get_ident(),
                    None if note is None else note(args, kwargs, result),
                ))

        traced.__wrapped__ = func
        return traced

    def restore(self):
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def to_json(self):
        """The spans as JSON-ready rows (times in seconds)."""
        return [
            {
                "id": span.id, "name": span.name, "start": span.start,
                "end": span.end, "parent": span.parent,
                "trace": span.trace, "thread": span.thread,
                "note": _jsonable(span.note),
            }
            for span in self.spans
        ]


def _qualname(owner):
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    module = getattr(owner, "__name__", None)
    return module or type(owner).__qualname__


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return value if isinstance(value, (int, float, str)) else None


def union_length(intervals):
    """Total length covered by a collection of ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """``span id -> self time``: the span's duration minus the part of
    it that its child spans cover (overlapping children count once)."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
            if child.end > span.start and child.start < span.end
        )
        result[span.id] = (span.end - span.start) - covered
    return result


def covered_seconds(spans, start, end):
    """Seconds of ``[start, end]`` during which any span was open."""
    return union_length(
        (max(span.start, start), min(span.end, end))
        for span in spans
        if span.end > start and span.start < end
    )
