"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent) plus optional attributes.  Spans are
opened with the `span` context manager, either directly around a call or
by `patch`, which temporarily replaces a module attribute with a wrapper,
so that calls one layer of the program makes into another are timed from
outside the program.  Self time is the span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    index: int
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class SpanRecorder:
    """Holds every span of a run in memory; nothing is written until asked."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), len(self.spans), parent, attrs=attrs)
        self.spans.append(s)
        self._stack.append(s.index)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            # Children never overlap in a single-threaded caller, so their
            # durations add up to the part of the parent they cover.
            if parent is not None:
                self.spans[parent].child_time += s.duration

    @contextmanager
    def patch(self, module, attr: str, name: str, on_result=None):
        """Time every call to `module.attr` as a span called `name`.

        `on_result(span, args, result)` may copy counts from the arguments
        or the return value into the span's attributes.
        """
        original = getattr(module, attr)

        @wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(s, args, result)
                return result

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span, name: str | None = None) -> list[Span]:
        return [s for s in self.spans[span.index + 1:]
                if s.parent == span.index and (name is None or s.name == name)]

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records; only scalar attributes are kept."""
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **{k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}}
                for s in self.spans]
