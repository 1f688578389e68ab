"""Span recording around a program's functions, installed from outside it.

A ``Tracer`` swaps named attributes (module functions, names a module bound
with ``from ... import``, methods on a class) for wrappers that record one
``Span`` per call, and puts the originals back when the ``installed`` block
ends.  Spans stay in memory; the caller reads them when the run is over.

The process is single-threaded, so one stack gives every span its parent:
the innermost wrapped call still open when it started.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None   # index of the enclosing span; None at top level
    root: int = -1              # index of the outermost enclosing span (itself at top level)
    child_s: float = 0.0        # time covered by direct children
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else None
            span = Span(name, parent=parent,
                        root=idx if parent is None else spans[parent].root)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            if count is not None:
                span.counts = count(args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Wrap every ``(owner, attribute, span name, count)`` target.

        ``count(args, result)``, when given, returns the work counts stored
        on the span, such as rows encoded or bytes read.
        """
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
