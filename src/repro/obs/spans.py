"""Timing spans: ``with span("kmr.knapsack"): ...`` wall-clock scopes.

A span measures one named scope of work.  Spans nest: entering a span
while another is active makes it a child, and the active stack is
**thread-local**, so concurrent benchmark workers or future multi-meeting
controllers do not interleave each other's timings.

Recording is two-fold:

* every span's wall-clock duration is observed into the registry
  histogram :data:`repro.obs.names.SPAN_SECONDS` under its own name
  (label ``span``), so percentile latency per scope is always available;
* the completed :class:`SpanRecord` tree of the most recent *root* span
  per thread is retained and can be inspected (``last_root_span()``) or
  pretty-printed (``format_span_tree()``) — the worked example in
  ``docs/OBSERVABILITY.md`` shows the output.

When the registry is disabled (the default), :func:`span` returns a
shared no-op context manager: entering and exiting costs two empty
method calls and records nothing, keeping instrumented hot paths free.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from .names import SPAN_SECONDS
from .registry import get_registry


@dataclass
class SpanRecord:
    """One completed (or in-flight) span and its children.

    Attributes:
        name: the span name, dotted by convention (``"kmr.knapsack"``).
        start_s: ``time.perf_counter()`` at entry.
        duration_s: wall-clock seconds from entry to exit (0 while open).
        depth: nesting depth; 0 for a root span.
        children: spans entered while this one was active, in order.
    """

    name: str
    start_s: float
    duration_s: float = 0.0
    depth: int = 0
    children: List["SpanRecord"] = field(default_factory=list)

    def flatten(self) -> List["SpanRecord"]:
        """This span followed by all descendants, depth-first."""
        out = [self]
        for child in self.children:
            out.extend(child.flatten())
        return out


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[SpanRecord] = []
        self.last_root: Optional[SpanRecord] = None


_STATE = _ThreadState()


class _Span:
    """The live context manager behind :func:`span`."""

    __slots__ = ("_record",)

    def __init__(self, name: str) -> None:
        self._record = SpanRecord(name=name, start_s=0.0)

    def __enter__(self) -> SpanRecord:
        record = self._record
        record.start_s = time.perf_counter()
        stack = _STATE.stack
        record.depth = len(stack)
        if stack:
            stack[-1].children.append(record)
        stack.append(record)
        return record

    def __exit__(self, exc_type, exc, tb) -> None:
        record = self._record
        record.duration_s = time.perf_counter() - record.start_s
        stack = _STATE.stack
        # Tolerate a torn stack (an inner span leaked across threads or was
        # exited out of order) rather than corrupting sibling timings.
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:
            while stack and stack[-1] is not record:
                stack.pop()
            if stack:
                stack.pop()
        if record.depth == 0:
            _STATE.last_root = record
        get_registry().histogram(SPAN_SECONDS, span=record.name).observe(
            record.duration_s
        )


class _NullSpan:
    """Shared no-op span used while instrumentation is disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str):
    """Open a timing span named ``name``.

    Usage::

        with span("kmr.knapsack"):
            requests = knapsack_step(...)

    Returns a context manager; entering it yields the live
    :class:`SpanRecord` (or ``None`` when instrumentation is disabled).
    """
    if not get_registry().enabled:
        return _NULL_SPAN
    return _Span(name)


def current_span() -> Optional[SpanRecord]:
    """The innermost open span on this thread, if any."""
    stack = _STATE.stack
    return stack[-1] if stack else None


def last_root_span() -> Optional[SpanRecord]:
    """The most recently completed root (depth-0) span on this thread."""
    return _STATE.last_root


def reset_spans() -> None:
    """Clear this thread's span state (test isolation)."""
    _STATE.stack = []
    _STATE.last_root = None


def format_span_tree(root: SpanRecord) -> str:
    """Render a completed span tree as an indented ASCII timing report::

        kmr.solve                        12.42ms
          kmr.knapsack                    8.91ms
          kmr.merge                       0.33ms
          kmr.reduction                   2.80ms
    """
    lines = []
    for record in root.flatten():
        indent = "  " * (record.depth - root.depth)
        label = f"{indent}{record.name}"
        lines.append(f"{label:<40s} {record.duration_s * 1000:8.2f}ms")
    return "\n".join(lines)
