"""Wall-clock profiling spans.

``with telemetry.span("solve_rotations"):`` measures the wall-clock time
of the enclosed block. Spans nest: a span opened while another is active
records a slash-separated *path* (``"experiment.table1/solve_rotations"``),
so profiles keep their call structure without a tracing dependency.

Span timings are wall-clock and therefore *excluded* from the simulation
trace (which must be deterministic); they are reported through
``Telemetry.snapshot()``, and so in the run manifest, instead.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..errors import SimulationError


class Span:
    """One timed block. Use via :meth:`SpanLog.span`, not directly."""

    __slots__ = ("name", "path", "depth", "start", "duration")

    def __init__(self, name: str, path: str, depth: int) -> None:
        self.name = name
        self.path = path
        self.depth = depth
        self.start = 0.0
        #: Wall-clock seconds; populated when the span closes.
        self.duration = 0.0


class _SpanContext:
    """Context manager pairing one :class:`Span` with its log."""

    __slots__ = ("_log", "_span")

    def __init__(self, log: "SpanLog", span: Span) -> None:
        self._log = log
        self._span = span

    def __enter__(self) -> Span:
        self._log._open(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._log._close(self._span)
        return False


class SpanLog:
    """Collects completed spans and tracks the active nesting stack."""

    def __init__(self) -> None:
        self._stack: List[Span] = []
        self.completed: List[Span] = []

    def span(self, name: str) -> _SpanContext:
        """A context manager timing the enclosed block as ``name``."""
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent else name
        return _SpanContext(self, Span(name, path, len(self._stack)))

    @property
    def active_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    def _open(self, span: Span) -> None:
        self._stack.append(span)
        span.start = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - span.start
        if not self._stack or self._stack[-1] is not span:
            raise SimulationError(
                f"span {span.path!r} closed out of order"
            )
        self._stack.pop()
        self.completed.append(span)

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Aggregate completed spans by path (count / total / mean).

        Sorted by path for deterministic manifests.
        """
        by_path: Dict[str, List[Span]] = {}
        for span in self.completed:
            by_path.setdefault(span.path, []).append(span)
        return {
            path: {
                "count": len(spans),
                "total_seconds": sum(s.duration for s in spans),
                "mean_seconds": (
                    sum(s.duration for s in spans) / len(spans)
                ),
            }
            for path, spans in sorted(by_path.items())
        }

    def find(self, name: str) -> Optional[Span]:
        """The first completed span whose name or path equals ``name``."""
        for span in self.completed:
            if span.name == name or span.path == name:
                return span
        return None


class NullSpanContext:
    """Reusable no-op span for disabled telemetry."""

    __slots__ = ()

    #: Spans read ``.duration`` after exit; keep the attribute on the
    #: null object too so callers need no enabled-check.
    duration = 0.0
    name = ""
    path = ""
    depth = 0

    def __enter__(self) -> "NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Shared no-op span instance (stateless, safe to reuse and re-enter).
NULL_SPAN = NullSpanContext()
