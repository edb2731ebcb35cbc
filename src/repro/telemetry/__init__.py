"""Telemetry: counters, simulation traces and wall-clock profiling.

Three recording surfaces behind one :class:`Telemetry` session:

* **Counters** (:mod:`~repro.telemetry.metrics`) — named deterministic
  counters in a :class:`Registry`, replayed from the result cache.
* **Trace** (:mod:`~repro.telemetry.trace`) — typed simulation-event
  records (phase transitions, rate changes, placements) carrying only
  simulation time, so seeded runs trace byte-identically.
* **Spans** (:mod:`~repro.telemetry.spans`) — wall-clock profiling of
  code blocks, nested by path.

Instrumented components take ``telemetry=None`` meaning "inherit the
ambient session" (:func:`current`); :func:`use` installs one for a
block, and :class:`~repro.telemetry.runs.RunRecorder` (imported from
``repro.telemetry.runs``) persists a whole run as a directory with a
JSONL trace and a JSON manifest.

Disabled telemetry is the :data:`NULL` singleton — every operation is a
no-op, so the default (unrecorded) simulator paths stay fast.
"""

from .metrics import Counter, Registry
from .session import NULL, NullTelemetry, Telemetry, current, resolve, use
from .spans import NULL_SPAN, Span, SpanLog
from .trace import (
    KIND_COMM,
    KIND_ITERATION,
    KIND_PHASE,
    KIND_PLACEMENT,
    KIND_RATE,
    KIND_SOLVE,
    TraceRecord,
    TraceRecorder,
)

__all__ = [
    "Counter",
    "Registry",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "current",
    "resolve",
    "use",
    "NULL_SPAN",
    "Span",
    "SpanLog",
    "TraceRecord",
    "TraceRecorder",
    "KIND_COMM",
    "KIND_ITERATION",
    "KIND_PHASE",
    "KIND_PLACEMENT",
    "KIND_RATE",
    "KIND_SOLVE",
]
