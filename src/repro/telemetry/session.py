"""The telemetry session facade and the ambient current session.

A :class:`Telemetry` object bundles the three recording surfaces —
counter registry, simulation-event trace, wall-clock span log — behind
one handle that instrumented code can treat uniformly:

* ``tel.counter("sim.events").inc()`` — counters
* ``tel.event("job.phase", t=now, job="J1", state="comm")`` — trace;
  a hot path binds ``tel.emitter("job.phase", "job", "state")`` once
  and calls it with ``(now, "J1", "comm")``
* ``with tel.span("solve_rotations"):`` — profiling

Disabled telemetry is the :data:`NULL` singleton: ``enabled`` is False,
every call is a no-op, and nothing is ever allocated, so always-on
instrumentation costs one attribute check on hot paths.

The trace is held as encoded JSONL lines (:mod:`repro.telemetry.trace`):
:meth:`Telemetry.worker_state` ships them with their per-kind counts,
and :meth:`Telemetry.merge_worker_state` appends them as they are, so a
record is encoded once, in the session that emitted it, and no step
between the emit and the run's ``trace.jsonl`` decodes it.

Most components accept an explicit ``telemetry=`` argument; components
that cannot (placement policies, the solver facade) use the *ambient*
session — :func:`current` returns whatever session the innermost
:func:`use` context installed, or :data:`NULL`. Experiment drivers and
the CLI install a session around a whole run, so every layer inherits
instrumentation without signature churn.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator, Optional

from .metrics import Counter, NullCounter, Registry
from .spans import NULL_SPAN, SpanLog
from .trace import TraceRecorder


class Telemetry:
    """One recording session: registry + trace + spans."""

    #: Hot paths branch on this instead of calling no-op methods.
    enabled = True

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.registry = Registry()
        self.trace = TraceRecorder()
        self.spans = SpanLog()

    # -- counters ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Named counter from this session's registry."""
        return self.registry.counter(name)

    # -- trace ---------------------------------------------------------

    def event(self, kind: str, t: float, **fields: Any) -> None:
        """Record one simulation event (simulation time, no wall clock)."""
        self.trace.emit(kind, t, **fields)

    def emitter(self, kind: str, *names: str) -> Callable[..., None]:
        """A bound emitter for one record shape: calling it with
        ``(t, *values)`` records what ``event(kind, t, **fields)`` would,
        ``fields`` being ``names`` with ``values``
        (:meth:`TraceRecorder.emitter`)."""
        return self.trace.emitter(kind, *names)

    # -- spans ---------------------------------------------------------

    def span(self, name: str):
        """Context manager timing the enclosed block (wall clock)."""
        return self.spans.span(name)

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters + span timings + trace summary (no trace payload).

        ``events`` and ``event_kinds`` are the recorder's line count and
        per-kind counts; no line is decoded.
        """
        data = self.registry.snapshot()
        data["spans"] = self.spans.timings()
        data["events"] = len(self.trace)
        data["event_kinds"] = self.trace.counts_by_kind()
        return data

    def worker_state(self) -> dict:
        """Everything a worker process ships back to its parent session.

        Carries the registry snapshot (every counter), a copy of the
        trace's encoded lines (``trace``, one string per record) and
        their per-kind counts (``event_kinds``), and nothing wall-clock: the
        result cache stores this state, so two runs of one spec must
        produce the same bytes. Spans are wall-clock and per-process,
        so they are *not* part of it; the runner ships a worker's
        completed spans next to this state and appends them to the
        parent session's span log under ``runner.worker/<label>/``.
        """
        return {
            "registry": self.registry.snapshot(),
            "trace": list(self.trace.lines),
            "event_kinds": self.trace.counts_by_kind(),
        }

    def merge_worker_state(self, state: dict) -> None:
        """Fold a :meth:`worker_state` dict into this session.

        Counters add into the registry; trace lines append in the order
        given, undecoded (the runner calls this in spec order, so merged
        traces are deterministic regardless of worker scheduling).
        No-op on disabled sessions.

        Raises:
            ConfigError: when the kind counts do not sum to the number
                of trace lines.
        """
        if not self.enabled:
            return
        self.registry.merge_state(state.get("registry", {}))
        self.trace.extend(
            state.get("trace", []), state.get("event_kinds", {})
        )


class NullTelemetry(Telemetry):
    """The disabled session: accepts everything, records nothing."""

    enabled = False

    _COUNTER = NullCounter("null")

    def __init__(self) -> None:
        super().__init__(name="null")

    def counter(self, name: str) -> Counter:
        return self._COUNTER

    def event(self, kind: str, t: float, **fields: Any) -> None:
        pass

    def emitter(self, kind: str, *names: str) -> Callable[..., None]:
        return _discard

    def span(self, name: str):
        return NULL_SPAN


def _discard(t: float, *values: Any) -> None:
    """The disabled session's emitter: records nothing."""


#: The shared disabled session. ``Simulator(telemetry=None)`` resolves to
#: the ambient session, which is NULL unless a :func:`use` block is open.
NULL = NullTelemetry()

_current: Telemetry = NULL


def current() -> Telemetry:
    """The ambient session (:data:`NULL` when none is installed)."""
    return _current


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """Map an optional ``telemetry=`` argument to a concrete session.

    ``None`` means "inherit the ambient session" — the convention every
    instrumented constructor in the library follows.
    """
    return telemetry if telemetry is not None else _current


@contextlib.contextmanager
def use(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the ambient session for the block."""
    global _current
    previous = _current
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
