"""The simulator loop.

:class:`Simulator` advances a virtual clock by executing events in
timestamp order. It is callback-based rather than coroutine-based: model
code schedules plain callables. This keeps the engine easy to reason about
and keeps stack traces flat, at the price of models keeping their own state
machines — which the fluid models in this library need anyway.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..telemetry import session as _telemetry_session
from .events import Event, EventQueue

#: Relative tolerance used when comparing simulation times.
TIME_EPSILON = 1e-12


class Simulator:
    """A discrete-event simulator with an absolute clock in seconds.

    Args:
        telemetry: Optional :class:`repro.telemetry.Telemetry` session.
            ``None`` inherits the ambient session (disabled unless a
            ``telemetry.use(...)`` block or run recorder is active).
            When enabled, every dispatched event is counted in the
            metrics registry (``sim.events``); dispatches are not traced.
    """

    def __init__(
        self,
        telemetry: Optional["_telemetry_session.Telemetry"] = None,
    ) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self.telemetry = _telemetry_session.resolve(telemetry)
        self._event_counter = self.telemetry.counter("sim.events")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Raises:
            SimulationError: if ``delay`` is negative beyond tolerance.
        """
        if delay < -TIME_EPSILON:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        return self._queue.push(self._now + max(delay, 0.0), fn, args, priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``.

        Raises:
            SimulationError: if ``time`` precedes the current clock.
        """
        if time < self._now - TIME_EPSILON:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        return self._queue.push(max(time, self._now), fn, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (safe to call more than once)."""
        self._queue.cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest event.

        Returns:
            ``True`` if an event ran, ``False`` if the queue was empty.
        """
        if not self._queue:
            return False
        event = self._queue.pop()
        if event.time < self._now - TIME_EPSILON:
            raise SimulationError(
                f"event time {event.time} precedes clock {self._now}"
            )
        self._now = max(self._now, event.time)
        self._events_executed += 1
        if self.telemetry.enabled:
            self._event_counter.inc()
        event.fn(*event.args)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, the clock passes ``until``,
        or ``max_events`` have executed — whichever comes first.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the last event fired earlier, so utilization
        probes cover the full horizon.

        Returns:
            The simulation time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while self._queue and not self._stopped:
                next_time = self._queue.peek_time()
                if until is not None and next_time is not None and (
                    next_time > until + TIME_EPSILON
                ):
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        if until is not None and not self._stopped:
            self._now = max(self._now, until)
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def drop_pending(self) -> None:
        """Drop every pending event; the clock stays where it is."""
        self._queue.clear()

    def reset(self) -> None:
        """Clear all pending events and rewind the clock to zero."""
        if self._running:
            raise SimulationError("cannot reset a running simulator")
        self._queue.clear()
        self._now = 0.0
        self._events_executed = 0
        self._stopped = False
