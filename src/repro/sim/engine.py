"""The simulator loop.

:class:`Simulator` advances a virtual clock by executing events in
timestamp order. It is callback-based rather than coroutine-based: model
code schedules plain callables. This keeps the engine easy to reason about
and keeps stack traces flat, at the price of models keeping their own state
machines — which the fluid models in this library need anyway.
"""

from __future__ import annotations

import heapq
import math
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
            SimulationError: if ``delay`` is negative beyond tolerance,
                or NaN or infinite.
        """
        if delay < 0.0:
            if delay < -TIME_EPSILON:
                raise SimulationError(
                    f"cannot schedule in the past: delay={delay}"
                )
            delay = 0.0
        return self._queue.push(self._now + delay, fn, args, priority)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``.

        Raises:
            SimulationError: if ``time`` precedes the current clock, or
                is NaN or infinite.
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

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains, the clock passes ``until``
        or an event calls :meth:`stop` — whichever comes first.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return even if the last event fired earlier, so utilization
        probes cover the full horizon.

        The loop pops the queue's heap itself, one entry per event and
        no call besides the event's own: it skips cancelled entries
        (they do not count toward ``sim.events``), stops before an entry
        past ``until`` and after the event that calls :meth:`stop`.

        Returns:
            The simulation time at which the run stopped.

        Raises:
            SimulationError: when re-entered from an event, or when an
                event's time precedes the clock.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until + TIME_EPSILON
        counter = self._event_counter if self.telemetry.enabled else None
        try:
            while heap and not self._stopped:
                time, _, _, event = heap[0]
                if event.cancelled:
                    pop(heap)
                    continue
                if time > horizon:
                    break
                pop(heap)
                queue._live -= 1
                event.executed = True
                now = self._now
                if time < now - TIME_EPSILON:
                    raise SimulationError(
                        f"event time {time} precedes clock {now}"
                    )
                if time > now:  # max(now, time), which keeps now on a tie
                    self._now = time
                self._events_executed += 1
                if counter is not None:
                    counter.inc()
                event.fn(*event.args)
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
