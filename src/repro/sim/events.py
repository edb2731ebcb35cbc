"""Event objects and the pending-event queue.

Events are ordered by ``(time, priority, sequence)``. The sequence number
breaks ties deterministically in FIFO order, which makes simulations
reproducible regardless of heap internals. The heap holds
``(time, priority, seq, event)`` tuples, so its sifts compare tuples in
C; ``seq`` is unique, so a comparison never reaches the event itself.
Cancellation is lazy: a cancelled event stays in the heap and is skipped
when popped, which keeps both ``cancel`` and ``push`` O(log n) amortized.
A NaN time compares false both ways and would silently break the heap's
order, so :meth:`EventQueue.push` refuses non-finite times.
:meth:`repro.sim.engine.Simulator.run` pops the heap directly, with the
same skip rule as :meth:`EventQueue.pop`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from ..errors import SimulationError


class Event:
    """A scheduled callback.

    Attributes:
        time: Absolute simulation time at which the event fires.
        priority: Secondary ordering key; lower fires first at equal time.
        seq: Monotonic tie-breaker assigned by the queue.
        fn: Callable invoked when the event fires.
        args: Positional arguments passed to ``fn``.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled", "executed")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"Event(t={self.time:.9f}, fn={name}, {state})"


class EventQueue:
    """Min-heap of pending events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` and return the event.

        Every event enters the heap here, so this is where a time that
        would break the heap's order is refused.

        Raises:
            SimulationError: if ``time`` is NaN or infinite.
        """
        if not math.isfinite(time):
            raise SimulationError(f"event time must be finite, got {time!r}")
        seq = next(self._counter)
        event = Event(time, priority, seq, fn, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event.

        Idempotent, and a no-op for events that already executed — model
        code may hold stale handles after an event fires.
        """
        if not event.cancelled and not event.executed:
            event.cancelled = True
            self._live -= 1

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises:
            SimulationError: if the queue has no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if not event.cancelled:
                self._live -= 1
                event.executed = True
                return event
        raise SimulationError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or ``None``."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if self._heap:
            return self._heap[0][0]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0
