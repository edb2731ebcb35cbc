"""Time-series recording for simulation probes.

Two containers cover the library's needs:

* :class:`TimeSeries` — irregular samples ``(t, value)``, e.g. measured
  per-iteration times.
* :class:`StepFunction` — a piecewise-constant signal, e.g. the rate a flow
  holds between allocation changes. Supports exact time-integration, which
  is how the phase simulator computes bytes transferred and how utilization
  plots are produced without sampling error.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import SimulationError


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"time series {self.name!r} sampled out of order: "
                f"{time} after {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    @classmethod
    def from_arrays(
        cls,
        name: str,
        times: Iterable[float],
        values: Iterable[float],
    ) -> "TimeSeries":
        """Build a series from already-collected samples in one shot.

        The fixed-step engines buffer their sample rows and materialize
        the series after the run instead of appending inside the hot
        loop. Times must be non-decreasing, as with :meth:`record`.
        """
        series = cls(name)
        series._times = [float(t) for t in times]
        series._values = [float(v) for v in values]
        for earlier, later in zip(series._times, series._times[1:]):
            if later < earlier:
                raise SimulationError(
                    f"time series {name!r} sampled out of order: "
                    f"{later} after {earlier}"
                )
        return series

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values, dtype=float)


class StepFunction:
    """A right-continuous piecewise-constant function of time.

    The function holds ``initial`` before the first breakpoint; setting a
    value at time ``t`` makes the function equal to that value on
    ``[t, next breakpoint)``.
    """

    def __init__(self, initial: float = 0.0, name: str = "") -> None:
        self.name = name
        self._initial = float(initial)
        self._times: list[float] = []
        self._values: list[float] = []

    def set(self, time: float, value: float) -> None:
        """Set the value from ``time`` onward; times must be non-decreasing.

        Setting a new value at an existing last breakpoint overwrites it,
        which lets callers update several quantities at one instant.
        """
        times = self._times
        if times:
            last = times[-1]
            if time < last:
                raise SimulationError(
                    f"step function {self.name!r} set out of order: "
                    f"{time} after {last}"
                )
            if time == last:
                self._values[-1] = float(value)
                return
            current = self._values[-1]
        else:
            current = self._initial
        # Skip no-op transitions to keep the representation minimal.
        if value == current:
            return
        times.append(float(time))
        self._values.append(float(value))

    def value_at(self, time: float) -> float:
        """Evaluate the function at ``time`` (right-continuous)."""
        index = bisect.bisect_right(self._times, time)
        if index == 0:
            return self._initial
        return self._values[index - 1]

    def integrate(self, start: float, end: float) -> float:
        """Exact integral of the function over ``[start, end]``."""
        if end < start:
            raise SimulationError(f"bad integration window [{start}, {end}]")
        if end == start:
            return 0.0
        total = 0.0
        lo = bisect.bisect_right(self._times, start)
        cursor = start
        value = self._values[lo - 1] if lo > 0 else self._initial
        for index in range(lo, len(self._times)):
            breakpoint_time = self._times[index]
            if breakpoint_time >= end:
                break
            total += value * (breakpoint_time - cursor)
            cursor = breakpoint_time
            value = self._values[index]
        total += value * (end - cursor)
        return total

    def breakpoints(self) -> Sequence[tuple[float, float]]:
        """All ``(time, value)`` transitions, for plotting."""
        return list(zip(self._times, self._values))

    def sample(self, times: Iterable[float]) -> np.ndarray:
        """Evaluate the function at each time in ``times``."""
        return np.asarray([self.value_at(t) for t in times], dtype=float)

    def last_value(self) -> float:
        """The value after the final breakpoint."""
        return self._values[-1] if self._values else self._initial
