"""Named counters.

A :class:`Registry` hands out counters by name so independent subsystems
can share one metrics namespace without passing objects around. A
counter is a plain attribute-slot object — incrementing it is one float
add — because counters sit on simulator hot paths (every event dispatch,
every reallocation).

When telemetry is disabled the :class:`NullCounter` is used instead: it
accepts the same calls and does nothing, so instrumented code never
needs an ``if enabled`` guard around counter updates (guards are still
worth it around trace-record construction, which allocates).
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import ConfigError


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigError(f"counter {self.name!r}: negative increment")
        self.value += amount


class NullCounter(Counter):
    """Counter that ignores updates (shared by disabled telemetry)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass


class Registry:
    """Create-or-get store of named counters.

    Names are free-form dotted strings (``"sim.events"``,
    ``"phasesim.reallocations"``). Asking for the same name twice returns
    the same counter.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def snapshot(self) -> Dict[str, Any]:
        """``{"counters": {name: value}}``, sorted by name.

        The one export: run manifests carry it, and worker processes ship
        it to their parent for :meth:`merge_state`.
        """
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Add the counters of another registry's :meth:`snapshot`.

        Any other key is ignored, so cache entries written when the
        registry also held gauges and histograms replay the same counters.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).value += float(value)
