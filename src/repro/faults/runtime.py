"""Adapters from an :class:`InjectionSchedule` into the simulators.

Every event is a link event, so one mechanism covers every tier: a
scheduled change of what a link can carry.

* **Capacity windows** — fixed-step fluid tiers quantize the schedule's
  link events onto the tick grid and partition the run ``[0, steps)``
  into :class:`FabricWindow` spans, in each of which every link holds
  one mode (normal / freeze / storm) and an effective capacity. An
  empty schedule yields a single all-normal window, so the unfaulted
  code path is bit-identical to a schedule-free run.
* **Clock events** — the event-driven tiers instead schedule the
  capacity changes directly on the simulator clock
  (:meth:`repro.net.phasesim.PhaseLevelSimulator.install_faults`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from .events import InjectionSchedule, LinkFailure, RateChange

#: Window modes of the fixed-step tiers.
MODE_NORMAL = "normal"
MODE_FREEZE = "freeze"
MODE_STORM = "storm"


@dataclass(frozen=True)
class Window:
    """One span of ticks ``[start, end)`` of one link under one mode.

    Attributes:
        start: First tick index of the span (inclusive).
        end: One past the last tick index (exclusive).
        mode: ``MODE_NORMAL`` (run the regular loop at ``capacity``),
            ``MODE_FREEZE`` (link failed: nothing moves) or
            ``MODE_STORM`` (PFC storm: senders idle, queue drains).
        capacity: Effective link capacity over the span, bytes/s.
    """

    start: int
    end: int
    mode: str
    capacity: float


def quantize_tick(time: float, dt: float) -> int:
    """Map an event time onto the tick grid (nearest tick boundary)."""
    return int(round(time / dt))


def single_link(schedule: Optional[InjectionSchedule]) -> Optional[str]:
    """The unique link a schedule addresses, for single-bottleneck tiers.

    Returns ``None`` for an empty/link-free schedule and raises
    :class:`~repro.errors.ConfigError` when events name more than one
    distinct link — a single-bottleneck fluid model cannot tell them
    apart.
    """
    if schedule is None:
        return None
    names = schedule.link_names()
    if not names:
        return None
    if len(names) > 1:
        raise ConfigError(
            "single-bottleneck tier cannot apply a schedule naming "
            f"multiple links: {names}"
        )
    return names[0]


def _event_spans(
    events, steps: int, dt: float, base_capacity: float
) -> List[Window]:
    """One link's capacity events quantized into sorted mode spans.

    Events that collapse to zero ticks at this resolution are dropped
    (consistent with the schedule-level zero-duration no-op rule);
    :func:`link_capacity_windows` merges the spans of every link.
    """
    spans: List[Window] = []
    for event in events:
        start = min(max(quantize_tick(event.start, dt), 0), steps)
        end = min(max(quantize_tick(event.end, dt), 0), steps)
        if end <= start:
            continue
        if isinstance(event, RateChange):
            spans.append(Window(
                start, end, MODE_NORMAL, base_capacity * event.factor
            ))
        elif isinstance(event, LinkFailure):
            spans.append(Window(start, end, MODE_FREEZE, 0.0))
        else:  # PfcStorm — the queue still drains at base capacity.
            spans.append(Window(start, end, MODE_STORM, base_capacity))
    spans.sort(key=lambda w: w.start)
    return spans


@dataclass(frozen=True)
class FabricWindow:
    """One span of ticks ``[start, end)`` with per-link fault modes.

    Attributes:
        start: First tick index of the span (inclusive).
        end: One past the last tick index (exclusive).
        modes: Link name -> ``(mode, effective_capacity)`` for every
            link whose schedule addresses this span; links absent from
            the mapping run ``MODE_NORMAL`` at their base capacity.
    """

    start: int
    end: int
    modes: Dict[str, Tuple[str, float]] = field(default_factory=dict)


def link_capacity_windows(
    schedule: Optional[InjectionSchedule],
    steps: int,
    dt: float,
    capacities: Mapping[str, float],
) -> List[FabricWindow]:
    """Partition ``[0, steps)`` into per-link fault windows.

    ``capacities`` maps every fabric link name to its base capacity, the
    schedule may address any subset of them, and the returned windows
    tile the run and merge all scheduled links' quantized boundaries
    (:func:`quantize_tick`) so that within one window every link holds a
    single mode. An empty schedule yields one all-normal window — the
    unfaulted path stays bit-identical.

    Raises :class:`~repro.errors.ConfigError` when the schedule targets
    a link outside ``capacities``.
    """
    names = [] if schedule is None else schedule.link_names()
    unknown = [name for name in names if name not in capacities]
    if unknown:
        raise ConfigError(
            f"fault schedule targets unknown link(s) {unknown}; "
            f"fabric links are {sorted(capacities)}"
        )
    spans_by_link: Dict[str, List[Window]] = {}
    cut_set = {0, steps}
    for name in names:
        spans = _event_spans(
            schedule.capacity_events(name), steps, dt, capacities[name]
        )
        spans_by_link[name] = spans
        for span in spans:
            cut_set.add(span.start)
            cut_set.add(span.end)
    cuts = sorted(tick for tick in cut_set if 0 <= tick <= steps)
    windows: List[FabricWindow] = []
    for start, end in zip(cuts, cuts[1:]):
        if end <= start:
            continue
        modes: Dict[str, Tuple[str, float]] = {}
        for name in names:
            for span in spans_by_link[name]:
                if span.start <= start < span.end:
                    modes[name] = (span.mode, span.capacity)
                    break
        windows.append(FabricWindow(start, end, modes))
    if not windows:
        windows.append(FabricWindow(0, steps))
    return windows


def emit_fault_events(telemetry, schedule: Optional[InjectionSchedule]) -> None:
    """Record every scheduled fault window into the telemetry trace."""
    if schedule is None or not telemetry.enabled:
        return
    from ..telemetry.trace import KIND_FAULT

    for event in schedule.events:
        telemetry.event(
            KIND_FAULT,
            t=event.start,
            fault=event.kind,
            target=event.link,
            end=event.end,
        )
