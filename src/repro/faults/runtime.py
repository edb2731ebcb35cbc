"""Adapters from an :class:`InjectionSchedule` into the simulators.

Two mechanisms cover every tier:

* **Capacity windows** — fixed-step fluid tiers quantize the schedule's
  capacity-affecting link events onto the tick grid and partition the
  run ``[0, steps)`` into :class:`FabricWindow` spans, in each of which
  every link holds one mode (normal / freeze / storm) and an effective
  capacity. An empty schedule yields a single all-normal window, so the
  unfaulted code path is bit-identical to a schedule-free run. The
  event-driven tiers instead schedule capacity mutations directly on
  the simulator clock.
* **Job warps** — per-job compute perturbations (stragglers, clock
  skew) and latency spikes compile into a :class:`JobWarp`, a picklable
  callable installed as :attr:`repro.core.lifecycle.JobLifecycle.warp`.
  Every tier calls the lifecycle's transition methods at identical
  simulation times, so warping inside the lifecycle keeps DCQCN's
  sender bank and scalar oracle bit-for-bit aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from .events import (
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)

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
    names = [] if schedule is None else [
        name
        for name in schedule.link_names()
        if schedule.capacity_events(name)
    ]
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


@dataclass(frozen=True)
class JobWarp:
    """Compiled per-job perturbations, applied inside the lifecycle.

    Called as ``warp(now, duration)`` when a compute phase begins at
    simulation time ``now`` with unperturbed duration ``duration``;
    returns the perturbed duration (clamped at zero). Stragglers apply
    multiplicatively and clock skews additively when the phase *begins*
    inside their window; latency spikes add their extra seconds when the
    subsequent communication phase (at ``now + duration``) would begin
    inside theirs.
    """

    stragglers: Tuple[Tuple[float, float, float], ...] = ()
    skews: Tuple[Tuple[float, float, float], ...] = ()
    spikes: Tuple[Tuple[float, float, float], ...] = ()

    def __call__(self, now: float, duration: float) -> float:
        warped = duration
        for start, end, factor in self.stragglers:
            if start <= now < end:
                warped *= factor
        for start, end, offset in self.skews:
            if start <= now < end:
                warped += offset
        if warped < 0.0:
            warped = 0.0
        for start, end, extra in self.spikes:
            if start <= now + warped < end:
                warped += extra
        return warped


def build_warp(
    schedule: Optional[InjectionSchedule],
    job: str,
    links: Iterable[str] = (),
) -> Optional[JobWarp]:
    """Compile the schedule's perturbations of one job into a warp.

    ``links`` names the links the job's traffic traverses; latency
    spikes on those links delay the job's communication phases. Returns
    ``None`` when nothing in the schedule touches the job, so callers
    can skip installing a warp (and keep the unfaulted path untouched).
    """
    if schedule is None:
        return None
    link_set = set(links)
    stragglers = []
    skews = []
    for event in schedule.job_events(job):
        if isinstance(event, Straggler):
            stragglers.append((event.start, event.end, event.factor))
        else:
            skews.append((event.start, event.end, event.offset))
    spikes = [
        (event.start, event.end, event.extra)
        for event in schedule.latency_events()
        if event.link in link_set
    ]
    if not (stragglers or skews or spikes):
        return None
    return JobWarp(
        stragglers=tuple(stragglers),
        skews=tuple(skews),
        spikes=tuple(spikes),
    )


def emit_fault_events(telemetry, schedule: Optional[InjectionSchedule]) -> None:
    """Record every scheduled fault window into the telemetry trace."""
    if schedule is None or not telemetry.enabled:
        return
    from ..telemetry.trace import KIND_FAULT

    for event in schedule.events:
        target = getattr(event, "link", None)
        if target is None:
            target = event.job
        telemetry.event(
            KIND_FAULT,
            t=event.start,
            fault=event.kind,
            target=target,
            end=event.end,
        )
