"""Validated time-bounded perturbation events.

The fault model follows the AsyncFlow edge-event design: every
perturbation is a *window* ``[start, end)`` with explicit start/end
markers, and the whole :class:`InjectionSchedule` is validated once at
build time — overlapping windows on the same target, inverted bounds and
events outside the horizon are rejected before any simulator sees them.
Runtime code can therefore assume a well-formed schedule and never
branch on malformed input inside the hot loops.

Two event families exist:

* **Link events** target a named link: :class:`RateChange` (capacity
  scaled by a factor), :class:`LinkFailure` (the link carries nothing),
  :class:`PfcStorm` (a pause storm: upstream senders are throttled while
  the queue drains) and :class:`LatencySpike` (extra seconds added to
  communication phases that start inside the window).
* **Job events** target a named job: :class:`Straggler` (compute phases
  stretched by a factor) and :class:`ClockSkew` (a constant offset added
  to compute phases).

All event classes are frozen dataclasses, so a schedule is hashable
enough to embed in a :class:`repro.runner.RunSpec` and picklable for the
``run_many`` worker fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ConfigError


def _require_window(event: "FaultEventT", horizon: Optional[float]) -> None:
    """Shared bounds validation for one event."""
    start, end = event.start, event.end
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ConfigError(f"{event!r}: start/end must be finite")
    if start < 0:
        raise ConfigError(f"{event!r}: start must be >= 0")
    if end < start:
        raise ConfigError(f"{event!r}: end must be >= start")
    if horizon is not None and end > horizon:
        raise ConfigError(
            f"{event!r}: event ends after the schedule horizon {horizon}"
        )


@dataclass(frozen=True)
class RateChange:
    """Scale a link's capacity by ``factor`` over ``[start, end)``.

    ``factor`` may be below 1 (a congestion dip) or above 1 (a transient
    headroom spike); it must stay strictly positive — a dead link is a
    :class:`LinkFailure`, which the runtimes model differently.
    """

    link: str
    start: float
    end: float
    factor: float

    kind = "rate-change"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ConfigError(
                f"{self!r}: factor must be finite and > 0"
            )


@dataclass(frozen=True)
class LinkFailure:
    """The link carries nothing over ``[start, end)``.

    Fluid tiers freeze everything behind the failed link (senders,
    queue, activation clockwork); the event-driven tiers set the link's
    capacity to zero and let the allocator starve its flows.
    """

    link: str
    start: float
    end: float

    kind = "link-failure"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)


@dataclass(frozen=True)
class PfcStorm:
    """A PFC pause storm on the link over ``[start, end)``.

    In the fixed-step fluid tiers the senders routed across the link
    idle while its queue drains at base capacity, whatever its
    occupancy, and DCQCN accrues ``pfc_pause_seconds``; a
    :class:`LinkFailure` instead holds the queue. The event-driven
    tiers, which model no queues, degrade it to a transient link
    failure.
    """

    link: str
    start: float
    end: float

    kind = "pfc-storm"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)


@dataclass(frozen=True)
class LatencySpike:
    """Add ``extra`` seconds to communication phases starting inside
    ``[start, end)`` on this link (an RTT inflation / reroute detour)."""

    link: str
    start: float
    end: float
    extra: float

    kind = "latency-spike"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)
        if not math.isfinite(self.extra) or self.extra < 0:
            raise ConfigError(f"{self!r}: extra must be finite and >= 0")


@dataclass(frozen=True)
class Straggler:
    """Stretch the job's compute phases by ``factor`` inside the window
    (a slow worker dragging the whole data-parallel iteration)."""

    job: str
    start: float
    end: float
    factor: float

    kind = "straggler"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)
        if not math.isfinite(self.factor) or self.factor <= 0:
            raise ConfigError(f"{self!r}: factor must be finite and > 0")


@dataclass(frozen=True)
class ClockSkew:
    """Add a constant ``offset`` (seconds, may be negative) to compute
    phases beginning inside the window. The effective phase duration is
    clamped at zero."""

    job: str
    start: float
    end: float
    offset: float

    kind = "clock-skew"

    def validate(self, horizon: Optional[float]) -> None:
        _require_window(self, horizon)
        if not math.isfinite(self.offset):
            raise ConfigError(f"{self!r}: offset must be finite")


#: Events that address a link by name.
LINK_EVENT_TYPES = (RateChange, LinkFailure, PfcStorm, LatencySpike)
#: Link events that alter the link's effective capacity (and therefore
#: partition fixed-step runs into windows).
CAPACITY_EVENT_TYPES = (RateChange, LinkFailure, PfcStorm)
#: Events that address a job by name.
JOB_EVENT_TYPES = (Straggler, ClockSkew)

FaultEventT = Union[
    RateChange, LinkFailure, PfcStorm, LatencySpike, Straggler, ClockSkew
]

#: Codec registry: wire-format tag -> event class (see repro.io).
EVENT_KINDS: Dict[str, type] = {
    cls.kind: cls for cls in LINK_EVENT_TYPES + JOB_EVENT_TYPES
}


def _check_disjoint(events: List[FaultEventT], target: str) -> None:
    """Reject overlapping windows aimed at the same target."""
    ordered = sorted(events, key=lambda ev: (ev.start, ev.end))
    for left, right in zip(ordered, ordered[1:]):
        if right.start < left.end:
            raise ConfigError(
                f"overlapping fault windows on {target!r}: "
                f"{left!r} and {right!r}"
            )


@dataclass(frozen=True)
class InjectionSchedule:
    """A validated, immutable set of perturbation events.

    Args:
        events: The fault events. Zero-duration events (``end == start``)
            are documented no-ops and dropped at build time.
        horizon: Optional simulation horizon in seconds; events ending
            past it are rejected (they could never fire in full).

    Validation (all at construction, raising
    :class:`~repro.errors.ConfigError`):

    * every event's window must satisfy ``0 <= start <= end`` with
      finite bounds, and ``end <= horizon`` when a horizon is set;
    * windows on the same link — or the same job — must not overlap
      (events on *different* targets may overlap freely);
    * :class:`RateChange`/:class:`Straggler` factors must be > 0 and
      :class:`LatencySpike` extras >= 0.
    """

    events: Tuple[FaultEventT, ...] = ()
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.horizon is not None and (
            not math.isfinite(self.horizon) or self.horizon <= 0
        ):
            raise ConfigError("schedule horizon must be finite and > 0")
        kept: List[FaultEventT] = []
        for event in self.events:
            if not isinstance(event, LINK_EVENT_TYPES + JOB_EVENT_TYPES):
                raise ConfigError(
                    f"not a fault event: {event!r}"
                )
            event.validate(self.horizon)
            if event.end == event.start:
                continue  # zero-duration windows are no-ops by contract
            kept.append(event)
        by_link: Dict[str, List[FaultEventT]] = {}
        by_job: Dict[str, List[FaultEventT]] = {}
        for event in kept:
            if isinstance(event, LINK_EVENT_TYPES):
                by_link.setdefault(event.link, []).append(event)
            else:
                by_job.setdefault(event.job, []).append(event)
        for link in sorted(by_link):
            _check_disjoint(by_link[link], link)
        for job in sorted(by_job):
            _check_disjoint(by_job[job], job)
        object.__setattr__(self, "events", tuple(kept))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the schedule perturbs nothing."""
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def link_names(self) -> List[str]:
        """Sorted names of all links addressed by the schedule."""
        return sorted({
            event.link
            for event in self.events
            if isinstance(event, LINK_EVENT_TYPES)
        })

    def job_names(self) -> List[str]:
        """Sorted names of all jobs addressed by the schedule."""
        return sorted({
            event.job
            for event in self.events
            if isinstance(event, JOB_EVENT_TYPES)
        })

    def capacity_events(
        self, link: Optional[str] = None
    ) -> List[FaultEventT]:
        """Capacity-affecting link events, optionally for one link,
        ordered by start time."""
        picked = [
            event
            for event in self.events
            if isinstance(event, CAPACITY_EVENT_TYPES)
            and (link is None or event.link == link)
        ]
        return sorted(picked, key=lambda ev: ev.start)

    def latency_events(
        self, link: Optional[str] = None
    ) -> List[LatencySpike]:
        """Latency spikes, optionally for one link, by start time."""
        picked = [
            event
            for event in self.events
            if isinstance(event, LatencySpike)
            and (link is None or event.link == link)
        ]
        return sorted(picked, key=lambda ev: ev.start)

    def job_events(self, job: str) -> List[FaultEventT]:
        """Job-targeted events for ``job``, ordered by start time."""
        picked = [
            event
            for event in self.events
            if isinstance(event, JOB_EVENT_TYPES) and event.job == job
        ]
        return sorted(picked, key=lambda ev: ev.start)
