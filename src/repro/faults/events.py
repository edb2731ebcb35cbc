"""Validated time-bounded link events.

The fault model follows the AsyncFlow edge-event design: every
perturbation is a *window* ``[start, end)`` on one named link, with
explicit start/end markers, and the whole :class:`InjectionSchedule` is
validated once at build time — malformed fields, inverted bounds,
overlapping windows on the same link and events outside the horizon are
rejected before any simulator sees them. Runtime code can therefore
assume a well-formed schedule and never branch on malformed input inside
the hot loops.

Every event changes what a link can carry: :class:`RateChange`
(capacity scaled by a factor), :class:`LinkFailure` (the link carries
nothing) and :class:`PfcStorm` (a pause storm: upstream senders are
throttled while the queue drains).

All event classes are frozen dataclasses, so a schedule is hashable
enough to embed in a :class:`repro.runner.RunSpec` and picklable for the
``run_many`` worker fan-out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ConfigError


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


#: The fault events, every one aimed at a named link.
EVENT_TYPES = (RateChange, LinkFailure, PfcStorm)

FaultEventT = Union[RateChange, LinkFailure, PfcStorm]

#: Codec registry: wire-format tag -> event class (see repro.io).
EVENT_KINDS: Dict[str, type] = {cls.kind: cls for cls in EVENT_TYPES}


def _finite(owner: str, name: str, value: Any) -> float:
    """``value`` of field ``name`` if it is a finite ``int`` or
    ``float`` (not a ``bool``); else :class:`ConfigError` naming
    ``owner`` and the field."""
    if not (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    ):
        raise ConfigError(
            f"{owner}: field {name!r} must be a finite number, "
            f"got {value!r}"
        )
    return value


def _check_event(event: FaultEventT, horizon: Optional[float]) -> None:
    """Refuse a malformed event, naming it and the offending field."""
    owner = repr(event)
    if not (isinstance(event.link, str) and event.link):
        raise ConfigError(
            f"{owner}: field 'link' must be a non-empty string, "
            f"got {event.link!r}"
        )
    start = _finite(owner, "start", event.start)
    end = _finite(owner, "end", event.end)
    if start < 0:
        raise ConfigError(f"{owner}: field 'start' must be >= 0")
    if end < start:
        raise ConfigError(f"{owner}: field 'end' must be >= start")
    if horizon is not None and end > horizon:
        raise ConfigError(
            f"{owner}: field 'end' is past the schedule horizon {horizon}"
        )
    if isinstance(event, RateChange):
        if _finite(owner, "factor", event.factor) <= 0:
            raise ConfigError(f"{owner}: field 'factor' must be > 0")


@dataclass(frozen=True)
class InjectionSchedule:
    """A validated, immutable set of link events.

    Args:
        events: The fault events. Zero-duration events (``end == start``)
            are documented no-ops and dropped at build time.
        horizon: Optional simulation horizon in seconds; events ending
            past it are rejected (they could never fire in full).

    Validation (all at construction, raising
    :class:`~repro.errors.ConfigError` that names the event and the
    field):

    * every event's ``link`` is a non-empty string;
    * ``start``, ``end``, ``factor`` and ``horizon`` are finite ``int``
      or ``float`` values (a ``bool`` is refused);
    * ``0 <= start <= end``, ``end <= horizon`` when a horizon is set,
      a :class:`RateChange` factor ``> 0`` and a horizon ``> 0``;
    * windows on the same link must not overlap (events on *different*
      links may overlap freely).
    """

    events: Tuple[FaultEventT, ...] = ()
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        owner = "injection schedule"
        if self.horizon is not None and _finite(
            owner, "horizon", self.horizon
        ) <= 0:
            raise ConfigError(f"{owner}: field 'horizon' must be > 0")
        kept: List[FaultEventT] = []
        for event in self.events:
            if not isinstance(event, EVENT_TYPES):
                raise ConfigError(f"not a fault event: {event!r}")
            _check_event(event, self.horizon)
            if event.end == event.start:
                continue  # zero-duration windows are no-ops by contract
            kept.append(event)
        by_link: Dict[str, List[FaultEventT]] = {}
        for event in kept:
            by_link.setdefault(event.link, []).append(event)
        for link in sorted(by_link):
            ordered = sorted(by_link[link], key=lambda ev: (ev.start, ev.end))
            for left, right in zip(ordered, ordered[1:]):
                if right.start < left.end:
                    raise ConfigError(
                        f"overlapping fault windows on {link!r}: "
                        f"{left!r} and {right!r}"
                    )
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
        return sorted({event.link for event in self.events})

    def capacity_events(
        self, link: Optional[str] = None
    ) -> List[FaultEventT]:
        """The events, optionally for one link, ordered by start time."""
        picked = [
            event
            for event in self.events
            if link is None or event.link == link
        ]
        return sorted(picked, key=lambda ev: ev.start)
