"""Deterministic link-fault injection (see docs/FAULTS.md).

Build an :class:`InjectionSchedule` from validated time-bounded link
events — :class:`RateChange`, :class:`LinkFailure` and
:class:`PfcStorm` — and attach it to a :class:`repro.runner.RunSpec`
(``faults=...``). The fixed-step fluid tiers apply it as capacity
windows and the event-driven tiers as capacity changes on their clock;
an empty schedule is bit-identical to no schedule at all.
"""

from .events import (
    EVENT_KINDS,
    EVENT_TYPES,
    InjectionSchedule,
    LinkFailure,
    PfcStorm,
    RateChange,
)
from .runtime import (
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    FabricWindow,
    emit_fault_events,
    link_capacity_windows,
    quantize_tick,
    single_link,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_TYPES",
    "InjectionSchedule",
    "LinkFailure",
    "PfcStorm",
    "RateChange",
    "MODE_FREEZE",
    "MODE_NORMAL",
    "MODE_STORM",
    "FabricWindow",
    "emit_fault_events",
    "link_capacity_windows",
    "quantize_tick",
    "single_link",
]
