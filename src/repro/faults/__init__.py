"""Deterministic fault & perturbation injection (see docs/FAULTS.md).

Build an :class:`InjectionSchedule` from validated time-bounded events
and attach it to a :class:`repro.runner.RunSpec` (``faults=...``) — every
fidelity tier honors it, and an empty schedule is bit-identical to no
schedule at all.
"""

from .events import (
    CAPACITY_EVENT_TYPES,
    EVENT_KINDS,
    JOB_EVENT_TYPES,
    LINK_EVENT_TYPES,
    ClockSkew,
    InjectionSchedule,
    LatencySpike,
    LinkFailure,
    PfcStorm,
    RateChange,
    Straggler,
)
from .runtime import (
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    FabricWindow,
    JobWarp,
    build_warp,
    emit_fault_events,
    link_capacity_windows,
    quantize_tick,
    single_link,
)

__all__ = [
    "CAPACITY_EVENT_TYPES",
    "EVENT_KINDS",
    "JOB_EVENT_TYPES",
    "LINK_EVENT_TYPES",
    "ClockSkew",
    "InjectionSchedule",
    "LatencySpike",
    "LinkFailure",
    "PfcStorm",
    "RateChange",
    "Straggler",
    "MODE_FREEZE",
    "MODE_NORMAL",
    "MODE_STORM",
    "FabricWindow",
    "JobWarp",
    "build_warp",
    "emit_fault_events",
    "link_capacity_windows",
    "quantize_tick",
    "single_link",
]
