"""Compatibility-aware cluster scheduling (§4-§5).

The paper argues job placement "should be related not only to available
resources on servers but also to compatibility on links". This package
provides:

* :mod:`repro.scheduler.cluster` — cluster state: topology, per-host GPU
  slots, placed jobs and the job->links mapping via routing.
* :mod:`repro.scheduler.placement` — placement policies: random,
  consolidated (locality-first, Themis-style) and compatibility-aware.
* :mod:`repro.scheduler.simulation` — runs the placed cluster in the
  phase-level simulator and reports per-job slowdown versus solo.
* :mod:`repro.scheduler.service` — the online cluster service: an
  event-driven scheduler over arrivals, departures and queued retries,
  backed by the incremental compatibility engine.
"""

from .cluster import ClusterState, PlacedJob
from .placement import (
    PlacementPolicy,
    RandomPlacement,
    ConsolidatedPlacement,
    CompatibilityAwarePlacement,
)
from .simulation import ClusterSimulation, ClusterReport
from ..workloads.traces import JobArrival
from .service import AdmissionRecord, ClusterService, ServiceStats

__all__ = [
    "ClusterState",
    "PlacedJob",
    "PlacementPolicy",
    "RandomPlacement",
    "ConsolidatedPlacement",
    "CompatibilityAwarePlacement",
    "ClusterSimulation",
    "ClusterReport",
    "JobArrival",
    "AdmissionRecord",
    "ClusterService",
    "ServiceStats",
]
