"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Each subsystem raises its own subclass, which keeps error
handling in experiments and schedulers explicit about what failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a user-supplied configuration value is invalid."""


class SimulationError(ReproError):
    """Raised when the discrete-event engine reaches an inconsistent state."""


class TopologyError(ReproError):
    """Raised for malformed network topologies (unknown node, bad link...)."""


class RoutingError(ReproError):
    """Raised when no route exists between two endpoints."""


class AllocationError(ReproError):
    """Raised when a bandwidth allocation violates link capacities."""


class WorkloadError(ReproError):
    """Raised for invalid workload or job specifications."""


class GeometryError(ReproError):
    """Raised for invalid geometric-abstraction inputs (arcs, circles)."""


class CompatibilityError(ReproError):
    """Raised when a compatibility query cannot be answered."""


class PlacementError(ReproError):
    """Raised when the scheduler cannot place a job on the cluster."""
