"""The per-job circle (Figure 3).

A :class:`JobCircle` rolls one job's iteration around a circle: the
perimeter is the iteration time in ticks, the communication phase is the
colored arc, and the compute phase is the uncolored remainder. Because the
on-off pattern of DNN training is periodic, every iteration's phases land
on the same arcs — which is exactly why the abstraction works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

from ..errors import GeometryError
from ..units import TICKS_PER_SECOND, seconds_to_ticks
from .arcs import ArcSet

if TYPE_CHECKING:  # annotation-only; `core` must not load `workloads`
    from ..workloads.job import JobSpec

#: Default quantization for circles built from wall-clock profiles: one
#: tick per microsecond keeps LCMs exact while staying far below the
#: measurement noise of real profiling.
DEFAULT_TICKS_PER_SECOND = TICKS_PER_SECOND


@dataclass(frozen=True)
class JobCircle:
    """One job rolled around its iteration circle.

    Attributes:
        job_id: The job this circle describes.
        comm: Arc set of the communication phase(s).
        demand: Fraction of the link the job needs while communicating, in
            (0, 1]. The paper's formulation uses 1 (a communicating job
            wants the whole link); fractional demands generalize the
            abstraction to bandwidth-limited jobs.
    """

    job_id: str
    comm: ArcSet
    demand: float = 1.0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise GeometryError("job_id must be non-empty")
        if not 0.0 < self.demand <= 1.0:
            raise GeometryError(f"demand must be in (0, 1], got {self.demand}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_phases(
        cls,
        job_id: str,
        compute_ticks: int,
        comm_ticks: int,
        demand: float = 1.0,
    ) -> "JobCircle":
        """Build the canonical one-arc circle: compute ``[0, C)``, then
        communication ``[C, C+M)``; perimeter ``C + M``."""
        if compute_ticks < 0:
            raise GeometryError("compute_ticks must be >= 0")
        if comm_ticks <= 0:
            raise GeometryError("comm_ticks must be > 0")
        perimeter = compute_ticks + comm_ticks
        return cls(
            job_id=job_id,
            comm=ArcSet(perimeter, [(compute_ticks, comm_ticks)]),
            demand=demand,
        )

    @classmethod
    def from_arcs(
        cls,
        job_id: str,
        perimeter: int,
        comm_arcs: Iterable[Tuple[int, int]],
        demand: float = 1.0,
    ) -> "JobCircle":
        """Build a circle from any communication arcs on a
        ``perimeter``-tick circle: general geometry beside the one-burst
        circle :meth:`from_phases` builds. :func:`repro.io.circle_from_dict`
        rebuilds every circle through it."""
        comm = ArcSet(perimeter, comm_arcs)
        if comm.is_empty:
            raise GeometryError(f"{job_id}: needs at least one comm arc")
        return cls(job_id=job_id, comm=comm, demand=demand)

    @classmethod
    def from_job(
        cls,
        spec: JobSpec,
        capacity: float,
        ticks_per_second: int = DEFAULT_TICKS_PER_SECOND,
    ) -> "JobCircle":
        """Quantize a :class:`JobSpec` profiled at ``capacity``.

        The communication arc length is the solo communication time — the
        duration the phase takes with the whole link, matching the paper's
        profiling of jobs "in isolation in a dedicated cluster". The
        circle has full demand; build a fractional one with
        :meth:`from_phases`.
        """
        if ticks_per_second <= 0:
            raise GeometryError("ticks_per_second must be > 0")
        scale = ticks_per_second / TICKS_PER_SECOND

        def to_ticks(time_s: float) -> int:
            return round(seconds_to_ticks(time_s) * scale)

        compute_ticks = to_ticks(spec.compute_time)
        comm_ticks = to_ticks(spec.solo_comm_time(capacity))
        if comm_ticks == 0:
            raise GeometryError(
                f"{spec.job_id}: communication phase vanishes at this "
                f"quantization; increase ticks_per_second"
            )
        return cls.from_phases(spec.job_id, compute_ticks, comm_ticks)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def perimeter(self) -> int:
        """Iteration time in ticks."""
        return self.comm.perimeter

    @property
    def comm_ticks(self) -> int:
        """Total communication length per iteration, ticks."""
        return self.comm.measure

    @property
    def comm_fraction(self) -> float:
        """Fraction of the iteration spent communicating."""
        return self.comm_ticks / self.perimeter

    def rotate(self, delta: int) -> "JobCircle":
        """The same job with its phases slid by ``delta`` ticks."""
        return JobCircle(
            job_id=self.job_id,
            comm=self.comm.rotate(delta),
            demand=self.demand,
        )

    def tiled_comm(self, unified_perimeter: int) -> ArcSet:
        """This job's communication arcs on the unified circle."""
        return self.comm.tile(unified_perimeter)
