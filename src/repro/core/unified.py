"""The unified circle (Figure 5).

Jobs with different iteration times cannot be overlaid directly; the paper
places each on a circle whose perimeter is the **least common multiple** of
all iteration times, tiling each job's pattern once per its own period.
Rotating a job on the unified circle rotates every tile together — a job's
rotation is therefore only meaningful modulo its *own* perimeter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from ..errors import GeometryError
from .arcs import ArcSet
from .circle import JobCircle


def unified_perimeter(circles: Sequence[JobCircle]) -> int:
    """LCM of the jobs' iteration times, in ticks."""
    if not circles:
        raise GeometryError("unified_perimeter of an empty collection")
    return math.lcm(*(circle.perimeter for circle in circles))


@dataclass
class UnifiedCircle:
    """All jobs tiled onto one LCM circle, with per-job rotations."""

    circles: Tuple[JobCircle, ...]
    perimeter: int = field(init=False)

    def __init__(self, circles: Sequence[JobCircle]) -> None:
        ids = [circle.job_id for circle in circles]
        if len(set(ids)) != len(ids):
            raise GeometryError(f"duplicate job ids: {ids}")
        self.circles = tuple(circles)
        self.perimeter = unified_perimeter(self.circles)

    def __len__(self) -> int:
        return len(self.circles)

    @property
    def job_ids(self) -> List[str]:
        """Job ids in registration order."""
        return [circle.job_id for circle in self.circles]

    def tiled(
        self, rotations: Mapping[str, int] | None = None
    ) -> Dict[str, ArcSet]:
        """Each job's communication arcs on the unified circle.

        Args:
            rotations: Optional per-job rotation in ticks (missing jobs
                rotate by 0). Rotations are applied on the job's *own*
                circle before tiling, so they are periodic in the job's
                perimeter — matching the sliding effect, which shifts every
                iteration of a job equally.
        """
        rotations = rotations or {}
        tiled: Dict[str, ArcSet] = {}
        for circle in self.circles:
            delta = rotations.get(circle.job_id, 0)
            tiled[circle.job_id] = circle.rotate(delta).tiled_comm(
                self.perimeter
            )
        return tiled

    def coverage(
        self, rotations: Mapping[str, int] | None = None
    ) -> List[Tuple[int, int, int]]:
        """Coverage segments ``(start, end, n_jobs_communicating)``."""
        return ArcSet.coverage(list(self.tiled(rotations).values()))

    def overlap_ticks(
        self, rotations: Mapping[str, int] | None = None
    ) -> int:
        """Ticks of the unified circle where two or more jobs
        communicate — the quantity the optimization drives to zero."""
        total = 0
        for start, end, count in self.coverage(rotations):
            if count > 1:
                total += end - start
        return total

    def demand_coverage(
        self, rotations: Mapping[str, int] | None = None
    ) -> List[Tuple[int, int, float]]:
        """Segments ``(start, end, total demand)`` summing each job's
        fractional link demand (the §5 GPU-multi-tenancy generalization:
        bandwidth-limited jobs may overlap as long as demands fit)."""
        tiled = self.tiled(rotations)
        events: List[Tuple[int, float]] = []
        for circle in self.circles:
            demand = circle.demand
            for start, end in tiled[circle.job_id].intervals:
                events.append((start, demand))
                events.append((end, -demand))
        events.sort()
        segments: List[Tuple[int, int, float]] = []
        level = 0.0
        cursor = 0
        index = 0
        while index < len(events):
            position = events[index][0]
            if position > cursor:
                segments.append((cursor, position, level))
                cursor = position
            while index < len(events) and events[index][0] == position:
                level += events[index][1]
                index += 1
        if cursor < self.perimeter:
            segments.append((cursor, self.perimeter, level))
        return segments

    def fractional_overlap_ticks(
        self,
        rotations: Mapping[str, int] | None = None,
        capacity: float = 1.0,
    ) -> int:
        """Ticks where total fractional demand exceeds ``capacity``."""
        if capacity <= 0:
            raise GeometryError(f"capacity must be > 0, got {capacity}")
        tolerance = 1e-9
        return sum(
            end - start
            for start, end, level in self.demand_coverage(rotations)
            if level > capacity + tolerance
        )

    def total_comm_ticks(self) -> int:
        """Sum of all jobs' communication ticks on the unified circle."""
        return sum(
            circle.comm_ticks * (self.perimeter // circle.perimeter)
            for circle in self.circles
        )

    def overlap_lower_bound(self) -> int:
        """Fewest overlap ticks any rotations can reach, from utilization.

        A tick covered by ``c >= 2`` jobs holds ``c - 1 <= jobs - 1``
        ticks of the excess ``total_comm - P``, so at least
        ``ceil(excess / (jobs - 1))`` ticks overlap. 0 when the jobs fit,
        which one job always does.
        """
        excess = self.total_comm_ticks() - self.perimeter
        if excess <= 0:
            return 0
        return -(-excess // (len(self.circles) - 1))

    def utilization_lower_bound(self) -> float:
        """Total demanded comm time over the unified period, as a fraction.

        If this exceeds 1, the jobs cannot be fully compatible on a
        unit-capacity link: there is simply more communication than time —
        a cheap necessary condition every solver checks first.
        """
        return self.total_comm_ticks() / self.perimeter
