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
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import GeometryError
from .arcs import ArcSet
from .circle import JobCircle


#: A circle keeps the overlap of at most this many relative states (about
#: 15 MB): an annealing run asks at most 16,005 times, an exhaustive grid
#: up to 2,000,000. Past it a new state is scored but not kept.
MAX_KEPT_STATES = 100_000


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
        self._periods = tuple(
            (circle.job_id, circle.perimeter) for circle in self.circles
        )
        self._gcd = math.gcd(*(period for _, period in self._periods))
        self._overlaps: Dict[Tuple[int, ...], int] = {}  # per state
        # Each job's (start, length) arcs tiled at rotation 0.
        self._tiles: Optional[List[List[Tuple[int, int]]]] = None

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
        communicate — the quantity the optimization drives to zero.

        The one exact scorer every solver uses. Rotating every job by
        the same amount rotates the whole circle, and a job's tiling
        repeats every own period, so the overlap depends only on the
        *relative state*: each job's rotation minus the first job's,
        modulo its own period (a missing job rotates by 0); a pair's,
        only on the shift modulo the gcd of its periods. A state is
        scored once and kept (up to :data:`MAX_KEPT_STATES`): a pair
        on its gcd circle (:meth:`_pair_overlap`), other job counts by
        one sweep of their tiled arcs (:meth:`_sweep`).
        """
        rotations = rotations or {}
        anchor = rotations.get(self._periods[0][0], 0)
        state = tuple(
            (rotations.get(job_id, 0) - anchor) % period
            for job_id, period in self._periods
        )
        if len(state) == 2:
            state = (0, state[1] % self._gcd)
        overlap = self._overlaps.get(state)
        if overlap is None:
            if len(self.circles) == 2:
                overlap = self._pair_overlap(state[1])
            else:
                overlap = self._sweep(state)
            if len(self._overlaps) < MAX_KEPT_STATES:
                self._overlaps[state] = overlap
        return overlap

    def _pair_overlap(self, shift: int) -> int:
        """Overlap of two jobs, the second rotated ``shift`` against
        the first. By the Chinese remainder theorem the ticks of the LCM
        circle are the pairs of own-circle ticks that agree modulo
        ``g = gcd(P_a, P_b)``, so the overlap sums, over the ``g``
        circle, the product of the jobs' arcs folded onto it. An arc of
        length ``q*g + m`` folds to ``q`` on every tick plus one arc of
        length ``m``; a pair of arcs adds ``g*q_a*q_b + q_a*m_b +
        q_b*m_a`` plus the overlap of their short arcs on the ``g``
        circle."""
        g = self._gcd
        # Each arc as (q, m, start mod g).
        first, second = (
            [
                (*divmod(end - start, g), start % g)
                for start, end in circle.comm.intervals
            ]
            for circle in self.circles
        )
        total = 0
        for laps_a, length_a, start_a in first:
            for laps_b, length_b, start_b in second:
                offset = (start_b + shift - start_a) % g
                total += (
                    g * laps_a * laps_b
                    + laps_a * length_b
                    + laps_b * length_a
                    + max(0, min(length_a - offset, length_b))
                    + max(0, min(length_a, offset + length_b - g))
                )
        return total

    def _sweep(self, shifts: Sequence[int]) -> int:
        """Overlap with each job rotated by its entry of ``shifts``: a
        rotated tiling is the tiling rotated, so the jobs are tiled once,
        at rotation 0, and each sweep shifts those arcs, counts the ones
        that wrap as covering 0, and walks the sorted endpoints."""
        perimeter = self.perimeter
        if self._tiles is None:
            self._tiles = [
                [(start, end - start) for start, end in arcs.intervals]
                for arcs in self.tiled().values()
            ]
        count = 0
        # An endpoint is ``position << 1``, plus 1 when an arc starts.
        events: List[int] = []
        for arcs, shift in zip(self._tiles, shifts):
            for start, length in arcs:
                start = (start + shift) % perimeter
                end = start + length
                if end > perimeter:
                    count += 1
                    end -= perimeter
                events += (start << 1 | 1, end << 1)
        events.sort()
        total = 0
        previous = 0
        for event in events:
            position = event >> 1
            if count > 1:
                total += position - previous
            previous = position
            count += 1 if event & 1 else -1
        if count > 1:
            total += perimeter - previous
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

