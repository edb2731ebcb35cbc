"""The compatibility checker facade.

Answers the paper's central question: *"Is there a way to slide the
communication pattern of the jobs such that their communication phases have
almost no overlap with each other?"* (§3). Jobs are **fully compatible**
when such rotations exist; the checker returns the rotations as the
certificate, plus diagnostics (unified perimeter, utilization bound, the
residual overlap when incompatible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

from ..errors import CompatibilityError
from ..units import gbps
from .circle import JobCircle
from .optimize import SolverOutcome, solve
from .unified import UnifiedCircle

if TYPE_CHECKING:  # annotation-only; `core` must not load `workloads`
    from ..workloads.job import JobSpec


@dataclass(frozen=True)
class CompatibilityResult:
    """Verdict for one set of jobs sharing a link.

    Attributes:
        compatible: Whether zero-overlap rotations were found.
        rotations: Per-job rotation in ticks (the certificate when
            compatible; the best-effort assignment otherwise).
        overlap_ticks: Residual overlap of ``rotations``.
        unified_perimeter: LCM of the iteration times, ticks.
        utilization: Total communication demand over the unified period
            (> 1 makes incompatibility trivial).
        certified: Whether the verdict is proven (found rotations, an
            infeasibility proof, or an exhausted complete search) rather
            than a heuristic miss.
        method: The solver that settled the question.
        job_ids: Jobs in the order they were given.
    """

    compatible: bool
    rotations: Dict[str, int]
    overlap_ticks: int
    unified_perimeter: int
    utilization: float
    certified: bool
    method: str
    job_ids: List[str] = field(default_factory=list)

    @property
    def overlap_fraction(self) -> float:
        """Residual overlap as a fraction of the unified perimeter."""
        return self.overlap_ticks / self.unified_perimeter


class CompatibilityChecker:
    """Builds circles from job specs and runs the rotation solvers."""

    def __init__(
        self,
        capacity: float = gbps(42),
        ticks_per_second: int = 1000,
    ) -> None:
        """Create a checker.

        Args:
            capacity: Link bandwidth used to convert communication bytes to
                arc lengths (the solo profiling bandwidth).
            ticks_per_second: Geometry quantization. The default (1 tick =
                1 ms) matches profiling granularity and keeps LCMs small;
                raise it for sub-millisecond profiles.
        """
        if ticks_per_second <= 0:
            raise CompatibilityError("ticks_per_second must be > 0")
        self.capacity = capacity
        self.ticks_per_second = ticks_per_second

    # ------------------------------------------------------------------
    # Circle construction
    # ------------------------------------------------------------------

    def circle(self, spec: JobSpec) -> JobCircle:
        """Quantize one job spec onto its circle."""
        return JobCircle.from_job(
            spec, self.capacity, ticks_per_second=self.ticks_per_second
        )

    def circles(self, specs: Sequence[JobSpec]) -> List[JobCircle]:
        """Quantize many specs."""
        return [self.circle(spec) for spec in specs]

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------

    def check(
        self, specs: Sequence[JobSpec], seed: int = 0
    ) -> CompatibilityResult:
        """Decide whether ``specs`` are fully compatible on one link."""
        if not specs:
            raise CompatibilityError("no jobs given")
        return self.check_circles(self.circles(specs), seed=seed)

    def check_circles(
        self, circles: Sequence[JobCircle], seed: int = 0
    ) -> CompatibilityResult:
        """Decide compatibility for pre-built circles."""
        unified = UnifiedCircle(circles)
        outcome: SolverOutcome = solve(circles, seed=seed)
        return CompatibilityResult(
            compatible=outcome.found,
            rotations=dict(outcome.rotations),
            overlap_ticks=0 if outcome.found else outcome.overlap,
            unified_perimeter=unified.perimeter,
            utilization=unified.utilization_lower_bound(),
            certified=outcome.found or outcome.complete,
            method=outcome.method,
            job_ids=[circle.job_id for circle in circles],
        )
