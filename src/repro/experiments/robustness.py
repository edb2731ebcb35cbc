"""Robustness: how much perturbation does the sliding effect survive?

The paper's headline mechanism — engineered unfairness sliding
*compatible* jobs apart until their communication phases interleave —
assumes a quiet network. This experiment stresses that assumption with
the fault-injection runtime: a bottleneck capacity dip of configurable
magnitude and duration hits both the fair and the unfair run of the
same placement, and the sliding effect is re-measured inside the
perturbed window.

Two placements anchor the comparison:

* **compatible** — the Table 1 group 2 DLRM pair, the paper's cleanest
  sliding win (~1.3x speedup);
* **incompatible** — the Table 1 group 1 BERT/VGG19 pair, where sliding
  never pays off.

Shrinking the bottleneck inflates every job's communication fraction,
so a deep enough dip pushes even a compatible pair past the
compatibility boundary (total communication demand exceeding the
period). Below that boundary the slide *survives* — the fair/unfair
speedup actually grows with the dip, because interleaving is worth more
when bandwidth is scarce. Past it the slide has nothing left to
separate and the speedup collapses. The monotone signature of that
collapse is the **slide efficiency**: the analytically ideal slid
iteration time at the dipped capacity over the measured unfair
iteration time. It sits near 1.0 while the slide holds and decays once
the placement is perturbed into incompatibility; the *collapse level*
reported at the end is the smallest dip whose efficiency falls below
:data:`COLLAPSE_EFFICIENCY`.

Every run flows through :func:`repro.runner.run_many` as a
:class:`~repro.runner.spec.RunSpec` with an attached
:class:`~repro.faults.InjectionSchedule`, so sweeps fan out across
worker processes and land in the result cache like any other
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry import current
from ..analysis.report import ascii_table
from ..cc.fair import FairSharing
from ..cc.weighted import StaticWeighted
from ..core.timeline import JobTimeline
from ..errors import SimulationError
from ..faults.events import InjectionSchedule, RateChange
from ..runner import run_many
from ..workloads.profiles import EFFECTIVE_BOTTLENECK, table1_groups
from .common import BOTTLENECK, phase_spec

#: When the capacity dip opens, seconds — past the staggered starts so
#: the slide is underway when the perturbation lands.
DIP_START = 2.0

#: Slide-efficiency floor defining "collapse": below this fraction of
#: the ideal slid iteration time, the sliding effect is considered gone.
COLLAPSE_EFFICIENCY = 0.9


def placements() -> Dict[str, Tuple]:
    """The two placements under test, as ``name -> job specs``."""
    groups = {group.name: group for group in table1_groups()}
    return {
        "compatible": tuple(groups["group2"].specs),
        "incompatible": tuple(groups["group1"].specs),
    }


def dip_schedule(
    magnitude: float,
    duration: float,
    start: float = DIP_START,
    horizon: Optional[float] = None,
) -> InjectionSchedule:
    """A single bottleneck capacity dip of ``magnitude`` in [0, 1).

    ``magnitude`` is the fraction of capacity removed: 0 yields an empty
    schedule (the documented no-op, bit-identical to no schedule at
    all), 0.6 leaves 40% of the bottleneck for ``duration`` seconds.
    """
    if magnitude <= 0.0:
        return InjectionSchedule(events=(), horizon=horizon)
    return InjectionSchedule(
        events=(
            RateChange(
                BOTTLENECK, start, start + duration, 1.0 - magnitude
            ),
        ),
        horizon=horizon,
    )


def window_mean(timeline: JobTimeline, start: float, end: float) -> float:
    """Mean duration of iterations fully inside ``[start, end]``, s.

    Raises :class:`~repro.errors.SimulationError` when no iteration
    fits, mirroring the canonical empty-timeline error.
    """
    durations = [
        sample.duration
        for sample in timeline.samples
        if sample.start >= start and sample.end <= end
    ]
    if not durations:
        raise SimulationError(
            f"job {timeline.job_id} has no iterations inside "
            f"[{start:g}, {end:g}]"
        )
    return sum(durations) / len(durations)


@dataclass(frozen=True)
class RobustnessPoint:
    """One grid point: a placement under one perturbation level.

    Attributes:
        speedup: Fair over unfair mean iteration time, measured inside
            the perturbed window only.
        efficiency: Ideal slid iteration time at the dipped capacity
            over the measured unfair iteration time, averaged across
            the placement's jobs. ~1.0 while the slide holds.
    """

    placement: str
    magnitude: float
    duration: float
    speedup: float
    efficiency: float


@dataclass
class RobustnessResult:
    """The full sweep, grouped for reporting."""

    points: List[RobustnessPoint]

    def curve(
        self, placement: str, duration: float
    ) -> List[RobustnessPoint]:
        """One placement's collapse curve at one dip duration."""
        return sorted(
            (
                point
                for point in self.points
                if point.placement == placement
                and point.duration == duration
            ),
            key=lambda point: point.magnitude,
        )

    def collapse_level(
        self, placement: str, duration: float
    ) -> Optional[float]:
        """Smallest dip whose slide efficiency falls below the floor."""
        for point in self.curve(placement, duration):
            if point.efficiency < COLLAPSE_EFFICIENCY:
                return point.magnitude
        return None

    def report(self) -> str:
        """The sweep as a table plus the collapse verdicts."""
        rows = [
            (
                point.placement,
                f"{point.magnitude:.1f}",
                f"{point.duration:g}s",
                f"{point.speedup:.3f}x",
                f"{point.efficiency:.2f}",
            )
            for point in sorted(
                self.points,
                key=lambda p: (p.placement, p.duration, p.magnitude),
            )
        ]
        table = ascii_table(
            ["placement", "dip", "duration", "speedup", "efficiency"],
            rows,
            title=(
                "Robustness: the sliding effect vs bottleneck "
                "perturbation (in-window measurements)"
            ),
        )
        verdicts = []
        for duration in sorted({point.duration for point in self.points}):
            level = self.collapse_level("compatible", duration)
            verdicts.append(
                f"compatible slide collapses at dip "
                f"{level:.1f} ({duration:g}s window)"
                if level is not None
                else (
                    f"compatible slide survives every tested dip "
                    f"({duration:g}s window)"
                )
            )
        return table + "\n" + "\n".join(verdicts)


def run(
    magnitudes: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8),
    durations: Sequence[float] = (8.0, 24.0),
    n_iterations: Optional[int] = None,
    seed: int = 0,
    weight_ratio: float = 2.0,
) -> RobustnessResult:
    """Sweep the perturbation grid over both placements.

    ``n_iterations`` defaults to an auto-scaled per-placement count:
    enough iterations that every job is still running past the longest
    perturbation window (iterations are never shorter than solo time,
    so ``window_end / solo_time`` iterations always cover it).

    Every (placement, magnitude, duration, policy) cell is one cacheable
    spec; all cells go through a single :func:`run_many` call.
    """
    window_end = DIP_START + max(durations)
    grid = []
    specs = []
    for name, jobs in sorted(placements().items()):
        if n_iterations is None:
            iterations = 2 + max(
                int(window_end / job.solo_iteration_time(
                    EFFECTIVE_BOTTLENECK
                )) + 1
                for job in jobs
            )
        else:
            iterations = n_iterations
        job_ids = [job.job_id for job in jobs]
        policies = {
            "fair": FairSharing(),
            "unfair": StaticWeighted.from_aggressiveness_order(
                job_ids, weight_ratio
            ),
        }
        offsets = {
            job_id: index * 0.005 for index, job_id in enumerate(job_ids)
        }
        for duration in durations:
            for magnitude in magnitudes:
                faults = dip_schedule(magnitude, duration)
                for scenario, policy in sorted(policies.items()):
                    spec = phase_spec(
                        jobs,
                        policy,
                        iterations,
                        start_offsets=offsets,
                        seed=seed,
                        label=(
                            f"robustness-{name}-{scenario}"
                            f"-m{magnitude:g}-d{duration:g}"
                        ),
                    ).replace(faults=faults)
                    grid.append((name, magnitude, duration, scenario))
                    specs.append(spec)
    results = dict(zip(grid, run_many(specs)))

    points: List[RobustnessPoint] = []
    for name, jobs in sorted(placements().items()):
        for duration in durations:
            window = (DIP_START, DIP_START + duration)
            for magnitude in magnitudes:
                fair = results[(name, magnitude, duration, "fair")]
                unfair = results[(name, magnitude, duration, "unfair")]
                ratios = []
                efficiencies = []
                for job in jobs:
                    fair_s = window_mean(
                        fair.timelines()[job.job_id], *window
                    )
                    unfair_s = window_mean(
                        unfair.timelines()[job.job_id], *window
                    )
                    ratios.append(fair_s / unfair_s)
                    ideal_s = job.solo_iteration_time(
                        EFFECTIVE_BOTTLENECK * (1.0 - magnitude)
                    )
                    efficiencies.append(ideal_s / unfair_s)
                points.append(RobustnessPoint(
                    placement=name,
                    magnitude=magnitude,
                    duration=duration,
                    speedup=sum(ratios) / len(ratios),
                    efficiency=(
                        sum(efficiencies) / len(efficiencies)
                    ),
                ))
    return RobustnessResult(points=points)


def main() -> None:
    """Print the perturbation-robustness sweep."""
    with current().span("experiment.robustness"):
        print(run().report())


if __name__ == "__main__":
    main()
