"""Figure 2: the sliding effect, iteration by iteration.

Runs the two VGG19 jobs from the same start under fair and 2:1-unfair
sharing and extracts what the paper's Figure 2 shows:

* per-link utilization over the first iterations (fair: both jobs pinned
  at ~50% forever; unfair: the overlap region shrinks every iteration
  until the communication phases interleave);
* the time anchors the paper quotes — J1 finishing its first iteration at
  ~0.28 s vs J2 at ~0.32 s, and their second communication phases starting
  at ~0.38 s and ~0.42 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..telemetry import current
from ..analysis.report import ascii_table, ascii_timeline
from ..analysis.timeseries import utilization_series
from ..cc.fair import FairSharing
from ..cc.weighted import StaticWeighted
from ..net.phasesim import SimulationResult
from ..runner import run_many
from ..workloads.profiles import EFFECTIVE_BOTTLENECK, figure2_vgg19_pair
from .common import phase_spec

#: The paper's Figure 2b time anchors, seconds.
PAPER_ANCHORS = {
    "J1 first iteration end": 0.28,
    "J2 first iteration end": 0.32,
    "J1 second comm start": 0.38,
    "J2 second comm start": 0.42,
}


@dataclass
class Figure2Result:
    """Both scenarios plus the derived series and anchors."""

    fair: SimulationResult
    unfair: SimulationResult
    capacity: float

    def anchors(self) -> Dict[str, float]:
        """Measured counterparts of the paper's Figure 2b time anchors."""
        j1 = self.unfair.timeline("J1").samples
        j2 = self.unfair.timeline("J2").samples
        return {
            "J1 first iteration end": j1[0].end,
            "J2 first iteration end": j2[0].end,
            "J1 second comm start": j1[1].comm_start,
            "J2 second comm start": j2[1].comm_start,
        }

    def utilization(
        self,
        scenario: str,
        job_id: str,
        end: float = 1.3,
        n_samples: int = 400,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One job's share of the bottleneck over time, in [0, 1]."""
        result = self.fair if scenario == "fair" else self.unfair
        job = result.jobs[job_id]
        return utilization_series(
            job.rate_trace, self.capacity, 0.0, end, n_samples
        )

    def overlap_per_iteration(self, max_iterations: int = 6) -> List[float]:
        """Seconds both jobs communicate simultaneously, per J1 iteration.

        The paper's qualitative claim: this shrinks iteration over
        iteration under unfairness and vanishes once the phases interleave.
        """
        j1 = self.unfair.timeline("J1")
        j2 = self.unfair.timeline("J2")
        overlaps: List[float] = []
        for sample in j1.samples[:max_iterations]:
            overlap = 0.0
            for other in j2:
                lo = max(sample.comm_start, other.comm_start)
                hi = min(sample.end, other.end)
                overlap += max(0.0, hi - lo)
            overlaps.append(overlap)
        return overlaps

    def report(self) -> str:
        """Timelines, anchors and the shrinking-overlap series."""
        lines = ["Figure 2 — bottleneck utilization per job"]
        for scenario in ("fair", "unfair"):
            for job_id in ("J1", "J2"):
                times, util = self.utilization(scenario, job_id)
                lines.append(
                    ascii_timeline(times, util, f"{scenario}/{job_id}")
                )
        anchor_rows = [
            (name, f"{measured:.2f} s", f"{PAPER_ANCHORS[name]:.2f} s")
            for name, measured in self.anchors().items()
        ]
        lines.append("")
        lines.append(
            ascii_table(
                ["anchor", "measured", "paper"],
                anchor_rows,
                title="Figure 2b time anchors",
            )
        )
        overlaps = self.overlap_per_iteration()
        lines.append("")
        lines.append(
            "comm-phase overlap per iteration (s): "
            + ", ".join(f"{o * 1e3:.0f}ms" for o in overlaps)
        )
        return "\n".join(lines)


def run(
    n_iterations: int = 8,
    weight_ratio: float = 2.0,
    seed: int = 0,
) -> Figure2Result:
    """Run both Figure 2 scenarios from a simultaneous start."""
    j1, j2 = figure2_vgg19_pair()
    fair_result, unfair_result = run_many(
        [
            phase_spec(
                [j1, j2],
                FairSharing(),
                n_iterations=n_iterations,
                seed=seed,
                label="figure2-fair",
            ),
            phase_spec(
                [j1, j2],
                StaticWeighted.from_aggressiveness_order(
                    [j1.job_id, j2.job_id], weight_ratio
                ),
                n_iterations=n_iterations,
                seed=seed,
                label="figure2-unfair",
            ),
        ],
    )
    return Figure2Result(
        fair=fair_result.phase,
        unfair=unfair_result.phase,
        capacity=EFFECTIVE_BOTTLENECK,
    )


def main() -> None:
    """Print the Figure 2 reproduction."""
    with current().span("experiment.figure2"):
        print(run().report())


if __name__ == "__main__":
    main()
