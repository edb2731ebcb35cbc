"""Figure 1: the surprising payoff of unfairness.

Two reproductions:

* :func:`bandwidth_experiment` (Fig. 1b/1c) — the fine-grained DCQCN fluid
  model runs two long-lived flows through the 50 Gbps bottleneck. Fair:
  both senders use the default T = 125 µs timer and split the link evenly
  (paper: ~21/21 Gbps). Unfair: J1's timer drops to T = 100 µs and J1
  takes the larger share (paper: ~30/15 Gbps).
* :func:`cdf_experiment` (Fig. 1d) — the phase-level simulator runs the
  two VGG19 jobs for many iterations under fair and 2:1-weighted sharing
  and reports the CDFs; the paper reads a 1.23x median speedup for both
  jobs off these curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..telemetry import current
from ..cc.dcqcn import AGGRESSIVE_TIMER, DEFAULT_TIMER, DcqcnResult
from ..cc.fair import FairSharing
from ..cc.weighted import StaticWeighted
from ..analysis.cdf import median_of
from ..analysis.report import ascii_cdf, ascii_table
from ..runner import RunSpec, ScenarioSpec, SenderSpec, run_many
from ..units import gbps, to_gbps
from ..workloads.profiles import figure2_vgg19_pair
from .common import PairedRun, phase_spec

#: Paper numbers for the bandwidth experiment (Gbps).
PAPER_FAIR_GBPS = (21.0, 21.0)
PAPER_UNFAIR_GBPS = (30.0, 15.0)
#: Paper's median iteration speedup in Figure 1d.
PAPER_MEDIAN_SPEEDUP = 1.23


@dataclass
class BandwidthResult:
    """Fig. 1b/1c outcome: steady bandwidth per job per scenario."""

    fair_gbps: Dict[str, float]
    unfair_gbps: Dict[str, float]
    fair_trace: DcqcnResult
    unfair_trace: DcqcnResult

    def table(self) -> str:
        """Paper-vs-measured comparison table."""
        rows = []
        for index, job in enumerate(("J1", "J2")):
            rows.append(
                (
                    job,
                    f"{self.fair_gbps[job]:.1f}",
                    f"{PAPER_FAIR_GBPS[index]:.1f}",
                    f"{self.unfair_gbps[job]:.1f}",
                    f"{PAPER_UNFAIR_GBPS[index]:.1f}",
                )
            )
        return ascii_table(
            ["job", "fair Gbps", "paper", "unfair Gbps", "paper"],
            rows,
            title="Figure 1b/1c — DCQCN bandwidth at the bottleneck",
        )


def bandwidth_experiment(
    duration: float = 0.15,
    warmup: float = 0.03,
    capacity: float = gbps(50),
    seed: int = 7,
) -> BandwidthResult:
    """Run the Fig. 1b/1c DCQCN scenarios and measure steady shares.

    Both scenarios live in one fluid :class:`RunSpec` because they share
    random streams: J2's fair-scenario generator continues into the
    unfair scenario, exactly as the original experiment consumed it.
    """

    def lineup(timers: Dict[str, float]) -> tuple:
        return tuple(
            SenderSpec(name, timer) for name, timer in timers.items()
        )

    spec = RunSpec(
        backend="fluid",
        label="figure1-bandwidth",
        seed=seed,
        capacity=capacity,
        duration=duration,
        scenarios=(
            ScenarioSpec(
                "fair",
                lineup({"J1": DEFAULT_TIMER, "J2": DEFAULT_TIMER}),
            ),
            ScenarioSpec(
                "unfair",
                lineup({"J1": AGGRESSIVE_TIMER, "J2": DEFAULT_TIMER}),
            ),
        ),
    )
    [result] = run_many([spec])
    fair_trace = result.scenario("fair").trace
    unfair_trace = result.scenario("unfair").trace
    return BandwidthResult(
        fair_gbps={
            name: to_gbps(fair_trace.mean_rate(name, start=warmup))
            for name in ("J1", "J2")
        },
        unfair_gbps={
            name: to_gbps(unfair_trace.mean_rate(name, start=warmup))
            for name in ("J1", "J2")
        },
        fair_trace=fair_trace,
        unfair_trace=unfair_trace,
    )


@dataclass
class CdfResult:
    """Fig. 1d outcome: iteration-time distributions per scenario."""

    run: PairedRun
    fair_times: Dict[str, np.ndarray] = field(default_factory=dict)
    unfair_times: Dict[str, np.ndarray] = field(default_factory=dict)

    def median_speedup(self, job_id: str) -> float:
        """Fair-median over unfair-median (the Figure 1d statistic)."""
        return median_of(self.fair_times[job_id]) / median_of(
            self.unfair_times[job_id]
        )

    def report(self) -> str:
        """Quantile comparison lines for both jobs and scenarios."""
        from ..analysis.bootstrap import bootstrap_median_ratio

        lines = ["Figure 1d — CDF of training iteration times"]
        for job_id in self.run.job_ids:
            lines.append(ascii_cdf(self.fair_times[job_id], f"fair {job_id}"))
            lines.append(
                ascii_cdf(self.unfair_times[job_id], f"unfair {job_id}")
            )
            ci = bootstrap_median_ratio(
                self.fair_times[job_id], self.unfair_times[job_id]
            )
            lines.append(
                f"  median speedup {job_id}: "
                f"{self.median_speedup(job_id):.2f}x "
                f"(95% CI {ci.low:.2f}-{ci.high:.2f}; "
                f"paper {PAPER_MEDIAN_SPEEDUP}x)"
            )
        return "\n".join(lines)


def cdf_experiment(
    n_iterations: int = 1000,
    jitter: float = 0.02,
    weight_ratio: float = 2.0,
    skip: int = 10,
    seed: int = 0,
) -> CdfResult:
    """Run the Fig. 1d scenarios over many iterations.

    Per-iteration compute jitter models the measurement spread the paper's
    CDFs show; the unfair scenario uses the 2:1 weighted split measured in
    Fig. 1c.
    """
    j1, j2 = figure2_vgg19_pair(jitter=jitter)
    job_ids = [j1.job_id, j2.job_id]
    fair_result, unfair_result = run_many(
        [
            phase_spec(
                [j1, j2],
                FairSharing(),
                n_iterations=n_iterations,
                seed=seed,
                label="figure1-cdf-fair",
            ),
            phase_spec(
                [j1, j2],
                StaticWeighted.from_aggressiveness_order(
                    job_ids, weight_ratio
                ),
                n_iterations=n_iterations,
                seed=seed,
                label="figure1-cdf-unfair",
            ),
        ],
    )
    fair, unfair = fair_result.phase, unfair_result.phase
    paired = PairedRun(fair=fair, unfair=unfair, job_ids=job_ids)
    return CdfResult(
        run=paired,
        fair_times={
            job: fair.iteration_times(job)[skip:] for job in job_ids
        },
        unfair_times={
            job: unfair.iteration_times(job)[skip:] for job in job_ids
        },
    )


def main() -> None:
    """Print the full Figure 1 reproduction."""
    with current().span("experiment.figure1"):
        bandwidth = bandwidth_experiment()
        print(bandwidth.table())
        print()
        cdf = cdf_experiment()
        print(cdf.report())


if __name__ == "__main__":
    main()
