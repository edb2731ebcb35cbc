"""Cluster-level simulation and slowdown reporting.

Runs every placed job in the phase-level simulator under a chosen share
policy and reports each job's *slowdown* — mean iteration time over its
solo iteration time. Solo time is the paper's yardstick: compatible jobs
under engineered unfairness should approach slowdown 1.0 even on shared
links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cc.base import SharePolicy
from ..core.timeline import JobTimeline
from ..errors import SimulationError
from ..net.phasesim import PhaseLevelSimulator
from ..units import gbps, to_milliseconds
from .cluster import ClusterState


@dataclass
class ClusterReport:
    """Per-job and aggregate slowdowns of one cluster run.

    Attributes:
        iteration_ms: Mean iteration time per job, milliseconds.
        solo_ms: Solo (dedicated-network) iteration time per job.
        slowdown: ``iteration_ms / solo_ms`` per job.
        policy_name: The share policy that produced this run.
        timelines: Canonical iteration timelines of the simulated jobs
            (single-host jobs never enter the network simulator and
            therefore have none).
    """

    iteration_ms: Dict[str, float] = field(default_factory=dict)
    solo_ms: Dict[str, float] = field(default_factory=dict)
    slowdown: Dict[str, float] = field(default_factory=dict)
    policy_name: str = ""
    timelines: Dict[str, JobTimeline] = field(default_factory=dict)

    @property
    def mean_slowdown(self) -> float:
        """Average slowdown across jobs (NaN for an empty report)."""
        if not self.slowdown:
            return float("nan")
        return float(np.mean(list(self.slowdown.values())))

    @property
    def max_slowdown(self) -> float:
        """Worst job's slowdown (NaN for an empty report)."""
        if not self.slowdown:
            return float("nan")
        return float(max(self.slowdown.values()))

    @property
    def jobs_at_solo_speed(self) -> int:
        """Jobs within 2% of their dedicated-network speed."""
        return sum(1 for s in self.slowdown.values() if s <= 1.02)


class ClusterSimulation:
    """Drives a placed cluster through the phase-level simulator."""

    def __init__(
        self,
        cluster: ClusterState,
        reference_capacity: float = gbps(42),
        seed: int = 0,
    ) -> None:
        """Create the simulation.

        Args:
            cluster: The placed cluster.
            reference_capacity: Bandwidth used for solo-time baselines.
            seed: Simulation seed.
        """
        self.cluster = cluster
        self.reference_capacity = reference_capacity
        self.seed = seed

    def run(
        self,
        policy: SharePolicy,
        n_iterations: int = 50,
        warmup_iterations: int = 10,
        until: Optional[float] = None,
        stagger: float = 0.005,
        gates: Optional[Dict[str, object]] = None,
        faults=None,
    ) -> ClusterReport:
        """Simulate all placed jobs under ``policy``.

        Each job runs as one flow from its first to its last worker.
        Jobs that never leave their rack still run through the simulator
        (their flow crosses only host links), so rack-local contention on
        a shared host NIC is captured too.

        ``stagger`` offsets each job's start by a few milliseconds (job
        *i* starts at ``i * stagger``): real jobs never start in perfect
        lockstep, and progress-driven policies rely on that asymmetry.
        Set it to 0 for exactly simultaneous starts.

        ``gates`` optionally supplies per-job admission gates (flow
        scheduling), e.g. from a
        :class:`~repro.mechanisms.controller.DeploymentPlan`.

        ``faults`` optionally injects an
        :class:`repro.faults.InjectionSchedule` of perturbations. A job
        starved for the whole run (e.g. behind a link that fails until
        the horizon) reports ``nan`` for its iteration time and
        slowdown instead of crashing the report.
        """
        gates = gates or {}
        jobs = self.cluster.jobs
        if not jobs:
            raise SimulationError("no jobs placed on the cluster")
        if warmup_iterations >= n_iterations:
            raise SimulationError(
                "warmup_iterations must be < n_iterations"
            )
        sim = PhaseLevelSimulator(
            self.cluster.topology, policy, router=self.cluster.router,
            seed=self.seed,
        )
        local_jobs: List[str] = []
        for index, job in enumerate(jobs):
            src, dst = job.endpoints
            if src == dst:
                # Single-host job: no network phase to simulate.
                local_jobs.append(job.job_id)
                continue
            sim.add_job(
                job.spec, src, dst, n_iterations=n_iterations,
                start_offset=index * stagger,
                gate=gates.get(job.job_id),
            )
        sim.install_faults(faults)
        report = ClusterReport(policy_name=policy.name)
        result = sim.run(until=until) if len(local_jobs) < len(jobs) else None
        for job in jobs:
            solo_s = job.spec.solo_iteration_time(self.reference_capacity)
            report.solo_ms[job.job_id] = to_milliseconds(solo_s)
            if job.job_id in local_jobs:
                mean_s = solo_s
            else:
                assert result is not None
                timeline = result.timeline(job.job_id)
                report.timelines[job.job_id] = timeline
                try:
                    mean_s = timeline.mean_iteration_time(
                        skip=warmup_iterations
                    )
                except SimulationError:
                    # Starved job (zero post-warmup iterations, e.g. a
                    # link failure spanning the horizon): the timeline
                    # stays well-formed and empty; the report carries
                    # nan rather than crashing.
                    mean_s = float("nan")
            report.iteration_ms[job.job_id] = to_milliseconds(mean_s)
            report.slowdown[job.job_id] = mean_s / solo_s
        return report
