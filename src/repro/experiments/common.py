"""Shared experiment infrastructure.

Every testbed-style experiment runs on the paper's Figure 1a shape: jobs
whose flows cross the dumbbell bottleneck ``L1``. These helpers describe
that setup as :class:`~repro.runner.spec.RunSpec` objects and execute
them through the runner, so every experiment automatically picks up the
process pool and result cache configured by ``repro-experiments run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..cc.base import SharePolicy
from ..errors import ConfigError
from ..net.phasesim import Gate, SimulationResult
from ..net.topology import BOTTLENECK, Topology
from ..runner import RunSpec, freeze_mapping, run_many
from ..telemetry import Telemetry
from ..workloads.job import JobSpec
from ..workloads.profiles import EFFECTIVE_BOTTLENECK

__all__ = [
    "BOTTLENECK",  # re-exported from repro.net.topology (single home)
    "PairedRun",
    "dumbbell_for",
    "phase_spec",
    "run_jobs",
]


def dumbbell_for(
    n_jobs: int,
    capacity: float = EFFECTIVE_BOTTLENECK,
) -> Topology:
    """A dumbbell with one host pair per job and bottleneck ``L1``.

    Host NICs match the bottleneck capacity so that ``L1`` is the only
    point of contention, as in the paper's testbed.
    """
    if n_jobs < 1:
        raise ConfigError("need at least one job")
    return Topology.dumbbell(
        hosts_per_side=n_jobs,
        host_capacity=capacity,
        bottleneck_capacity=capacity,
        bottleneck_name=BOTTLENECK,
    )


def phase_spec(
    specs: Sequence[JobSpec],
    policy: SharePolicy,
    n_iterations: int,
    capacity: float = EFFECTIVE_BOTTLENECK,
    start_offsets: Optional[Mapping[str, float]] = None,
    gates: Optional[Mapping[str, Gate]] = None,
    seed: int = 0,
    until: Optional[float] = None,
    label: str = "",
) -> RunSpec:
    """Describe a dumbbell phase-level run as a :class:`RunSpec`.

    Job ``i`` sends from ``ha{i}`` to ``hb{i}``; all flows share ``L1``
    (the phase backend builds the matching dumbbell itself).
    """
    if not specs:
        raise ConfigError("no job specs given")
    return RunSpec(
        backend="phase",
        label=label,
        seed=seed,
        jobs=tuple(specs),
        policy=policy,
        n_iterations=n_iterations,
        capacity=capacity,
        start_offsets=freeze_mapping(start_offsets),
        gates=freeze_mapping(gates),
        until=until,
    )


def run_jobs(
    specs: Sequence[JobSpec],
    policy: SharePolicy,
    n_iterations: int,
    capacity: float = EFFECTIVE_BOTTLENECK,
    start_offsets: Optional[Mapping[str, float]] = None,
    gates: Optional[Mapping[str, Gate]] = None,
    seed: int = 0,
    until: Optional[float] = None,
    telemetry: Optional[Telemetry] = None,
) -> SimulationResult:
    """Run ``specs`` across the dumbbell bottleneck under ``policy``.

    Convenience wrapper building one :func:`phase_spec` and executing it
    through the runner. ``telemetry`` defaults to the ambient session, so
    experiments record automatically under ``repro-experiments run``.
    """
    [result] = run_many(
        [
            phase_spec(
                specs,
                policy,
                n_iterations,
                capacity=capacity,
                start_offsets=start_offsets,
                gates=gates,
                seed=seed,
                until=until,
            )
        ],
        telemetry=telemetry,
    )
    return result.phase


@dataclass
class PairedRun:
    """A fair run and an unfair run of the same job set."""

    fair: SimulationResult
    unfair: SimulationResult
    job_ids: List[str]

    def mean_ms(self, scenario: str, job_id: str, skip: int = 0) -> float:
        """Mean iteration time in ms for one job in one scenario."""
        result = self.fair if scenario == "fair" else self.unfair
        return result.mean_iteration_time(job_id, skip=skip) * 1e3

    def speedups(self, skip: int = 0) -> Dict[str, float]:
        """Per-job fair/unfair mean-iteration speedups."""
        return {
            job_id: (
                self.fair.mean_iteration_time(job_id, skip=skip)
                / self.unfair.mean_iteration_time(job_id, skip=skip)
            )
            for job_id in self.job_ids
        }
