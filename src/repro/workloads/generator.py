"""Random workload mixes for the scheduler experiments.

Generates populations of :class:`~repro.workloads.job.JobSpec` with
realistic spreads of iteration time and communication fraction, seeded for
reproducibility, one by one or as a Poisson arrival stream
(:meth:`WorkloadGenerator.arrivals`). Used by the placement benchmarks
(§4's "placing compatible jobs on links") where the interesting statistic
is how often a random pairing is compatible versus what a
compatibility-aware scheduler finds.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import WorkloadError
from ..sim.rng import RandomStreams
from ..units import gbps, milliseconds
from .job import JobSpec
from .models import MODEL_ZOO
from .traces import JobArrival


class WorkloadGenerator:
    """Draws random training jobs from the model zoo."""

    def __init__(
        self,
        seed: int = 0,
        capacity: float = gbps(42),
        iteration_range_ms: tuple[float, float] = (80.0, 1200.0),
        comm_fraction_range: tuple[float, float] = (0.05, 0.6),
    ) -> None:
        low, high = iteration_range_ms
        if not 0 < low < high:
            raise WorkloadError("iteration_range_ms must be 0 < low < high")
        frac_low, frac_high = comm_fraction_range
        if not 0 < frac_low < frac_high < 1:
            raise WorkloadError(
                "comm_fraction_range must satisfy 0 < low < high < 1"
            )
        self._rng = RandomStreams(seed).get("workload-generator")
        self._capacity = capacity
        self._iteration_range_ms = iteration_range_ms
        self._comm_fraction_range = comm_fraction_range
        self._model_names = sorted(MODEL_ZOO)

    def job(self, job_id: str) -> JobSpec:
        """Draw one random job.

        Iteration time is log-uniform over the configured range (cluster
        traces show heavy spread across jobs); the communication fraction
        is uniform; batch size is reported for flavour only.
        """
        low_ms, high_ms = self._iteration_range_ms
        iteration_s = milliseconds(
            float(
                np.exp(self._rng.uniform(np.log(low_ms), np.log(high_ms)))
            )
        )
        # Round to whole milliseconds so unified-circle LCMs stay small
        # enough for exact compatibility checks (profiling granularity).
        iteration_s = max(round(iteration_s, 3), 2e-3)
        fraction = float(self._rng.uniform(*self._comm_fraction_range))
        comm_s = iteration_s * fraction
        compute_s = iteration_s - comm_s
        model_name = str(self._rng.choice(self._model_names))
        batch = int(self._rng.integers(8, 2048))
        return JobSpec(
            job_id=job_id,
            model_name=model_name,
            batch_size=batch,
            compute_time=compute_s,
            comm_bytes=comm_s * self._capacity,
            n_workers=int(self._rng.choice([2, 4, 8, 16])),
        )

    def jobs(self, count: int, prefix: str = "job") -> List[JobSpec]:
        """Draw ``count`` random jobs with ids ``{prefix}-0..``."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        return [self.job(f"{prefix}-{index}") for index in range(count)]

    def arrivals(
        self,
        count: int,
        mean_interarrival_s: float = 60.0,
        mean_lifetime_s: float = 600.0,
    ) -> List[JobArrival]:
        """A Poisson arrival stream of random jobs ``dyn-0..``, each
        staying ``mean_lifetime_s``, for a
        :class:`~repro.scheduler.service.ClusterService`.

        Draws every gap first, then the jobs in order.
        """
        if mean_interarrival_s <= 0:
            raise WorkloadError("mean_interarrival_s must be > 0")
        gaps = self._rng.exponential(mean_interarrival_s, size=count)
        arrivals: List[JobArrival] = []
        for index, time in enumerate(np.cumsum(gaps)):
            spec = self.job(f"dyn-{index}")
            arrivals.append(
                JobArrival(
                    time=float(time),
                    spec=spec,
                    n_workers=spec.n_workers,
                    lifetime=mean_lifetime_s,
                )
            )
        return arrivals
