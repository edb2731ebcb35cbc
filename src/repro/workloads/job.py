"""The training-job specification.

A :class:`JobSpec` is the paper's abstraction of a data-parallel training
job as seen from the network: every iteration is a *compute phase* (the
forward pass — no traffic) followed by a *communication phase*
(backpropagation + allreduce — ``comm_bytes`` injected into the network;
the paper folds backprop into the communication phase because congestion
matters whenever data is in flight).

``solo_iteration_time(capacity)`` gives the iteration time with dedicated
network resources — the paper's target: compatible jobs sharing a link
should achieve this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import WorkloadError
from .allreduce import AllreduceAlgorithm, bytes_per_worker
from .models import ModelSpec, model


@dataclass(frozen=True)
class JobSpec:
    """A periodic on-off training job.

    Attributes:
        job_id: Unique identifier.
        model_name: Architecture name (informational).
        batch_size: Per-job global batch size (informational).
        compute_time: Compute-phase duration, seconds.
        comm_bytes: Bytes injected into the network per iteration.
        compute_jitter: Std-dev of per-iteration compute time as a fraction
            of ``compute_time`` (real jobs show a few percent of noise).
        n_workers: Number of data-parallel workers.
    """

    job_id: str
    compute_time: float
    comm_bytes: float
    model_name: str = ""
    batch_size: int = 0
    compute_jitter: float = 0.0
    n_workers: int = 2

    def __post_init__(self) -> None:
        if not self.job_id:
            raise WorkloadError("job_id must be non-empty")
        if not (math.isfinite(self.compute_time) and self.compute_time >= 0):
            raise WorkloadError(
                f"{self.job_id}: compute_time must be finite and >= 0"
            )
        if not (math.isfinite(self.comm_bytes) and self.comm_bytes > 0):
            raise WorkloadError(
                f"{self.job_id}: comm_bytes must be finite and > 0"
            )
        if not 0.0 <= self.compute_jitter < 1.0:
            raise WorkloadError(
                f"{self.job_id}: compute_jitter must be in [0, 1)"
            )
        if self.n_workers < 1:
            raise WorkloadError(f"{self.job_id}: n_workers must be >= 1")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    def solo_comm_time(self, capacity: float) -> float:
        """Communication-phase duration with the full link, seconds."""
        if capacity <= 0:
            raise WorkloadError(f"capacity must be > 0, got {capacity}")
        return self.comm_bytes / capacity

    def solo_iteration_time(self, capacity: float) -> float:
        """Iteration time with dedicated network resources, seconds."""
        return self.compute_time + self.solo_comm_time(capacity)

    def comm_fraction(self, capacity: float) -> float:
        """Fraction of a solo iteration spent communicating, in (0, 1]."""
        return self.solo_comm_time(capacity) / self.solo_iteration_time(capacity)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        job_id: str,
        model_name: str,
        batch_size: int,
        n_workers: int = 8,
        algorithm: AllreduceAlgorithm = AllreduceAlgorithm.RING,
        compute_jitter: float = 0.0,
    ) -> "JobSpec":
        """Derive a spec from the model zoo.

        Compute time scales linearly with batch size via the zoo's
        per-sample coefficient; communication bytes come from the model's
        gradient size and the allreduce algorithm's per-worker cost.
        """
        spec: ModelSpec = model(model_name)
        return cls(
            job_id=job_id,
            model_name=spec.name,
            batch_size=batch_size,
            compute_time=spec.compute_time(batch_size),
            comm_bytes=bytes_per_worker(
                spec.gradient_bytes, n_workers, algorithm
            ),
            compute_jitter=compute_jitter,
            n_workers=n_workers,
        )

    def with_id(self, job_id: str) -> "JobSpec":
        """A copy of this spec under a different job id."""
        return replace(self, job_id=job_id)

    def with_jitter(self, compute_jitter: float) -> "JobSpec":
        """A copy of this spec with per-iteration compute noise."""
        return replace(self, compute_jitter=compute_jitter)
