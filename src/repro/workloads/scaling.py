"""Batch-size scaling laws and the self-compatibility frontier.

§5 ("Impact of hyper-parameters"): iteration time and communication
demand are functions of batch size, worker count and the allreduce
algorithm — so the scheduler can *choose* hyper-parameters that make jobs
compatible. This module quantifies that lever from the model zoo:

* :func:`scaling_profile` — how compute time, communication fraction and
  solo iteration time move with batch size for a given model;
* :func:`self_compatibility_threshold` — the smallest batch size at which
  two instances of the same job become fully compatible (two equal
  periods interleave iff the communication fraction is at most 1/2,
  so the threshold is where compute time first reaches the solo
  communication time).

Each :class:`ScalingPoint` also says how many copies of its job a link
can host at dedicated speed (``floor(1 / comm_fraction)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import WorkloadError
from ..units import gbps, milliseconds
from .allreduce import AllreduceAlgorithm, bytes_per_worker
from .job import JobSpec
from .models import model


@dataclass(frozen=True)
class ScalingPoint:
    """One batch size's derived workload characteristics."""

    batch_size: int
    compute_time: float
    comm_time: float
    iteration_time: float
    comm_fraction: float
    self_compatible: bool

    @property
    def sharing_capacity(self) -> int:
        """Copies of this job one link hosts at dedicated speed."""
        return max(1, math.floor(1.0 / self.comm_fraction))


def _job_for(
    model_name: str,
    batch_size: int,
    n_workers: int,
    algorithm: AllreduceAlgorithm,
) -> JobSpec:
    return JobSpec.from_model(
        f"{model_name}-{batch_size}",
        model_name,
        batch_size,
        n_workers=n_workers,
        algorithm=algorithm,
    )


def scaling_profile(
    model_name: str,
    batch_sizes: Sequence[int],
    n_workers: int = 8,
    capacity: float = gbps(42),
    algorithm: AllreduceAlgorithm = AllreduceAlgorithm.RING,
) -> List[ScalingPoint]:
    """Derive workload characteristics across batch sizes.

    Compute time grows linearly with the batch; gradient size (hence the
    communication phase) does not — so the communication *fraction* falls
    and compatibility improves as batches grow, exactly the §5 lever.
    """
    if not batch_sizes:
        raise WorkloadError("no batch sizes given")
    model(model_name)  # validate early
    points: List[ScalingPoint] = []
    for batch in batch_sizes:
        spec = _job_for(model_name, batch, n_workers, algorithm)
        comm = spec.solo_comm_time(capacity)
        iteration = spec.solo_iteration_time(capacity)
        fraction = comm / iteration
        points.append(
            ScalingPoint(
                batch_size=batch,
                compute_time=spec.compute_time,
                comm_time=comm,
                iteration_time=iteration,
                comm_fraction=fraction,
                self_compatible=fraction <= 0.5,
            )
        )
    return points


def self_compatibility_threshold(
    model_name: str,
    n_workers: int = 8,
    capacity: float = gbps(42),
    algorithm: AllreduceAlgorithm = AllreduceAlgorithm.RING,
    max_batch: int = 65536,
) -> Optional[int]:
    """Smallest batch at which two copies of the job interleave fully.

    Two equal-period jobs are compatible iff the communication fraction
    is at most 1/2, i.e. compute time >= solo communication time. With
    linear compute scaling the threshold batch solves
    ``per_sample * batch = comm_bytes / capacity`` exactly; returns
    ``None`` if even ``max_batch`` is not enough.
    """
    spec_model = model(model_name)
    grad = bytes_per_worker(spec_model.gradient_bytes, n_workers, algorithm)
    if grad <= 0:
        return 1  # no traffic: trivially compatible
    comm_time = grad / capacity
    per_sample = milliseconds(spec_model.compute_ms_per_sample)
    threshold = math.ceil(comm_time / per_sample)
    if threshold > max_batch:
        return None
    return max(1, threshold)
