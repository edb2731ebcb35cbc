"""Bytes-on-wire accounting for allreduce algorithms.

The paper lists the standard synchronization strategies (broadcast,
parameter servers, ring-allreduce, tree-reduce, hierarchical ring). What
the network substrate needs from each is *how many bytes each worker's NIC
injects per iteration* for a gradient of ``S`` bytes across ``N`` workers:

========================  =========================================
algorithm                 bytes transmitted per worker
========================  =========================================
ring                      ``2 * (N-1)/N * S``   (reduce-scatter + allgather)
tree                      ``2 * S * ceil(log2 N) / ...`` — per-worker
                          average ``2*S*(N-1)/N`` over the binomial tree;
                          we account the root-heavy worst case ``2*S``.
parameter server          worker: ``2*S`` (push + pull); server: ``2*N*S``
broadcast                 ``(N-1) * S`` for the broadcaster, ``S`` others;
                          average accounted.
hierarchical ring         intra-group ring + inter-group ring on leaders.
========================  =========================================
"""

from __future__ import annotations

import enum
import math

from ..errors import WorkloadError


class AllreduceAlgorithm(enum.Enum):
    """Supported gradient-synchronization strategies."""

    RING = "ring"
    TREE = "tree"
    PARAMETER_SERVER = "ps"
    BROADCAST = "broadcast"
    HIERARCHICAL = "hierarchical"


def bytes_per_worker(
    gradient_bytes: float,
    n_workers: int,
    algorithm: AllreduceAlgorithm = AllreduceAlgorithm.RING,
    group_size: int = 0,
) -> float:
    """Bytes each worker transmits for one allreduce of ``gradient_bytes``.

    Args:
        gradient_bytes: Size of the model gradient, bytes.
        n_workers: Number of participating workers (>= 1).
        algorithm: Synchronization strategy.
        group_size: Intra-group size for hierarchical ring (defaults to
            ``sqrt(n_workers)`` rounded, the usual rack-sized grouping).

    Returns:
        Bytes transmitted by one worker's NIC (0 for a single worker).
    """
    if gradient_bytes < 0:
        raise WorkloadError("gradient_bytes must be >= 0")
    if n_workers < 1:
        raise WorkloadError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1:
        return 0.0
    n = n_workers
    s = gradient_bytes
    if algorithm is AllreduceAlgorithm.RING:
        return 2.0 * (n - 1) / n * s
    if algorithm is AllreduceAlgorithm.TREE:
        # Binomial-tree reduce + broadcast: the busiest worker forwards the
        # full gradient up and down once.
        return 2.0 * s
    if algorithm is AllreduceAlgorithm.PARAMETER_SERVER:
        # Each worker pushes gradients and pulls fresh weights.
        return 2.0 * s
    if algorithm is AllreduceAlgorithm.BROADCAST:
        # Sufficient-factor style: everyone sends its update to everyone.
        return (n - 1) * s
    if algorithm is AllreduceAlgorithm.HIERARCHICAL:
        k = group_size if group_size >= 2 else max(2, round(math.sqrt(n)))
        k = min(k, n)
        n_groups = math.ceil(n / k)
        intra = 2.0 * (k - 1) / k * s
        inter = 2.0 * (n_groups - 1) / n_groups * s if n_groups > 1 else 0.0
        # Group leaders carry both phases; report the leader (bottleneck).
        return intra + inter
    raise WorkloadError(f"unsupported algorithm {algorithm}")
