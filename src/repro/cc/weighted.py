"""Static-weighted unfairness.

The fluid analogue of the paper's testbed trick: shrinking DCQCN's rate-
increase timer ``T`` on one job's servers (125 µs -> 100 µs) makes that job
persistently more aggressive, observed as a ~30/15 Gbps split on a 50 Gbps
(≈45 Gbps effective) bottleneck — i.e. roughly a 2:1 weighted share. Here
the aggressiveness is expressed directly as a per-job weight; the
fine-grained model (:func:`repro.cc.dcqcn.calibrate_timer_weights`) maps a
``T`` skew to an equivalent weight ratio.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

from ..errors import ConfigError
from ..net.flows import Flow
from .base import SharePolicy

#: Weight ratio between adjacent aggressiveness ranks, chosen to match the
#: paper's observed ~2:1 bandwidth split for the T=100 µs vs 125 µs skew.
DEFAULT_AGGRESSIVENESS_RATIO = 2.0


class StaticWeighted(SharePolicy):
    """Fixed per-job share weights (unfairness as a knob)."""

    name = "static-weighted"

    def __init__(self, weights: Mapping[str, float], default: float = 1.0):
        for job_id, weight in weights.items():
            if not (math.isfinite(weight) and weight > 0):
                raise ConfigError(
                    f"job {job_id}: weight must be finite and > 0, "
                    f"got {weight}"
                )
        if not (math.isfinite(default) and default > 0):
            raise ConfigError(
                f"default weight must be finite and > 0, got {default}"
            )
        self._weights: Dict[str, float] = dict(weights)
        self._default = default

    @classmethod
    def from_aggressiveness_order(
        cls,
        job_ids: Sequence[str],
        ratio: float = DEFAULT_AGGRESSIVENESS_RATIO,
    ) -> "StaticWeighted":
        """Build weights from an ordering, most aggressive first.

        Table 1's protocol: "the order of aggressiveness is based on the
        jobs' order of appearance in the table, with each job more
        aggressive than subsequent jobs in its row". Adjacent jobs differ by
        ``ratio``.
        """
        if ratio <= 1.0:
            raise ConfigError(f"ratio must exceed 1, got {ratio}")
        n = len(job_ids)
        weights = {
            job_id: ratio ** (n - 1 - rank)
            for rank, job_id in enumerate(job_ids)
        }
        return cls(weights)

    def weight_of(self, flow: Flow) -> float:
        return self._weights.get(flow.job_id, self._default)

    def weight_for_job(self, job_id: str) -> float:
        """The configured weight of ``job_id`` (default if unset)."""
        return self._weights.get(job_id, self._default)

    @property
    def weights(self) -> Dict[str, float]:
        """The configured per-job weights (copy)."""
        return dict(self._weights)

    @property
    def default_weight(self) -> float:
        """The weight applied to jobs without an explicit entry."""
        return self._default
