"""Per-job strict priorities (§4, direction ii).

With unique priorities per job on a link, the switch serves the higher
class first; during an overlap the high-priority job takes the whole link,
which slides the lower-priority job's phase out of the way exactly like
extreme unfairness — without any congestion-control change. The paper notes
the priority values can be arbitrary as long as jobs sharing a link are
compatible and priorities are unique;
:meth:`repro.mechanisms.priorities.PriorityAssigner.assign` gives each job
a unique one under a switch's queue budget.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..net.flows import Flow
from .base import SharePolicy


class PrioritySharing(SharePolicy):
    """Strict-priority bandwidth sharing with per-job classes."""

    name = "priority"

    def __init__(self, priorities: Mapping[str, int], default: int = 0):
        self._priorities: Dict[str, int] = dict(priorities)
        self._default = int(default)

    def weight_of(self, flow: Flow) -> float:
        # Within a priority class (only possible for jobs that were not
        # assigned a class) the split is plain fair sharing.
        return 1.0

    def priority_of(self, flow: Flow) -> int:
        return self._priorities.get(flow.job_id, self._default)

    def priority_for_job(self, job_id: str) -> int:
        """The configured priority of ``job_id`` (default if unset)."""
        return self._priorities.get(job_id, self._default)

    @property
    def priorities(self) -> Dict[str, int]:
        """The configured per-job priorities (copy)."""
        return dict(self._priorities)

    @property
    def default_priority(self) -> int:
        """The priority applied to jobs without an explicit entry."""
        return self._default
