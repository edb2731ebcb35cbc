"""The paper's three §4 mechanisms for congestion-free sharing.

Once compatible jobs are placed on a link, the provider must *create* the
desirable side effect of unfairness. Three interchangeable ways:

* an (adaptively) unfair congestion control — the share policies
  :class:`~repro.cc.weighted.StaticWeighted` (with
  :func:`~repro.cc.dcqcn.calibrate_timer_weights`, the bridge that turns a
  DCQCN timer skew into equivalent share weights) and
  :class:`~repro.cc.adaptive.AdaptiveUnfair`.
* :mod:`repro.mechanisms.priorities` — assign unique switch priorities per
  job (limited priority queues handled explicitly).
* :mod:`repro.mechanisms.flow_scheduling` — convert solver rotations into
  precise communication windows enforced by a gate.
"""

from .priorities import PriorityAssigner
from .flow_scheduling import PeriodicGate, FlowSchedule
from .controller import (
    CongestionFreeController,
    DeploymentPlan,
    Mechanism,
)

__all__ = [
    "PriorityAssigner",
    "PeriodicGate",
    "FlowSchedule",
    "CongestionFreeController",
    "DeploymentPlan",
    "Mechanism",
]
