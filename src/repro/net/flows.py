"""Flow objects: the unit of bandwidth allocation.

A :class:`Flow` represents one job's traffic across the network during its
communication phase. The fluid models treat a flow as infinitely divisible
traffic along a fixed path. Weight and priority are the levers the paper's
mechanisms pull: static-weighted unfairness scales ``weight``; the switch
priority-queue mechanism sets ``priority``; the adaptively-unfair congestion
control derives an effective weight from ``progress`` (§4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConfigError
from .topology import Link


@dataclass
class Flow:
    """A fluid flow with a fixed route.

    Attributes:
        flow_id: Unique identifier (stable across allocation rounds).
        src: Source host name.
        dst: Destination host name.
        links: Directed links the flow traverses, in order.
        weight: Relative share weight for weighted-fair policies
            (finite, > 0).
        priority: Strict priority class; higher values are served first.
        rate_cap: Optional cap in bytes/s (e.g. sender NIC or app limit).
        job_id: Identifier of the training job this flow belongs to.
        progress: Fraction of the current communication phase already sent,
            in [0, 1]; drives the adaptively-unfair policy.
    """

    flow_id: str
    src: str
    dst: str
    links: List[Link] = field(default_factory=list)
    weight: float = 1.0
    priority: int = 0
    rate_cap: Optional[float] = None
    job_id: str = ""
    progress: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < math.inf:  # also refuses NaN
            raise ConfigError(
                f"flow {self.flow_id}: weight must be finite and > 0, "
                f"got {self.weight!r}"
            )
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ConfigError(f"flow {self.flow_id}: rate_cap must be > 0")
        if not 0.0 <= self.progress <= 1.0:
            raise ConfigError(f"flow {self.flow_id}: progress not in [0, 1]")

    def __hash__(self) -> int:
        return hash(self.flow_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Flow):
            return NotImplemented
        return self.flow_id == other.flow_id

    def traverses(self, link: Link) -> bool:
        """Whether this flow crosses ``link``."""
        return link in self.links
