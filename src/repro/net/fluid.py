"""Weighted max-min fluid bandwidth allocation with strict priorities.

This is the arbiter both simulators use to convert a congestion-control
policy into instantaneous rates. The classical *progressive filling*
algorithm is extended two ways:

* **weights** — each flow fills at a rate proportional to its weight, so a
  2:1 weight ratio on a shared bottleneck yields a 2:1 rate split. This is
  the fluid equivalent of making one DCQCN sender more aggressive (the
  paper's ``T`` skew); the fine-grained model in :mod:`repro.cc.dcqcn`
  validates the correspondence.
* **strict priorities** — flows are grouped by priority class (highest
  first) and each class is allocated over the capacity the classes above it
  left behind. This models the paper's §4(ii) switch priority queues.

Rate caps (NIC line rate, app limits) are respected by freezing a flow at
its cap during filling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import AllocationError
from .flows import Flow
from .topology import Link

#: Tolerance for capacity comparisons, relative to link capacity.
_REL_EPS = 1e-9


@dataclass
class Allocation:
    """Result of one allocation round.

    Attributes:
        rates: Allocated rate per flow, bytes/s.
        link_loads: Total allocated rate crossing each involved link.
    """

    rates: Dict[Flow, float] = field(default_factory=dict)
    link_loads: Dict[Link, float] = field(default_factory=dict)

    def rate_of(self, flow: Flow) -> float:
        """Allocated rate for ``flow`` (0 if it was not in the round)."""
        return self.rates.get(flow, 0.0)

    def utilization(self, link: Link) -> float:
        """Fraction of ``link``'s capacity in use, in [0, 1]."""
        return self.link_loads.get(link, 0.0) / link.capacity


class FluidAllocator:
    """Computes weighted max-min allocations with strict priorities."""

    def allocate(self, flows: Sequence[Flow]) -> Allocation:
        """Allocate rates to ``flows`` over their (shared) links.

        Flows with a higher ``priority`` value are allocated first and see
        the full link capacities; each lower class sees what remains.
        Within a class the split is weighted max-min fair.

        Links are merged by ``Link`` equality (their ``(src, dst)``
        endpoints) in first-seen order, and a merged link keeps the
        capacity of the first object seen. They are then numbered, and
        the filling runs over plain lists indexed by those numbers: a
        ``Link`` hashes in Python code, and the calls the phase simulator
        makes are small enough (a few flows over a few links) that
        hashing, not arithmetic, dominated them.

        Raises:
            AllocationError: if a ``flow_id`` appears more than once, if
                a flow has neither a path nor a cap, or if a link ends up
                oversubscribed.
        """
        if not flows:
            return Allocation()

        index: Dict[Link, int] = {}
        links: List[Link] = []
        paths: List[List[int]] = []
        for flow in flows:
            path = []
            for link in flow.links:
                j = index.setdefault(link, len(links))
                if j == len(links):
                    links.append(link)
                path.append(j)
            paths.append(path)
        residual = [link.capacity for link in links]

        rates = [0.0] * len(flows)
        order: List[int] = []
        for priority in sorted({f.priority for f in flows}, reverse=True):
            members = [
                i for i, flow in enumerate(flows) if flow.priority == priority
            ]
            self._weighted_max_min(flows, members, paths, residual, rates)
            for i in members:
                rate = rates[i]
                # A path that lists a link twice subtracts twice.
                for j in paths[i]:
                    residual[j] = max(0.0, residual[j] - rate)
            order += members

        allocation = Allocation(
            rates={flows[i]: rates[i] for i in order},
            link_loads={
                link: link.capacity - left
                for link, left in zip(links, residual)
            },
        )
        if len(allocation.rates) < len(flows):
            seen = set()
            for flow in flows:
                if flow.flow_id in seen:
                    raise AllocationError(
                        f"flow {flow.flow_id!r} appears more than once"
                    )
                seen.add(flow.flow_id)
        self._check(allocation)
        return allocation

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _weighted_max_min(
        flows: Sequence[Flow],
        members: List[int],
        paths: List[List[int]],
        capacities: List[float],
        rates: List[float],
    ) -> None:
        """Progressive filling of one priority class, written into ``rates``.

        ``members`` are the indices into ``flows`` of the class, in flow
        order; ``paths`` holds each flow's link indices and
        ``capacities`` each link's residual at the start of the class.
        Every unfrozen flow grows at ``weight * theta``; at each step we
        find the smallest ``theta`` increment that saturates a link or
        hits a flow's rate cap, freeze the affected flows, and repeat.

        Only links that some member crosses take part: the others carry
        no active weight, so they never bound the step or freeze a flow.
        They are visited in link-index order and each one's incident
        members in flow order, once per flow however often its path lists
        the link. The per-link weight stays a ``sum()`` over the unfrozen
        incident members: from Python 3.12 on ``sum()`` of floats is
        compensated, so a hand-written ``+=`` loop would round
        differently there.
        """
        n = len(members)
        weights = [flows[i].weight for i in members]
        caps = [flows[i].rate_cap for i in members]
        by_link: List[List[int]] = [[] for _ in capacities]
        for k, i in enumerate(members):
            for j in paths[i]:
                incident = by_link[j]
                if not incident or incident[-1] != k:
                    incident.append(k)
        incident_of = [incident for incident in by_link if incident]
        remaining = [
            cap for cap, incident in zip(capacities, by_link) if incident
        ]
        # Saturation is relative to the residual at the start of the
        # class, not to the nominal capacity.
        saturated = [cap * _REL_EPS for cap in remaining]
        filled = [0.0] * n

        frozen = [False] * n
        n_frozen = 0
        while n_frozen < n:
            active = [k for k in range(n) if not frozen[k]]
            active_weight = [
                sum([weights[k] for k in incident if not frozen[k]])
                for incident in incident_of
            ]
            # Smallest theta increment that saturates some constraint.
            best_delta: Optional[float] = None
            for cap, weight in zip(remaining, active_weight):
                if weight <= 0:
                    continue
                delta = cap / weight
                if best_delta is None or delta < best_delta:
                    best_delta = delta
            for k in active:
                cap = caps[k]
                if cap is None:
                    continue
                delta = (cap - filled[k]) / weights[k]
                if best_delta is None or delta < best_delta:
                    best_delta = delta
            if best_delta is None:
                # No active flow crosses any constrained link and none has
                # a cap: rates are unbounded in the fluid model, which means
                # the caller built flows with empty paths and no caps.
                raise AllocationError(
                    "flows without links must carry a rate_cap"
                )
            best_delta = max(best_delta, 0.0)

            for k in active:
                filled[k] += weights[k] * best_delta
            remaining = [
                max(0.0, cap - best_delta * weight)
                for cap, weight in zip(remaining, active_weight)
            ]

            # Freeze flows on saturated links or at their caps.
            newly_frozen: set[int] = set()
            for k in active:
                cap = caps[k]
                if cap is not None and filled[k] >= cap * (1 - _REL_EPS):
                    filled[k] = min(filled[k], cap)
                    newly_frozen.add(k)
            for cap, floor, incident in zip(remaining, saturated, incident_of):
                if cap <= floor:
                    for k in incident:
                        if not frozen[k]:
                            newly_frozen.add(k)
            if not newly_frozen:
                # Numerical safety net: freeze everything rather than spin.
                newly_frozen = set(active)
            for k in sorted(newly_frozen):
                frozen[k] = True
            n_frozen += len(newly_frozen)
        for k, i in enumerate(members):
            rates[i] = filled[k]

    @staticmethod
    def _check(allocation: Allocation) -> None:
        """Assert no link is oversubscribed (guards against regressions)."""
        for link, load in allocation.link_loads.items():
            if load > link.capacity * (1 + 1e-6):
                raise AllocationError(
                    f"link {link.name} oversubscribed: "
                    f"{load:.6g} > {link.capacity:.6g}"
                )
