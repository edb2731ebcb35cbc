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

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import AllocationError
from .flows import Flow
from .topology import Link

#: Tolerance for capacity comparisons, relative to link capacity.
_REL_EPS = 1e-9


class Allocation:
    """Result of one allocation round.

    The rates are held in input order; the keyed views ``rates`` and
    ``link_loads`` are built on first read and kept, so a caller that
    reads ``flow_rates`` alone hashes no ``Flow`` or ``Link``.

    Attributes:
        flow_rates: Allocated rate of each flow passed to
            :meth:`FluidAllocator.allocate`, bytes/s, in input order.
    """

    __slots__ = (
        "flow_rates", "_flows", "_order", "_links", "_loads",
        "_rates", "_link_loads",
    )

    def __init__(
        self,
        flows: Sequence[Flow] = (),
        flow_rates: Sequence[float] = (),
        order: Sequence[int] = (),
        links: Sequence[Link] = (),
        loads: Sequence[float] = (),
    ) -> None:
        self.flow_rates = flow_rates
        self._flows = flows
        self._order = order
        self._links = links
        self._loads = loads
        self._rates: Optional[Dict[Flow, float]] = None
        self._link_loads: Optional[Dict[Link, float]] = None

    @property
    def rates(self) -> Dict[Flow, float]:
        """Allocated rate per flow, bytes/s: highest class first, then in
        input order."""
        if self._rates is None:
            flows, rates = self._flows, self.flow_rates
            self._rates = {flows[i]: rates[i] for i in self._order}
        return self._rates

    @property
    def link_loads(self) -> Dict[Link, float]:
        """Total allocated rate crossing each involved link, keyed by the
        first-seen ``Link`` of each endpoint pair, in first-seen order."""
        if self._link_loads is None:
            self._link_loads = dict(zip(self._links, self._loads))
        return self._link_loads

    def rate_of(self, flow: Flow) -> float:
        """Allocated rate for ``flow`` (0 if it was not in the round)."""
        return self.rates.get(flow, 0.0)

    def utilization(self, link: Link) -> float:
        """Fraction of ``link``'s capacity in use, in [0, 1]."""
        return self.link_loads.get(link, 0.0) / link.capacity


#: One priority class: its members, each member's path (link indices),
#: the index of each link some member crosses, and that link's incident
#: members. Members are indices into the flows, in flow order.
_Class = Tuple[List[int], List[List[int]], List[int], List[List[int]]]


class _Structure:
    """What an allocation derives from a flow set's objects, not values.

    ``key`` lists, per flow, its identity, ``flow_id``, priority and path
    length, then the identity of each link on its path; a call whose key
    is equal may reuse everything here. The flows and path links are
    held so that no identity in the key is reused by another object.
    Capacities, weights and caps are not part of it: they are read on
    every call.
    """

    __slots__ = ("key", "flows", "path_links", "links", "classes",
                 "order", "duplicate")

    def __init__(self, flows: Sequence[Flow], key: List[object]) -> None:
        self.key = key
        self.flows = tuple(flows)
        self.path_links = [link for flow in flows for link in flow.links]
        # Links merge by equality, (src, dst), in first-seen order.
        index: Dict[Link, int] = {}
        self.links: List[Link] = []
        paths: List[List[int]] = []
        for flow in flows:
            path = []
            for link in flow.links:
                j = index.setdefault(link, len(self.links))
                if j == len(self.links):
                    self.links.append(link)
                path.append(j)
            paths.append(path)

        self.classes: List[_Class] = []
        self.order: List[int] = []
        for priority in sorted({f.priority for f in flows}, reverse=True):
            members = [
                i for i, flow in enumerate(flows) if flow.priority == priority
            ]
            # Each member once per link, however often its path lists it.
            by_link: List[List[int]] = [[] for _ in self.links]
            for i in members:
                for j in paths[i]:
                    incident = by_link[j]
                    if not incident or incident[-1] != i:
                        incident.append(i)
            crossed = [j for j, incident in enumerate(by_link) if incident]
            self.classes.append((
                members,
                [paths[i] for i in members],
                crossed,
                [by_link[j] for j in crossed],
            ))
            self.order += members

        self.duplicate: Optional[str] = None
        seen = set()
        for flow in flows:
            if flow.flow_id in seen:
                self.duplicate = flow.flow_id
                break
            seen.add(flow.flow_id)


class FluidAllocator:
    """Computes weighted max-min allocations with strict priorities.

    The allocator keeps the structure of its last non-empty call and
    reuses it for a call that passes the same ``Flow`` objects in the
    same order, each with the same ``flow_id``, priority and ``Link``
    objects (by identity) on its path: the phase simulator's
    progress ticks re-solve one flow set with new weights many times.
    """

    def __init__(self) -> None:
        self._structure: Optional[_Structure] = None

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
        hashing, not arithmetic, dominated them. The numbering, classes
        and incidence are rebuilt only when the flow set's structure
        changed (see the class docstring); capacities, weights and caps
        are read on every call.

        Raises:
            AllocationError: if a ``flow_id`` appears more than once, if
                a flow has neither a path nor a cap, or if a link ends up
                oversubscribed.
        """
        if not flows:
            return Allocation()

        key: List[object] = []
        for flow in flows:
            path = flow.links
            key += (id(flow), flow.flow_id, flow.priority, len(path))
            key += map(id, path)
        structure = self._structure
        if structure is None or structure.key != key:
            structure = self._structure = _Structure(flows, key)

        links = structure.links
        residual = [link.capacity for link in links]
        weights = [flow.weight for flow in flows]
        caps = [flow.rate_cap for flow in flows]
        rates = [0.0] * len(flows)
        for members, paths, crossed, incident_of in structure.classes:
            self._weighted_max_min(
                members, incident_of, [residual[j] for j in crossed],
                weights, caps, rates,
            )
            for i, path in zip(members, paths):
                rate = rates[i]
                # A path that lists a link twice subtracts twice. The
                # test is max(0.0, left), NaN and -0.0 included.
                for j in path:
                    left = residual[j] - rate
                    residual[j] = left if left > 0.0 else 0.0

        if structure.duplicate is not None:
            raise AllocationError(
                f"flow {structure.duplicate!r} appears more than once"
            )
        loads = []
        for link, left in zip(links, residual):
            capacity = link.capacity
            load = capacity - left
            if load > capacity * (1 + 1e-6):
                raise AllocationError(
                    f"link {link.name} oversubscribed: "
                    f"{load:.6g} > {capacity:.6g}"
                )
            loads.append(load)
        return Allocation(
            structure.flows, rates, structure.order, links, loads
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _weighted_max_min(
        active: List[int],
        incident_of: List[List[int]],
        remaining: List[float],
        weights: List[float],
        caps: List[Optional[float]],
        rates: List[float],
    ) -> None:
        """Progressive filling of one priority class, written into ``rates``.

        ``active`` lists the class's flows (indices into ``weights``,
        ``caps`` and ``rates``, whose entries for them start at 0);
        ``remaining`` holds the capacity left at the start of the class
        on each link some member crosses, and ``incident_of`` that
        link's members, in flow order. Every unfrozen flow grows at
        ``weight * theta``; at each step we find the smallest ``theta``
        increment that saturates a link or hits a flow's rate cap, freeze
        the affected flows, and repeat.

        A link takes part while some unfrozen flow crosses it: once none
        does it carries no active weight, so it can no longer bound the
        step or freeze a flow, and it is dropped. The per-link weight
        stays a ``sum()`` over the unfrozen incident flows in order:
        from Python 3.12 on ``sum()`` of floats is compensated, so a
        hand-written ``+=`` loop would round differently there.
        """
        # Saturation is relative to the residual at the start of the
        # class, not to the nominal capacity.
        saturated = [cap * _REL_EPS for cap in remaining]
        weight_at = weights.__getitem__
        # The cap checks walk only the flows that have a cap, in the
        # order of ``active``; no phase-tier flow has one.
        capped = (
            [i for i in active if caps[i] is not None]
            if caps.count(None) < len(caps) else []
        )
        while True:
            active_weight = [
                sum(map(weight_at, incident)) for incident in incident_of
            ]
            # Smallest theta increment that saturates some constraint.
            best_delta: Optional[float] = None
            for cap, weight in zip(remaining, active_weight):
                if weight <= 0:
                    continue
                delta = cap / weight
                if best_delta is None or delta < best_delta:
                    best_delta = delta
            for i in capped:
                delta = (caps[i] - rates[i]) / weights[i]
                if best_delta is None or delta < best_delta:
                    best_delta = delta
            if best_delta is None:
                # No active flow crosses any constrained link and none has
                # a cap: rates are unbounded in the fluid model, which means
                # the caller built flows with empty paths and no caps.
                raise AllocationError(
                    "flows without links must carry a rate_cap"
                )
            if best_delta < 0.0:
                best_delta = 0.0

            for i in active:
                rates[i] += weights[i] * best_delta

            # Freeze flows at their caps or on saturated links.
            newly_frozen: set[int] = set()
            for i in capped:
                cap = caps[i]
                if rates[i] >= cap * (1 - _REL_EPS):
                    rates[i] = min(rates[i], cap)
                    newly_frozen.add(i)
            left_over = []
            for cap, weight, floor, incident in zip(
                remaining, active_weight, saturated, incident_of
            ):
                cap -= best_delta * weight
                if not cap > 0.0:  # max(0.0, cap)
                    cap = 0.0
                left_over.append(cap)
                if cap <= floor:
                    newly_frozen.update(incident)
            if not newly_frozen or len(newly_frozen) == len(active):
                # Everything froze, or (numerical safety net) nothing
                # did and everything freezes rather than spin.
                return
            active = [i for i in active if i not in newly_frozen]
            if capped:
                capped = [i for i in capped if i not in newly_frozen]
            kept = []
            for cap, floor, incident in zip(left_over, saturated, incident_of):
                incident = [i for i in incident if i not in newly_frozen]
                if incident:
                    kept.append((cap, floor, incident))
            remaining = [cap for cap, _, _ in kept]
            saturated = [floor for _, floor, _ in kept]
            incident_of = [incident for _, _, incident in kept]
