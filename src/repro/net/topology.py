"""Network topology: nodes, directed links, and standard builders.

Links are directed and full-duplex: ``add_link`` creates one :class:`Link`
per direction. Capacities are in bytes/second (use :func:`repro.units.gbps`
at call sites). Builders cover the shapes used in the paper and its
evaluation context:

* :meth:`Topology.dumbbell` — the Figure 1 testbed shape: two groups of
  hosts whose traffic shares one bottleneck link ``L1``.
* :meth:`Topology.single_switch` — a rack: N hosts under one ToR.
* :meth:`Topology.leaf_spine` — a multi-rack cluster for the scheduler
  experiments, with configurable oversubscription.
* :meth:`Topology.fat_tree` — a three-tier k-ary fat tree with named
  edge/agg/core uplinks, the shape for cluster-scale multi-link runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import TopologyError
from ..units import gbps

#: Name of the shared bottleneck link in generated dumbbells — the
#: paper's ``L1`` (Figure 1). The single home for this constant; the
#: runner backends and the experiment helpers both import it.
BOTTLENECK = "L1"


class NodeKind(enum.Enum):
    """Role of a node in the cluster fabric."""

    HOST = "host"
    TOR = "tor"
    SPINE = "spine"
    CORE = "core"


@dataclass(frozen=True)
class Node:
    """A vertex in the topology."""

    name: str
    kind: NodeKind

    def __str__(self) -> str:
        return self.name


@dataclass
class Link:
    """A directed link with a fixed capacity.

    Attributes:
        src: Name of the transmitting node.
        dst: Name of the receiving node.
        capacity: Capacity in bytes/second.
        name: Stable identifier, e.g. ``"L1"`` for the paper's bottleneck.
    """

    src: str
    dst: str
    capacity: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise TopologyError(
                f"link {self.src}->{self.dst} needs positive capacity, "
                f"got {self.capacity}"
            )
        if not self.name:
            self.name = f"{self.src}->{self.dst}"

    def __hash__(self) -> int:
        return hash((self.src, self.dst))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Link):
            return NotImplemented
        return (self.src, self.dst) == (other.src, other.dst)

    def __repr__(self) -> str:
        return f"Link({self.name}, {self.capacity:.3g} B/s)"


class Topology:
    """A directed network of named nodes and capacity-labelled links."""

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._rack_cache: Optional[Dict[str, str]] = None
        self._links_by_name: Dict[str, Link] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, name: str, kind: NodeKind = NodeKind.HOST) -> Node:
        """Add a node; re-adding the same name with the same kind is a no-op."""
        existing = self._nodes.get(name)
        if existing is not None:
            if existing.kind is not kind:
                raise TopologyError(
                    f"node {name!r} already exists with kind {existing.kind}"
                )
            return existing
        node = Node(name, kind)
        self._nodes[name] = node
        return node

    def add_link(
        self,
        a: str,
        b: str,
        capacity: float,
        name: str = "",
        bidirectional: bool = True,
    ) -> Link:
        """Connect ``a`` and ``b``; returns the ``a -> b`` direction.

        With ``bidirectional`` (the default) the reverse direction is added
        with the same capacity, modelling a full-duplex cable.
        """
        for endpoint in (a, b):
            if endpoint not in self._nodes:
                raise TopologyError(f"unknown node {endpoint!r}")
        if (a, b) in self._links:
            raise TopologyError(f"duplicate link {a}->{b}")
        forward = Link(a, b, capacity, name=name)
        reverse: Optional[Link] = None
        if bidirectional and (b, a) not in self._links:
            reverse_name = f"{name}_rev" if name else ""
            reverse = Link(b, a, capacity, name=reverse_name)
        for link in (forward, reverse):
            if link is not None and link.name in self._links_by_name:
                raise TopologyError(f"duplicate link name {link.name!r}")
        self._links[(a, b)] = forward
        self._links_by_name[forward.name] = forward
        if reverse is not None:
            self._links[(b, a)] = reverse
            self._links_by_name[reverse.name] = reverse
        self._rack_cache = None
        return forward

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def link(self, src: str, dst: str) -> Link:
        """Look up the directed link ``src -> dst``."""
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise TopologyError(f"no link {src}->{dst}") from None

    def link_by_name(self, name: str) -> Link:
        """Look up a link by its stable name (e.g. ``"L1"``).

        O(1): ``add_link`` maintains a name index (and rejects duplicate
        names, so the mapping is unambiguous), mirroring the ``rack_of``
        memoization.
        """
        try:
            return self._links_by_name[name]
        except KeyError:
            raise TopologyError(f"no link named {name!r}") from None

    def has_link(self, src: str, dst: str) -> bool:
        """Whether the directed link ``src -> dst`` exists."""
        return (src, dst) in self._links

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def links(self) -> List[Link]:
        """All directed links, in insertion order."""
        return list(self._links.values())

    def hosts(self) -> List[Node]:
        """All nodes of kind HOST."""
        return [n for n in self._nodes.values() if n.kind is NodeKind.HOST]

    def path_links(self, path: Iterable[str]) -> List[Link]:
        """Convert a node path into the list of directed links along it."""
        path = list(path)
        return [self.link(u, v) for u, v in zip(path, path[1:])]

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def dumbbell(
        cls,
        hosts_per_side: int = 2,
        host_capacity: float = gbps(50),
        bottleneck_capacity: Optional[float] = None,
        bottleneck_name: str = BOTTLENECK,
    ) -> "Topology":
        """The Figure 1 testbed shape.

        ``hosts_per_side`` hosts hang off each of two switches ``S0`` and
        ``S1``; the inter-switch link (named ``L1`` by default) is the
        shared bottleneck. Host NIC links default to 50 Gbps, matching the
        paper's ConnectX-5 NICs; the bottleneck defaults to the same rate so
        that two senders crossing it must share.
        """
        if hosts_per_side < 1:
            raise TopologyError("dumbbell needs at least one host per side")
        topo = cls()
        topo.add_node("S0", NodeKind.TOR)
        topo.add_node("S1", NodeKind.TOR)
        if bottleneck_capacity is None:
            bottleneck_capacity = host_capacity
        topo.add_link("S0", "S1", bottleneck_capacity, name=bottleneck_name)
        for side, switch in (("a", "S0"), ("b", "S1")):
            for index in range(hosts_per_side):
                host = f"h{side}{index}"
                topo.add_node(host, NodeKind.HOST)
                topo.add_link(host, switch, host_capacity)
        return topo

    @classmethod
    def single_switch(
        cls,
        n_hosts: int,
        host_capacity: float = gbps(50),
        switch_name: str = "tor0",
    ) -> "Topology":
        """N hosts under a single ToR switch."""
        if n_hosts < 1:
            raise TopologyError("need at least one host")
        topo = cls()
        topo.add_node(switch_name, NodeKind.TOR)
        for index in range(n_hosts):
            host = f"h{index}"
            topo.add_node(host, NodeKind.HOST)
            topo.add_link(host, switch_name, host_capacity)
        return topo

    @classmethod
    def leaf_spine(
        cls,
        n_racks: int,
        hosts_per_rack: int,
        n_spines: int = 2,
        host_capacity: float = gbps(50),
        uplink_capacity: Optional[float] = None,
    ) -> "Topology":
        """A two-tier leaf-spine cluster.

        Every ToR connects to every spine. ``uplink_capacity`` defaults to
        ``host_capacity``, giving an oversubscription ratio of
        ``hosts_per_rack / n_spines`` — cross-rack contention is the point
        of the scheduler experiments.
        """
        if n_racks < 1 or hosts_per_rack < 1 or n_spines < 1:
            raise TopologyError("leaf_spine dimensions must be positive")
        if uplink_capacity is None:
            uplink_capacity = host_capacity
        topo = cls()
        for spine_index in range(n_spines):
            topo.add_node(f"spine{spine_index}", NodeKind.SPINE)
        for rack in range(n_racks):
            tor = f"tor{rack}"
            topo.add_node(tor, NodeKind.TOR)
            for spine_index in range(n_spines):
                topo.add_link(
                    tor,
                    f"spine{spine_index}",
                    uplink_capacity,
                    name=f"up_{rack}_{spine_index}",
                )
            for host_index in range(hosts_per_rack):
                host = f"h{rack}_{host_index}"
                topo.add_node(host, NodeKind.HOST)
                topo.add_link(host, tor, host_capacity)
        return topo

    @classmethod
    def fat_tree(
        cls,
        k: int,
        host_capacity: float = gbps(50),
        uplink_capacity: Optional[float] = None,
        core_capacity: Optional[float] = None,
    ) -> "Topology":
        """A three-tier k-ary fat tree (Al-Fares et al.).

        ``k`` pods, each with ``k/2`` edge (ToR) and ``k/2`` aggregation
        switches; ``(k/2)**2`` core switches; ``k/2`` hosts per edge switch
        — ``k**3/4`` hosts total. Aggregation switch ``a`` of every pod
        connects to core switches ``a*k/2 .. (a+1)*k/2 - 1``, so ECMP over
        shortest paths spreads inter-pod traffic across the core.

        Naming: hosts ``h{pod}_{edge}_{i}``, edge switches
        ``edge{pod}_{e}`` (rack granularity for placement), aggregation
        switches ``agg{pod}_{a}``, cores ``core{c}``. Uplinks carry stable
        names — ``up_{pod}_{e}_{a}`` for edge->agg and ``core_{pod}_{a}_{c}``
        for agg->core — so fault schedules and per-link audits can target
        any tier. ``uplink_capacity`` and ``core_capacity`` default to
        ``host_capacity`` (non-blocking at equal rates; lower them to model
        oversubscription).
        """
        if k < 2 or k % 2 != 0:
            raise TopologyError(f"fat_tree needs an even k >= 2, got {k}")
        if uplink_capacity is None:
            uplink_capacity = host_capacity
        if core_capacity is None:
            core_capacity = uplink_capacity
        half = k // 2
        topo = cls()
        for core in range(half * half):
            topo.add_node(f"core{core}", NodeKind.CORE)
        for pod in range(k):
            for agg in range(half):
                topo.add_node(f"agg{pod}_{agg}", NodeKind.SPINE)
                for port in range(half):
                    core = agg * half + port
                    topo.add_link(
                        f"agg{pod}_{agg}",
                        f"core{core}",
                        core_capacity,
                        name=f"core_{pod}_{agg}_{core}",
                    )
            for edge in range(half):
                tor = f"edge{pod}_{edge}"
                topo.add_node(tor, NodeKind.TOR)
                for agg in range(half):
                    topo.add_link(
                        tor,
                        f"agg{pod}_{agg}",
                        uplink_capacity,
                        name=f"up_{pod}_{edge}_{agg}",
                    )
                for index in range(half):
                    host = f"h{pod}_{edge}_{index}"
                    topo.add_node(host, NodeKind.HOST)
                    topo.add_link(host, tor, host_capacity)
        return topo

    def rack_of(self, host: str) -> Optional[str]:
        """Return the ToR a host attaches to, or ``None``.

        Memoized: placement policies call this for every host on every
        decision, and a linear link scan per call dominates large-fabric
        runs. ``add_link`` invalidates the cache.
        """
        node = self.node(host)
        if node.kind is not NodeKind.HOST:
            return None
        cache = self._rack_cache
        if cache is None:
            cache = {}
            for (src, dst) in self._links:
                if (
                    self._nodes[src].kind is NodeKind.HOST
                    and self._nodes[dst].kind is NodeKind.TOR
                ):
                    cache.setdefault(src, dst)
            self._rack_cache = cache
        return cache.get(host)
