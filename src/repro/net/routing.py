"""Routing: shortest-path and ECMP route selection.

The paper's placement discussion (§4) notes that the scheduler must learn
network routes ("e.g. ECMP routing decisions") before it can reason about
which jobs share which links. :class:`EcmpRouter` models switch-style ECMP:
among all shortest paths it picks one by a deterministic hash of the flow
five-tuple surrogate ``(src, dst, flow_label)``, so the same flow is always
routed the same way, while different flows spread across equal-cost paths.

Both routers search the topology's own links breadth-first. Where several
shortest paths tie, :class:`Router` takes the one its bidirectional search
meets first (see :meth:`Router._shortest_path`).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import RoutingError
from .topology import Link, Topology


class Router:
    """Deterministic single-shortest-path routing.

    At construction the router lists each node's successors and
    predecessors in link-insertion order; it routes over that snapshot,
    so links added to the topology later are not seen.
    """

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._successors: Dict[str, List[str]] = {
            node.name: [] for node in topology.nodes
        }
        self._predecessors: Dict[str, List[str]] = {
            name: [] for name in self._successors
        }
        for link in topology.links:
            self._successors[link.src].append(link.dst)
            self._predecessors[link.dst].append(link.src)
        self._path_cache: Dict[Tuple[str, str], List[str]] = {}

    @property
    def topology(self) -> Topology:
        """The topology this router routes over."""
        return self._topology

    def route(self, src: str, dst: str, flow_label: str = "") -> List[Link]:
        """Return the links along the route from ``src`` to ``dst``.

        Raises:
            RoutingError: if no path exists.
        """
        return self._topology.path_links(self.node_path(src, dst, flow_label))

    def node_path(self, src: str, dst: str, flow_label: str = "") -> List[str]:
        """Return the node sequence of the route (see :meth:`route`)."""
        key = (src, dst)
        if key not in self._path_cache:
            self._path_cache[key] = self._shortest_path(src, dst)
        return self._path_cache[key]

    def _check_nodes(self, src: str, dst: str) -> None:
        if src not in self._successors or dst not in self._successors:
            raise RoutingError(f"no route {src} -> {dst}: unknown node")

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """One shortest path by a bidirectional breadth-first search.

        Each round expands the smaller fringe by one level, the forward
        one on a tie, scanning neighbours in link-insertion order, and
        the search stops at the first node reached from both sides; the
        path joins the two parent chains through it. That rule decides
        which of several shortest paths is taken, and
        ``tests/expected/routes.json`` pins its choices.
        """
        self._check_nodes(src, dst)
        if src == dst:
            return [src]
        # Parent of each node on its side: toward src, and toward dst.
        forward: Dict[str, Optional[str]] = {src: None}
        reverse: Dict[str, Optional[str]] = {dst: None}
        forward_fringe, reverse_fringe = [src], [dst]
        meet: Optional[str] = None
        while meet is None and forward_fringe and reverse_fringe:
            if len(forward_fringe) <= len(reverse_fringe):
                forward_fringe, meet = _expand(
                    forward_fringe, self._successors, forward, reverse
                )
            else:
                reverse_fringe, meet = _expand(
                    reverse_fringe, self._predecessors, reverse, forward
                )
        if meet is None:
            raise RoutingError(f"no route {src} -> {dst}")
        path: List[str] = []
        node: Optional[str] = meet
        while node is not None:
            path.append(node)
            node = forward[node]
        path.reverse()
        node = reverse[meet]
        while node is not None:
            path.append(node)
            node = reverse[node]
        return path


class EcmpRouter(Router):
    """Equal-cost multipath routing with deterministic flow hashing."""

    def __init__(self, topology: Topology, salt: int = 0) -> None:
        super().__init__(topology)
        self._salt = salt
        self._ecmp_cache: Dict[Tuple[str, str], List[List[str]]] = {}

    def equal_cost_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest node paths between ``src`` and ``dst``, sorted."""
        key = (src, dst)
        if key not in self._ecmp_cache:
            self._check_nodes(src, dst)
            # Hop distances from src, level by level until dst's level.
            hops = {src: 0}
            fringe = [src]
            while fringe and dst not in hops:
                level, fringe = fringe, []
                for node in level:
                    for successor in self._successors[node]:
                        if successor not in hops:
                            hops[successor] = hops[node] + 1
                            fringe.append(successor)
            if dst not in hops:
                raise RoutingError(f"no route {src} -> {dst}")
            # Every path back from dst over predecessors one hop nearer.
            paths: List[List[str]] = []
            partials = [[dst]]
            while partials:
                partial = partials.pop()
                head = partial[-1]
                if head == src:
                    paths.append(partial[::-1])
                    continue
                for predecessor in self._predecessors[head]:
                    if hops.get(predecessor) == hops[head] - 1:
                        partials.append(partial + [predecessor])
            self._ecmp_cache[key] = sorted(paths)
        return self._ecmp_cache[key]

    def node_path(self, src: str, dst: str, flow_label: str = "") -> List[str]:
        """Pick one equal-cost path by hashing the flow identity."""
        paths = self.equal_cost_paths(src, dst)
        if len(paths) == 1:
            return paths[0]
        digest = hashlib.sha256(
            f"{self._salt}|{src}|{dst}|{flow_label}".encode("utf-8")
        ).digest()
        index = int.from_bytes(digest[:8], "little") % len(paths)
        return paths[index]


def _expand(
    fringe: List[str],
    neighbours: Dict[str, List[str]],
    parents: Dict[str, Optional[str]],
    other_side: Dict[str, Optional[str]],
) -> Tuple[List[str], Optional[str]]:
    """Expand one side of :meth:`Router._shortest_path` by one level.

    Records each newly reached node's parent in ``parents`` and returns
    the next fringe with the first neighbour scanned that ``other_side``
    has reached, or ``None``.
    """
    next_fringe: List[str] = []
    for node in fringe:
        for neighbour in neighbours[node]:
            if neighbour not in parents:
                parents[neighbour] = node
                next_fringe.append(neighbour)
            if neighbour in other_side:
                return next_fringe, neighbour
    return next_fringe, None


def links_shared_by(
    router: Router,
    endpoints: Sequence[Tuple[str, str, str]],
) -> Dict[Link, List[int]]:
    """Map each link to the indices of the flows routed over it.

    Args:
        router: Router used to resolve each flow's path.
        endpoints: ``(src, dst, flow_label)`` triples, one per flow.

    Returns:
        ``{link: [flow indices]}`` including only links carrying >= 1 flow.
    """
    sharing: Dict[Link, List[int]] = {}
    for index, (src, dst, label) in enumerate(endpoints):
        for link in router.route(src, dst, label):
            sharing.setdefault(link, []).append(index)
    return sharing
