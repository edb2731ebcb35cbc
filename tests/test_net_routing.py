"""Routing tests: shortest path and ECMP determinism."""

import pytest

from repro.errors import RoutingError
from repro.net.routing import EcmpRouter, Router
from repro.net.topology import Topology
from repro.units import gbps


@pytest.fixture
def leaf_spine():
    return Topology.leaf_spine(n_racks=2, hosts_per_rack=2, n_spines=2)


class TestRouter:
    def test_route_through_bottleneck(self):
        topo = Topology.dumbbell()
        router = Router(topo)
        names = [l.name for l in router.route("ha0", "hb0")]
        assert "L1" in names

    def test_same_rack_route_stays_local(self, leaf_spine):
        router = Router(leaf_spine)
        path = router.node_path("h0_0", "h0_1")
        assert path == ["h0_0", "tor0", "h0_1"]

    def test_no_route_raises(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        with pytest.raises(RoutingError):
            Router(topo).route("a", "b")

    def test_unknown_node_raises(self):
        topo = Topology.dumbbell()
        with pytest.raises(RoutingError):
            Router(topo).route("ha0", "ghost")

    def test_route_is_cached_and_stable(self, leaf_spine):
        router = Router(leaf_spine)
        assert router.node_path("h0_0", "h1_0") == router.node_path(
            "h0_0", "h1_0"
        )


class TestEcmp:
    def test_equal_cost_paths_found(self, leaf_spine):
        router = EcmpRouter(leaf_spine)
        paths = router.equal_cost_paths("h0_0", "h1_0")
        assert len(paths) == 2  # one per spine

    def test_flow_pinning_is_deterministic(self, leaf_spine):
        a = EcmpRouter(leaf_spine)
        b = EcmpRouter(leaf_spine)
        assert a.node_path("h0_0", "h1_0", "flow1") == b.node_path(
            "h0_0", "h1_0", "flow1"
        )

    def test_different_flows_can_take_different_paths(self, leaf_spine):
        router = EcmpRouter(leaf_spine)
        paths = {
            tuple(router.node_path("h0_0", "h1_0", f"flow{i}"))
            for i in range(32)
        }
        assert len(paths) == 2  # both spines get used across many flows

    def test_salt_changes_hashing(self, leaf_spine):
        paths_a = [
            tuple(EcmpRouter(leaf_spine, salt=0).node_path(
                "h0_0", "h1_0", f"f{i}"))
            for i in range(16)
        ]
        paths_b = [
            tuple(EcmpRouter(leaf_spine, salt=1).node_path(
                "h0_0", "h1_0", f"f{i}"))
            for i in range(16)
        ]
        assert paths_a != paths_b

    def test_single_path_shortcut(self):
        topo = Topology.dumbbell()
        router = EcmpRouter(topo)
        assert router.node_path("ha0", "hb0") == [
            "ha0", "S0", "S1", "hb0"
        ]
