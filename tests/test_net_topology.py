"""Topology tests: construction, lookups, builders, links as routes."""

import pytest

from repro.errors import TopologyError
from repro.net.routing import Router
from repro.net.topology import Link, NodeKind, Topology
from repro.units import gbps


class TestConstruction:
    def test_add_node(self):
        topo = Topology()
        node = topo.add_node("h0")
        assert node.kind is NodeKind.HOST
        assert topo.node("h0") is node

    def test_readd_same_kind_is_noop(self):
        topo = Topology()
        a = topo.add_node("h0")
        b = topo.add_node("h0")
        assert a is b

    def test_readd_different_kind_rejected(self):
        topo = Topology()
        topo.add_node("x", NodeKind.HOST)
        with pytest.raises(TopologyError):
            topo.add_node("x", NodeKind.TOR)

    def test_add_link_creates_both_directions(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", gbps(50))
        assert topo.has_link("a", "b")
        assert topo.has_link("b", "a")

    def test_unidirectional_link(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", gbps(50), bidirectional=False)
        assert topo.has_link("a", "b")
        assert not topo.has_link("b", "a")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_node("a")
        topo.add_node("b")
        topo.add_link("a", "b", gbps(1))
        with pytest.raises(TopologyError):
            topo.add_link("a", "b", gbps(1))

    def test_link_to_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(TopologyError):
            topo.add_link("a", "ghost", gbps(1))

    def test_zero_capacity_rejected(self):
        with pytest.raises(TopologyError):
            Link("a", "b", 0.0)

    def test_link_by_name(self):
        topo = Topology.dumbbell()
        link = topo.link_by_name("L1")
        assert (link.src, link.dst) == ("S0", "S1")

    def test_link_by_unknown_name(self):
        with pytest.raises(TopologyError):
            Topology.dumbbell().link_by_name("L99")

    def test_path_links(self):
        topo = Topology.dumbbell()
        links = topo.path_links(["ha0", "S0", "S1", "hb0"])
        assert [l.src for l in links] == ["ha0", "S0", "S1"]


class TestDumbbell:
    def test_shape(self):
        topo = Topology.dumbbell(hosts_per_side=3)
        hosts = topo.hosts()
        assert len(hosts) == 6
        assert topo.link("S0", "S1").name == "L1"

    def test_default_capacities_match_nic(self):
        topo = Topology.dumbbell(host_capacity=gbps(50))
        assert topo.link("ha0", "S0").capacity == pytest.approx(gbps(50))
        assert topo.link("S0", "S1").capacity == pytest.approx(gbps(50))

    def test_custom_bottleneck(self):
        topo = Topology.dumbbell(bottleneck_capacity=gbps(10))
        assert topo.link("S0", "S1").capacity == pytest.approx(gbps(10))

    def test_needs_hosts(self):
        with pytest.raises(TopologyError):
            Topology.dumbbell(hosts_per_side=0)


class TestSingleSwitch:
    def test_shape(self):
        topo = Topology.single_switch(4)
        assert len(topo.hosts()) == 4
        assert topo.has_link("h0", "tor0")

    def test_needs_hosts(self):
        with pytest.raises(TopologyError):
            Topology.single_switch(0)


class TestLeafSpine:
    def test_shape(self):
        topo = Topology.leaf_spine(n_racks=3, hosts_per_rack=2, n_spines=2)
        assert len(topo.hosts()) == 6
        # every ToR uplinks to every spine
        for rack in range(3):
            for spine in range(2):
                assert topo.has_link(f"tor{rack}", f"spine{spine}")

    def test_rack_of(self):
        topo = Topology.leaf_spine(n_racks=2, hosts_per_rack=2)
        assert topo.rack_of("h0_1") == "tor0"
        assert topo.rack_of("h1_0") == "tor1"

    def test_rack_of_non_host(self):
        topo = Topology.leaf_spine(n_racks=2, hosts_per_rack=2)
        assert topo.rack_of("tor0") is None

    def test_bad_dimensions(self):
        with pytest.raises(TopologyError):
            Topology.leaf_spine(n_racks=0, hosts_per_rack=2)


class TestFatTree:
    def test_shape(self):
        k = 4
        topo = Topology.fat_tree(k)
        assert len(topo.hosts()) == k**3 // 4
        cores = [n for n in topo.nodes if n.kind is NodeKind.CORE]
        tors = [n for n in topo.nodes if n.kind is NodeKind.TOR]
        spines = [n for n in topo.nodes if n.kind is NodeKind.SPINE]
        assert len(cores) == (k // 2) ** 2
        assert len(tors) == k * (k // 2)
        assert len(spines) == k * (k // 2)

    def test_named_uplinks_resolve(self):
        topo = Topology.fat_tree(4)
        up = topo.link_by_name("up_0_0_0")
        assert (up.src, up.dst) == ("edge0_0", "agg0_0")
        core = topo.link_by_name("core_1_1_2")
        assert (core.src, core.dst) == ("agg1_1", "core2")
        rev = topo.link_by_name("core_1_1_2_rev")
        assert (rev.src, rev.dst) == ("core2", "agg1_1")

    def test_rack_of_is_edge_switch(self):
        topo = Topology.fat_tree(4)
        assert topo.rack_of("h2_1_0") == "edge2_1"
        assert topo.rack_of("agg2_1") is None

    def test_tier_capacities(self):
        topo = Topology.fat_tree(
            4,
            host_capacity=gbps(50),
            uplink_capacity=gbps(40),
            core_capacity=gbps(30),
        )
        assert topo.link_by_name("h0_0_0->edge0_0").capacity == gbps(50)
        assert topo.link_by_name("up_0_0_0").capacity == gbps(40)
        assert topo.link_by_name("core_0_0_0").capacity == gbps(30)

    def test_odd_or_tiny_k_rejected(self):
        with pytest.raises(TopologyError):
            Topology.fat_tree(3)
        with pytest.raises(TopologyError):
            Topology.fat_tree(0)


class TestLinksAsRoutes:
    def test_every_link_is_a_one_hop_route(self):
        topo = Topology.dumbbell(hosts_per_side=2)
        assert len(topo.nodes) == 6
        # 4 host links + 1 bottleneck, both directions
        assert len(topo.links) == 10
        router = Router(topo)
        for link in topo.links:
            assert router.route(link.src, link.dst) == [link]

    def test_switch_to_switch_route_is_the_bottleneck(self):
        topo = Topology.dumbbell()
        (link,) = Router(topo).route("S0", "S1")
        assert link.name == "L1"
