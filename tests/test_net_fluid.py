"""Fluid-allocator tests: max-min, weights, priorities, caps, invariants."""

import random
from collections import Counter

import pytest

from repro.cc.adaptive import AdaptiveUnfair
from repro.errors import AllocationError, ConfigError
from repro.net import fluid
from repro.net.flows import Flow
from repro.net.fluid import _REL_EPS, Allocation, FluidAllocator
from repro.net.phasesim import PhaseLevelSimulator
from repro.net.topology import Link, Topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


def _link(name="L1", capacity=gbps(42)):
    return Link("a", "b", capacity, name=name)


def _flow(fid, links, weight=1.0, priority=0, cap=None):
    return Flow(
        flow_id=fid, src="s", dst="d", links=links,
        weight=weight, priority=priority, rate_cap=cap, job_id=fid,
    )


class TestFairSharing:
    def test_two_flows_split_evenly(self):
        link = _link()
        alloc = FluidAllocator().allocate(
            [_flow("f1", [link]), _flow("f2", [link])]
        )
        assert alloc.rates[_flow("f1", [link])] == pytest.approx(
            link.capacity / 2
        )
        assert alloc.utilization(link) == pytest.approx(1.0)

    def test_single_flow_takes_all(self):
        link = _link()
        f = _flow("f", [link])
        alloc = FluidAllocator().allocate([f])
        assert alloc.rate_of(f) == pytest.approx(link.capacity)

    def test_n_flows_equal_shares(self):
        link = _link()
        flows = [_flow(f"f{i}", [link]) for i in range(7)]
        alloc = FluidAllocator().allocate(flows)
        for f in flows:
            assert alloc.rate_of(f) == pytest.approx(link.capacity / 7)

    def test_empty_allocation(self):
        alloc = FluidAllocator().allocate([])
        assert alloc.rates == {}


class TestWeights:
    def test_two_to_one_split(self):
        link = _link()
        f1 = _flow("f1", [link], weight=2.0)
        f2 = _flow("f2", [link], weight=1.0)
        alloc = FluidAllocator().allocate([f1, f2])
        assert alloc.rate_of(f1) == pytest.approx(link.capacity * 2 / 3)
        assert alloc.rate_of(f2) == pytest.approx(link.capacity / 3)

    def test_weight_only_matters_on_shared_links(self):
        shared = _link("L1")
        private = Link("b", "c", gbps(10), name="L2")
        f1 = _flow("f1", [shared, private], weight=100.0)
        f2 = _flow("f2", [shared], weight=1.0)
        alloc = FluidAllocator().allocate([f1, f2])
        # f1 is capped by its private 10 Gbps link; f2 soaks up the rest.
        assert alloc.rate_of(f1) == pytest.approx(gbps(10))
        assert alloc.rate_of(f2) == pytest.approx(gbps(32))


class TestRateCaps:
    def test_cap_respected(self):
        link = _link()
        f = _flow("f", [link], cap=gbps(5))
        alloc = FluidAllocator().allocate([f])
        assert alloc.rate_of(f) == pytest.approx(gbps(5))

    def test_capped_flow_releases_bandwidth(self):
        link = _link()
        f1 = _flow("f1", [link], cap=gbps(2))
        f2 = _flow("f2", [link])
        alloc = FluidAllocator().allocate([f1, f2])
        assert alloc.rate_of(f1) == pytest.approx(gbps(2))
        assert alloc.rate_of(f2) == pytest.approx(gbps(40))

    def test_pathless_flow_needs_cap(self):
        f = _flow("f", [], cap=gbps(3))
        alloc = FluidAllocator().allocate([f])
        assert alloc.rate_of(f) == pytest.approx(gbps(3))

    def test_pathless_uncapped_rejected(self):
        with pytest.raises(AllocationError):
            FluidAllocator().allocate([_flow("f", [])])


class TestPriorities:
    def test_strict_priority_starves_lower_class(self):
        link = _link()
        high = _flow("high", [link], priority=2)
        low = _flow("low", [link], priority=1)
        alloc = FluidAllocator().allocate([high, low])
        assert alloc.rate_of(high) == pytest.approx(link.capacity)
        assert alloc.rate_of(low) == pytest.approx(0.0)

    def test_lower_class_gets_leftovers(self):
        link = _link()
        high = _flow("high", [link], priority=2, cap=gbps(10))
        low = _flow("low", [link], priority=1)
        alloc = FluidAllocator().allocate([high, low])
        assert alloc.rate_of(low) == pytest.approx(gbps(32))

    def test_within_class_weighted(self):
        link = _link()
        a = _flow("a", [link], priority=1, weight=3.0)
        b = _flow("b", [link], priority=1, weight=1.0)
        alloc = FluidAllocator().allocate([a, b])
        assert alloc.rate_of(a) == pytest.approx(link.capacity * 0.75)


class TestMultiLink:
    def test_bottleneck_is_binding(self):
        wide = Link("a", "b", gbps(100), name="wide")
        narrow = Link("b", "c", gbps(10), name="narrow")
        f = _flow("f", [wide, narrow])
        alloc = FluidAllocator().allocate([f])
        assert alloc.rate_of(f) == pytest.approx(gbps(10))

    def test_max_min_across_links(self):
        # Classic 3-flow example: f1 spans both links, f2 and f3 use one
        # link each. Max-min: f1 = f2 = f3 = C/2.
        l1 = Link("a", "b", gbps(10), name="l1")
        l2 = Link("b", "c", gbps(10), name="l2")
        f1 = _flow("f1", [l1, l2])
        f2 = _flow("f2", [l1])
        f3 = _flow("f3", [l2])
        alloc = FluidAllocator().allocate([f1, f2, f3])
        assert alloc.rate_of(f1) == pytest.approx(gbps(5))
        assert alloc.rate_of(f2) == pytest.approx(gbps(5))
        assert alloc.rate_of(f3) == pytest.approx(gbps(5))

    def test_asymmetric_capacities(self):
        l1 = Link("a", "b", gbps(10), name="l1")
        l2 = Link("b", "c", gbps(30), name="l2")
        f1 = _flow("f1", [l1, l2])
        f2 = _flow("f2", [l2])
        alloc = FluidAllocator().allocate([f1, f2])
        # f1 limited to 10 by l1; f2 takes the remaining 20 on l2.
        assert alloc.rate_of(f1) == pytest.approx(gbps(10))
        assert alloc.rate_of(f2) == pytest.approx(gbps(20))

    def test_no_link_oversubscribed(self):
        link = _link()
        flows = [
            _flow(f"f{i}", [link], weight=float(i + 1)) for i in range(5)
        ]
        alloc = FluidAllocator().allocate(flows)
        assert alloc.link_loads[link] <= link.capacity * (1 + 1e-9)


class TestFlowValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ConfigError):
            Flow(flow_id="f", src="a", dst="b", weight=0.0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_nonfinite_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="finite"):
            Flow(flow_id="f", src="a", dst="b", weight=weight)

    def test_bad_progress_rejected(self):
        with pytest.raises(ConfigError):
            Flow(flow_id="f", src="a", dst="b", progress=1.5)

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            Flow(flow_id="f", src="a", dst="b", rate_cap=0.0)

    def test_flow_identity_by_id(self):
        a = Flow(flow_id="f", src="a", dst="b")
        b = Flow(flow_id="f", src="x", dst="y")
        assert a == b
        assert hash(a) == hash(b)

    def test_traverses(self):
        link = _link()
        f = _flow("f", [link])
        assert f.traverses(link)
        assert not f.traverses(Link("x", "y", 1.0, name="other"))


class TestDuplicateFlows:
    """A repeated ``flow_id`` is rejected, not folded into one rate."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda link: [_flow("f", [link])] * 2,
            lambda link: [
                _flow("f", [link], weight=1.0),
                _flow("f", [link], weight=2.0),
            ],
            lambda link: [
                _flow("g", [link]),
                _flow("f", [link], priority=1),
                _flow("f", [link], priority=0),
            ],
        ],
        ids=["same-object", "equal-ids", "across-classes"],
    )
    def test_repeated_flow_id_rejected(self, make):
        link = Link("a", "b", 100.0, name="L1")
        with pytest.raises(AllocationError, match="flow 'f' appears more"):
            FluidAllocator().allocate(make(link))


class TestFabricIncidence:
    """Multi-hop paths on fat-tree-shaped incidence (ISSUE 9 satellite)."""

    def _fabric_flows(self):
        from repro.net.routing import Router
        from repro.net.topology import Topology

        topo = Topology.fat_tree(4, host_capacity=gbps(50))
        router = Router(topo)
        pairs = [
            ("f0", "h0_0_0", "h1_0_0"),
            ("f1", "h0_0_1", "h1_0_1"),
            ("f2", "h2_0_0", "h1_1_0"),
            ("f3", "h0_1_0", "h0_0_0"),
        ]
        flows = []
        for fid, src, dst in pairs:
            links = list(router.route(src, dst))
            flows.append(
                Flow(flow_id=fid, src=src, dst=dst, links=links,
                     job_id=fid)
            )
        return topo, flows

    def test_six_hop_paths_allocate(self):
        topo, flows = self._fabric_flows()
        alloc = FluidAllocator().allocate(flows)
        assert len(alloc.rates) == len(flows)
        assert all(rate > 0 for rate in alloc.rates.values())

    def test_no_fabric_link_oversubscribed(self):
        topo, flows = self._fabric_flows()
        alloc = FluidAllocator().allocate(flows)
        for link, load in alloc.link_loads.items():
            assert load <= link.capacity * (1 + 1e-9), link.name

    def test_shared_uplink_bottleneck(self):
        # f0 and f1 leave the same rack; the single-shortest-path router
        # sends both up the same edge->agg uplink, so they split it.
        topo, flows = self._fabric_flows()
        alloc = FluidAllocator().allocate(flows[:2])
        up = topo.link_by_name("up_0_0_0")
        assert alloc.link_loads[up] == pytest.approx(up.capacity)
        assert alloc.rate_of(flows[0]) == pytest.approx(up.capacity / 2)

    def test_strict_priority_with_midpath_cap(self):
        # High class capped mid-path: the low class must soak up the
        # remainder on the shared link, not be starved to zero.
        shared = Link("a", "b", gbps(40), name="shared")
        tail = Link("b", "c", gbps(10), name="tail")
        hi = _flow("hi", [shared, tail], priority=2)
        lo = _flow("lo", [shared], priority=1)
        alloc = FluidAllocator().allocate([hi, lo])
        assert alloc.rate_of(hi) == pytest.approx(gbps(10))
        assert alloc.rate_of(lo) == pytest.approx(gbps(30))

    def test_zero_capacity_link_freezes_incident_flows(self):
        # A failed (zero-capacity) fabric link pins its flows at zero
        # without starving flows elsewhere.
        dead = Link("a", "b", gbps(10), name="dead")
        dead.capacity = 0.0
        live = Link("c", "d", gbps(10), name="live")
        f_dead = _flow("fd", [dead])
        f_live = _flow("fl", [live])
        alloc = FluidAllocator().allocate([f_dead, f_live])
        assert alloc.rate_of(f_dead) == 0.0
        assert alloc.rate_of(f_live) == pytest.approx(gbps(10))


# ----------------------------------------------------------------------
# Exact oracle: the dict-keyed progressive filling
# ----------------------------------------------------------------------


def _reference_allocate(flows):
    """The dict-keyed fill that ``FluidAllocator.allocate`` must match.

    Residuals, remaining capacities, incidence and active weights are
    keyed by ``Link`` (merged by ``(src, dst)`` equality, first-seen
    order and capacity), and rates by ``Flow``. The allocator fills over
    dense link indices instead; every rate, link load, key order and
    error message must come out identical, bit for bit. The one
    intended difference: this fill folds a repeated ``flow_id`` into
    one rate, which the allocator rejects, so corpus ids are unique.
    """
    allocation = Allocation()
    if not flows:
        return allocation

    residual = {}
    for flow in flows:
        for link in flow.links:
            residual.setdefault(link, link.capacity)

    for priority in sorted({f.priority for f in flows}, reverse=True):
        class_flows = [f for f in flows if f.priority == priority]
        class_rates = _reference_weighted_max_min(class_flows, residual)
        for flow, rate in class_rates.items():
            allocation.rates[flow] = rate
            for link in flow.links:
                residual[link] = max(0.0, residual[link] - rate)

    for link in residual:
        allocation.link_loads[link] = link.capacity - residual[link]
    for link, load in allocation.link_loads.items():
        if load > link.capacity * (1 + 1e-6):
            raise AllocationError(
                f"link {link.name} oversubscribed: "
                f"{load:.6g} > {link.capacity:.6g}"
            )
    return allocation


def _reference_weighted_max_min(flows, capacities):
    """Progressive filling of one priority class, keyed by link."""
    rates = {flow: 0.0 for flow in flows}
    remaining = {link: cap for link, cap in capacities.items()}

    incident = {link: [] for link in remaining}
    for index, flow in enumerate(flows):
        on_path = set()
        for link in flow.links:
            if link in incident and link not in on_path:
                incident[link].append(index)
                on_path.add(link)

    frozen = [False] * len(flows)
    n_frozen = 0
    while n_frozen < len(flows):
        active = [i for i in range(len(flows)) if not frozen[i]]
        active_weight = {}
        for link in remaining:
            active_weight[link] = sum(
                flows[i].weight for i in incident[link] if not frozen[i]
            )
        best_delta = None
        for link, cap in remaining.items():
            weight = active_weight[link]
            if weight <= 0:
                continue
            delta = cap / weight
            if best_delta is None or delta < best_delta:
                best_delta = delta
        for i in active:
            flow = flows[i]
            if flow.rate_cap is None:
                continue
            headroom = flow.rate_cap - rates[flow]
            delta = headroom / flow.weight
            if best_delta is None or delta < best_delta:
                best_delta = delta
        if best_delta is None:
            raise AllocationError("flows without links must carry a rate_cap")
        best_delta = max(best_delta, 0.0)

        for i in active:
            rates[flows[i]] += flows[i].weight * best_delta
        for link in remaining:
            used = best_delta * active_weight[link]
            remaining[link] = max(0.0, remaining[link] - used)

        newly_frozen = set()
        for i in active:
            flow = flows[i]
            if flow.rate_cap is not None and (
                rates[flow] >= flow.rate_cap * (1 - _REL_EPS)
            ):
                rates[flow] = min(rates[flow], flow.rate_cap)
                newly_frozen.add(i)
        for link, cap in remaining.items():
            if cap <= capacities[link] * _REL_EPS:
                for i in incident[link]:
                    if not frozen[i]:
                        newly_frozen.add(i)
        if not newly_frozen:
            newly_frozen = set(active)
        for i in sorted(newly_frozen):
            frozen[i] = True
        n_frozen += len(newly_frozen)
    return rates


#: Capacities drawn for corpus links: shared values make ties and equal
#: splits common; ``None`` draws a random one.
_CAPACITIES = (gbps(10), gbps(25), gbps(42), 100.0, 3.0, None)

#: Weights drawn for corpus flows; ``None`` draws a random one.
_WEIGHTS = (1.0, 1.0, 2.0, 0.5, 3.0, None)


def _corpus_case(rng):
    """One random allocation input.

    A handful of nodes keeps endpoint collisions frequent, so distinct
    ``Link`` objects with equal endpoints (and different capacities)
    share paths. Paths may list a link twice, some links are failed
    (capacity 0) and a few have a negative capacity, which only the
    oversubscription check catches. Flows fall into 1-3 priority
    classes; some carry binding caps and some have no path (capped, or
    rarely uncapped, which is an error).
    """
    nodes = [f"n{i}" for i in range(rng.randint(2, 4))]
    pool = []
    for index in range(rng.randint(1, 8)):
        capacity = rng.choice(_CAPACITIES) or rng.uniform(1.0, 1e3)
        link = Link(
            rng.choice(nodes), rng.choice(nodes), capacity, name=f"l{index}"
        )
        draw = rng.random()
        if draw < 0.08:
            link.capacity = 0.0
        elif draw < 0.1:
            link.capacity = -rng.uniform(1.0, 10.0)
        pool.append(link)
    n_classes = rng.randint(1, 3)
    flows = []
    for index in range(rng.randint(1, 6)):
        links = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        cap = None
        if not links or rng.random() < 0.3:
            cap = rng.choice(
                (rng.uniform(0.5, 50.0), rng.uniform(1.0, 2e3), gbps(5))
            )
        if not links and rng.random() < 0.05:
            cap = None
        flows.append(
            Flow(
                flow_id=f"f{index}", src="s", dst="d", links=links,
                weight=rng.choice(_WEIGHTS) or rng.uniform(0.1, 4.0),
                priority=rng.randrange(n_classes), rate_cap=cap,
                job_id=f"j{index}",
            )
        )
    return flows


def _outcome(allocate, flows):
    """Everything one call produced, in a form ``==`` compares exactly.

    Floats go through ``float.hex`` so that even the sign of a zero must
    match; keys go through ``id`` so that ``link_loads`` must be keyed by
    the first-seen ``Link`` object of each endpoint pair.
    """
    try:
        allocation = allocate(flows)
    except AllocationError as exc:
        return ("error", str(exc))
    return (
        "ok",
        [
            (id(flow), float(rate).hex())
            for flow, rate in allocation.rates.items()
        ],
        [
            (id(link), float(load).hex())
            for link, load in allocation.link_loads.items()
        ],
    )


def _features(flows):
    """Which identity rules one corpus case exercises."""
    links = [link for flow in flows for link in flow.links]
    objects = {id(link): link for link in links}
    return {
        "twin_links": len(objects) > len(set(links)),
        "repeated_in_path": any(
            len(set(flow.links)) < len(flow.links) for flow in flows
        ),
        "zero_capacity": any(link.capacity == 0.0 for link in links),
        "classes_3": len({flow.priority for flow in flows}) == 3,
        "capped_pathless": any(
            not flow.links and flow.rate_cap is not None for flow in flows
        ),
        "flow_sharing_4": any(
            sum(link in flow.links for flow in flows) >= 4 for link in links
        ),
    }


class TestExactOracle:
    """The allocator equals the dict-keyed fill bit for bit."""

    N_CASES = 6000

    def test_seeded_corpus_matches_reference(self):
        rng = random.Random(20261017)
        seen = Counter()
        for case in range(self.N_CASES):
            flows = _corpus_case(rng)
            expected = _outcome(_reference_allocate, flows)
            assert _outcome(FluidAllocator().allocate, flows) == expected, (
                f"case {case}"
            )
            if expected[0] == "ok":
                seen["ok"] += 1
            elif "without links" in expected[1]:
                seen["pathless_error"] += 1
            else:
                seen["oversubscribed_error"] += 1
            for feature, present in _features(flows).items():
                seen[feature] += present
        # Every identity rule and both error messages are exercised.
        assert seen["ok"] >= self.N_CASES // 2
        assert seen["pathless_error"] >= 20, seen
        assert seen["oversubscribed_error"] >= 20, seen
        for feature in _features([]):
            assert seen[feature] >= 100, (feature, seen)

    def test_fabric_flows_match_reference(self):
        flows = TestFabricIncidence()._fabric_flows()[1]
        for count in range(1, len(flows) + 1):
            assert _outcome(FluidAllocator().allocate, flows[:count]) == (
                _outcome(_reference_allocate, flows[:count])
            )

    def test_reused_allocator_matches_reference(self):
        """One allocator over calls that change values and structure.

        Each step mutates the flows or the call, then the reused
        allocator must equal the reference on that call.
        """
        a = Link("n0", "n1", gbps(25), name="a")
        b = Link("n1", "n2", gbps(10), name="b")
        c = Link("n2", "n3", gbps(40), name="c")
        twin_b = Link("n1", "n2", gbps(5), name="twin-b")
        f0 = _flow("f0", [a, b])
        f1 = _flow("f1", [b, c], weight=2.0)
        f2 = _flow("f2", [c], cap=gbps(3))
        call = [f0, f1, f2]

        def set_weights():
            f0.weight, f1.weight, f2.weight = 3.0, 0.5, 1.25

        def set_caps():
            f0.rate_cap, f2.rate_cap = gbps(1), gbps(20)

        def set_capacities():
            b.capacity, c.capacity = gbps(2), 0.0

        def restore_capacities():
            b.capacity, c.capacity = gbps(10), gbps(40)

        def mutate_path_in_place():
            f1.links.append(a)

        def swap_flows():
            call[0], call[1] = call[1], call[0]

        def change_priority():
            f2.priority = 1

        def swap_in_twin():
            f1.links[0] = twin_b

        def twin_first():
            f0.links[:] = [twin_b, a]

        def twin_capacity():
            twin_b.capacity = gbps(7)

        def uncap_pathless():
            call.append(_flow("f3", []))

        def cap_pathless():
            call[-1].rate_cap = gbps(2)

        def negative_capacity():
            a.capacity = -1.0

        def restore_a():
            a.capacity = gbps(25)

        def subset():
            del call[1:]

        def everything():
            call[:] = [f0, f1, f2]

        def clear():
            call.clear()

        def replace_flow():
            # Another object with f0's id, path and priority.
            call[0] = _flow("f0", f0.links, weight=7.0)

        def duplicate_id():
            f2.flow_id = "f0"

        def restore_id():
            f2.flow_id = "f2"

        steps = [
            lambda: None, lambda: None, set_weights, set_caps,
            set_capacities, restore_capacities, mutate_path_in_place,
            swap_flows, change_priority, lambda: None, swap_in_twin,
            twin_first, twin_capacity, uncap_pathless, cap_pathless,
            negative_capacity, restore_a, subset, everything, clear,
            everything, replace_flow, everything, duplicate_id, restore_id,
        ]
        allocator = FluidAllocator()
        for number, step in enumerate(steps):
            step()
            outcome = _outcome(allocator.allocate, call)
            if step is duplicate_id:
                # The reference folds a repeated id into one rate.
                assert outcome == ("error", "flow 'f0' appears more than once")
                continue
            assert outcome == _outcome(_reference_allocate, call), number
            assert outcome == _outcome(FluidAllocator().allocate, call)

    def test_reused_allocator_random_walk_matches_reference(self):
        """Seeded corpus cases, each re-allocated after random changes."""
        rng = random.Random(20261018)
        allocator = FluidAllocator()
        for case in range(300):
            flows = _corpus_case(rng)
            pool = [link for flow in flows for link in flow.links]
            for step in range(6):
                flow = rng.choice(flows)
                draw = rng.random()
                if draw < 0.25:
                    flow.weight = rng.choice(_WEIGHTS) or rng.uniform(0.1, 4.0)
                elif draw < 0.4:
                    flow.rate_cap = rng.choice((None, rng.uniform(1.0, 2e3)))
                elif draw < 0.55 and pool:
                    rng.choice(pool).capacity = rng.choice(
                        (0.0, rng.uniform(1.0, 1e3))
                    )
                elif draw < 0.65:
                    flow.priority = rng.randrange(3)
                elif draw < 0.75:
                    rng.shuffle(flows)
                elif draw < 0.85 and flow.links:
                    flow.links[rng.randrange(len(flow.links))] = Link(
                        flow.links[0].src, flow.links[0].dst,
                        rng.uniform(1.0, 1e3), name="swapped",
                    )
                if flow.rate_cap is None and not flow.links:
                    flow.rate_cap = 1.0
                assert _outcome(allocator.allocate, flows) == (
                    _outcome(_reference_allocate, flows)
                ), (case, step)


class TestStructureReuse:
    """The phase simulator's progress ticks reuse the allocator's
    structure; it is built again only when the active flow set changes."""

    def test_builds_only_when_the_active_flow_set_changes(self, monkeypatch):
        builds = []

        class Counting(fluid._Structure):
            __slots__ = ()

            def __init__(self, flows, key):
                builds.append(len(flows))
                super().__init__(flows, key)

        monkeypatch.setattr(fluid, "_Structure", Counting)
        capacity = gbps(42)
        sim = PhaseLevelSimulator(
            Topology.dumbbell(
                hosts_per_side=3, host_capacity=capacity,
                bottleneck_capacity=capacity,
            ),
            AdaptiveUnfair(),
        )
        phases = [(100, 100), (80, 120), (130, 60)]
        for i, (compute, comm) in enumerate(phases):
            spec = JobSpec(
                job_id=f"J{i}", compute_time=ms(compute),
                comm_bytes=ms(comm) * capacity,
            )
            sim.add_job(
                spec, f"ha{i}", f"hb{i}", n_iterations=5,
                start_offset=ms(7 * i),
            )
        flow_sets = []
        allocate = sim.allocator.allocate

        def recording(flows):
            flow_sets.append([(id(flow), flow.priority) for flow in flows])
            return allocate(flows)

        sim.allocator.allocate = recording
        result = sim.run()

        assert all(run.done for run in result.jobs.values())
        changes = 0
        last = None
        for flow_set in flow_sets:
            if flow_set and flow_set != last:
                changes += 1
                last = flow_set
        assert len(builds) == changes
        assert changes > 10
        # Most calls are progress ticks over an unchanged flow set.
        assert len(flow_sets) > 10 * changes
