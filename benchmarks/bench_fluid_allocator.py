"""Microbenchmark: weighted max-min progressive filling.

The allocator runs inside the phase simulator's innermost reallocation
loop, so its per-call cost is a direct multiplier on every phase-level
experiment. Two cases are wider than the calls that loop makes (1-5
flows over 3-16 links): a mixed workload of many flows, shared
bottlenecks, two priority classes and rate caps, and 64 six-hop flows
over a fat tree. Each calls one allocator with the same flows over and
over, so after the first call they time the reuse path: the fill over
the kept link numbering and incidence, with capacities, weights and
caps read afresh. The tick case has the shape of the simulator's calls
and times both sides: a fresh allocator per call builds the structure
every time, one reused allocator only when the flow set changes. The
results are pinned bit for bit to the dict-keyed reference in
``tests/test_net_fluid.py``.
"""

import pytest
from conftest import print_report

from repro.cc.adaptive import AdaptiveUnfair
from repro.net.fluid import FluidAllocator
from repro.net.flows import Flow
from repro.net.topology import Link
from repro.units import gbps


def _workload():
    """40 flows over 8 shared links, 2 priority classes, some caps."""
    links = [
        Link(src=f"t{i}", dst="core", capacity=gbps(100), name=f"up{i}")
        for i in range(4)
    ] + [
        Link(src="core", dst=f"t{i}", capacity=gbps(100), name=f"down{i}")
        for i in range(4)
    ]
    flows = []
    for i in range(40):
        up = links[i % 4]
        down = links[4 + (i * 7) % 4]
        flows.append(
            Flow(
                flow_id=f"f{i}",
                src=up.src,
                dst=down.dst,
                links=[up, down],
                weight=1.0 + (i % 3),
                priority=i % 2,
                rate_cap=gbps(40) if i % 5 == 0 else None,
            )
        )
    return flows


def test_fluid_allocator(benchmark):
    """Allocation stays max-min feasible; timing tracked in the JSON."""
    flows = _workload()
    allocator = FluidAllocator()
    allocation = benchmark(allocator.allocate, flows)
    # Work-conservation sanity: every flow got a positive rate and no
    # link is oversubscribed (allocate() itself asserts the latter).
    assert all(rate > 0 for rate in allocation.rates.values())
    assert len(allocation.rates) == len(flows)
    loads = [
        f"{link.name}: {allocation.utilization(link):.3f}"
        for link in sorted(allocation.link_loads, key=lambda l: l.name)
    ]
    print_report("fluid allocator — link utilization", "\n".join(loads))


def _fabric_workload():
    """64 six-hop flows over a k=4 fat tree (96 directed fabric links)."""
    from repro.net.routing import EcmpRouter
    from repro.net.topology import Topology

    topo = Topology.fat_tree(4, host_capacity=gbps(100))
    router = EcmpRouter(topo)
    hosts = [node.name for node in topo.hosts()]
    flows = []
    for i in range(64):
        src = hosts[i % len(hosts)]
        dst = hosts[(i * 5 + 3) % len(hosts)]
        if src == dst:
            dst = hosts[(i * 5 + 4) % len(hosts)]
        flows.append(
            Flow(
                flow_id=f"x{i}",
                src=src,
                dst=dst,
                links=list(router.route(src, dst, f"x{i}")),
                weight=1.0 + (i % 3),
                priority=i % 2,
            )
        )
    return flows


def test_fluid_allocator_fabric(benchmark):
    """Wide fat-tree incidence: feasible fill, cost tracked in the JSON."""
    flows = _fabric_workload()
    allocator = FluidAllocator()
    allocation = benchmark(allocator.allocate, flows)
    assert len(allocation.rates) == len(flows)
    assert all(rate > 0 for rate in allocation.rates.values())
    for link, load in allocation.link_loads.items():
        assert load <= link.capacity * (1 + 1e-9), link.name
    hops = sum(len(flow.links) for flow in flows) / len(flows)
    benchmark.extra_info["flows"] = len(flows)
    benchmark.extra_info["mean_hops"] = hops
    print_report(
        "fluid allocator — fat-tree fabric incidence",
        f"flows: {len(flows)}  mean hops: {hops:.2f}  "
        f"links touched: {len(allocation.link_loads)}",
    )


def _tick_calls():
    """Progress ticks of 1, then 2, then 3 flows over 4, 6 and 8 links.

    Each flow crosses four hops: its host uplink, the shared leaf-spine
    and spine-leaf links, and its host downlink. Every flow set is
    re-solved for 8 ticks while progress grows, as the phase simulator
    does for ``AdaptiveUnfair``: 24 calls, 3 flow sets.
    """
    shared = [
        Link(src="leaf0", dst="spine", capacity=gbps(100), name="up"),
        Link(src="spine", dst="leaf1", capacity=gbps(100), name="down"),
    ]
    flows = [
        Flow(
            flow_id=f"tick{i}",
            src=f"ha{i}",
            dst=f"hb{i}",
            links=[
                Link(src=f"ha{i}", dst="leaf0", capacity=gbps(42),
                     name=f"ha{i}"),
                *shared,
                Link(src="leaf1", dst=f"hb{i}", capacity=gbps(42),
                     name=f"hb{i}"),
            ],
        )
        for i in range(3)
    ]
    return [
        (flows[:count], [(tick + i) / 10 for i in range(count)])
        for count in (1, 2, 3)
        for tick in range(8)
    ]


def _run_ticks(calls, policy, allocator=None):
    """Rates of every tick call: weights set by ``policy`` from each
    flow's progress, one ``allocator`` for all calls or (``None``) a
    fresh one per call."""
    rates = []
    for flows, progress in calls:
        for flow, sent in zip(flows, progress):
            flow.progress = sent
            flow.weight = policy.weight_of(flow)
        fill = allocator or FluidAllocator()
        rates.append(fill.allocate(flows).flow_rates)
    return rates


@pytest.mark.parametrize("mode", ["fresh", "reused"])
def test_fluid_allocator_tick(benchmark, mode):
    """Tick-shaped calls: structure built per call vs reused per set."""
    calls = _tick_calls()
    policy = AdaptiveUnfair(gain=4.0)
    allocator = FluidAllocator() if mode == "reused" else None
    rates = benchmark(_run_ticks, calls, policy, allocator)
    # Reuse is exact: the same rates as a fresh allocator per call.
    assert rates == _run_ticks(calls, policy)
    assert all(rate > 0 for call in rates for rate in call)
    benchmark.extra_info["calls"] = len(calls)
    print_report(
        f"fluid allocator — progress ticks, {mode} allocator",
        f"calls: {len(calls)}  flow sets: 3  "
        f"last rates (Gbps): "
        + ", ".join(f"{rate / gbps(1):.2f}" for rate in rates[-1]),
    )
