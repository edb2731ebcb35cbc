#!/usr/bin/env python
"""Compatibility-aware scheduling on a multi-rack cluster.

Walks through the paper's §4 placement argument end to end: a fragmented
leaf-spine cluster, an arriving job that must spill across racks, three
placement policies, and the resulting slowdowns under the adaptive unfair
congestion control. Then feeds a dynamic Poisson arrival stream to the
online cluster service and audits how often each policy keeps every
shared link fully compatible.

Run:
    python examples/cluster_scheduling.py
"""

from repro import (
    CompatibilityChecker,
    ClusterState,
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    RandomPlacement,
    Topology,
    WorkloadGenerator,
    ascii_table,
    gbps,
)
from repro.experiments import scheduler_exp
from repro.scheduler import ClusterService

CAPACITY = gbps(42)


def static_scenario() -> None:
    """The newcomer-placement scenario from the experiments package."""
    outcomes = scheduler_exp.run_policies(n_iterations=50)
    print(scheduler_exp.report(outcomes))
    print()


def dynamic_arrivals() -> None:
    """Poisson arrivals against each policy: compatibility audit."""
    rows = []
    for policy in (
        RandomPlacement(seed=3),
        ConsolidatedPlacement(),
        CompatibilityAwarePlacement(),
    ):
        topology = Topology.leaf_spine(
            n_racks=4, hosts_per_rack=2, n_spines=1,
            host_capacity=CAPACITY, uplink_capacity=CAPACITY,
        )
        cluster = ClusterState(topology, gpus_per_host=4)
        generator = WorkloadGenerator(seed=11, capacity=CAPACITY)
        arrivals = generator.arrivals(
            count=20, mean_interarrival_s=120, mean_lifetime_s=600
        )
        # No admission queue: a job that does not fit is rejected. Run to
        # the last arrival; jobs still running then stay placed.
        service = ClusterService(
            cluster, policy,
            checker=CompatibilityChecker(capacity=CAPACITY),
            queue_limit=0,
        )
        service.submit_all(arrivals)
        stats = service.run(until=arrivals[-1].time)
        rows.append(
            (
                policy.name,
                stats.admitted,
                stats.rejected,
                f"{stats.compatibility_rate:.0%}",
            )
        )
    print(ascii_table(
        ["policy", "placed", "rejected", "all-links-compatible rate"],
        rows,
        title="Dynamic arrivals: how often placements stay compatible",
    ))


def main() -> None:
    static_scenario()
    dynamic_arrivals()


if __name__ == "__main__":
    main()
