"""§4-§5: compatibility-aware placement on a multi-rack cluster.

The scenario: a fragmented four-rack cluster already runs two cross-rack
*resident* jobs plus rack-local fillers. A new job arrives that cannot fit
in any single rack, so it must spill across ToR uplinks — the question is
*which* uplinks.

Two job types define the compatibility landscape:

* type A — compute-heavy (period 300 ms, 50 ms communication); A jobs are
  fully compatible with each other on a link.
* type B — comm-heavier (period 260 ms, 110 ms communication); B jobs are
  compatible with each other, but A and B are *provably* incompatible
  (the gcd of the periods, 20 ms, is smaller than either arc).

Resident job A-res spans racks 0-1; resident B-res spans racks 2-3. The
arriving job is type A. Free-GPU counts are arranged so the fullest racks
straddle B-res's uplinks: a locality-only scheduler (and usually a random
one) spills the newcomer next to the *incompatible* resident, while the
compatibility-aware policy pays a little fragmentation to sit next to
A-res. All three placements then run under the adaptive unfair policy and
are judged by slowdown versus dedicated-network speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .. import io
from ..telemetry import current
from ..analysis.report import ascii_table
from ..cc.adaptive import AdaptiveUnfair
from ..net.routing import Router
from ..net.topology import Topology
from ..runner import RunSpec, run_many
from ..scheduler.cluster import ClusterState
from ..scheduler.placement import (
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from ..scheduler.simulation import ClusterReport
from ..sim.rng import RandomStreams
from ..units import ms
from ..workloads.job import JobSpec
from ..workloads.profiles import EFFECTIVE_BOTTLENECK


def type_a_job(job_id: str, n_workers: int) -> JobSpec:
    """Compute-heavy job: 250 ms compute + 50 ms communication."""
    return JobSpec(
        job_id=job_id,
        model_name="wideresnet",
        batch_size=800,
        compute_time=ms(250),
        comm_bytes=ms(50) * EFFECTIVE_BOTTLENECK,
        n_workers=n_workers,
    )


def type_b_job(job_id: str, n_workers: int) -> JobSpec:
    """Comm-heavier job: 150 ms compute + 110 ms communication."""
    return JobSpec(
        job_id=job_id,
        model_name="vgg19",
        batch_size=1200,
        compute_time=ms(150),
        comm_bytes=ms(110) * EFFECTIVE_BOTTLENECK,
        n_workers=n_workers,
    )


def _base_placements() -> List[Tuple[JobSpec, List[str]]]:
    """Resident and filler placements, in arrival order."""
    placements: List[Tuple[JobSpec, List[str]]] = [
        # Resident A spans racks 0-1 (2 GPUs each side).
        (type_a_job("A-res", 4), ["h0_0", "h0_0", "h1_0", "h1_0"]),
        # Resident B spans racks 2-3 (2 GPUs each side).
        (type_b_job("B-res", 4), ["h2_0", "h2_0", "h3_0", "h3_0"]),
    ]
    # Rack-local fillers fragment the free space (no network traffic).
    for job_id, hosts in [
        ("fill-r0", ["h0_1", "h0_1"]),
        ("fill-r2", ["h2_1"]),
    ]:
        spec = JobSpec(
            job_id=job_id,
            compute_time=ms(200),
            comm_bytes=1.0,  # placeholder; single-host jobs send nothing
            n_workers=len(hosts),
        )
        placements.append((spec, hosts))
    return placements


def build_cluster() -> Tuple[ClusterState, JobSpec]:
    """The fragmented cluster with residents placed; returns the newcomer.

    Racks have 2 hosts x 4 GPUs = 8 slots. After residents and fillers the
    free counts are rack0: 4, rack1: 6, rack2: 5, rack3: 6 — so the two
    fullest racks (1 and 3) straddle the *incompatible* resident's
    uplinks, which is the trap for locality-only placement. The newcomer
    (type A, 8 workers) fits into racks {1, 0} (compatible neighbour) just
    as well as into racks {1, 3} (incompatible neighbour).
    """
    topology = Topology.leaf_spine(
        n_racks=4,
        hosts_per_rack=2,
        n_spines=1,
        host_capacity=EFFECTIVE_BOTTLENECK,
        uplink_capacity=EFFECTIVE_BOTTLENECK,
    )
    cluster = ClusterState(
        topology, gpus_per_host=4, router=Router(topology)
    )
    for spec, hosts in _base_placements():
        cluster.place(spec, hosts)
    newcomer = type_a_job("A-new", 8)
    return cluster, newcomer


def _cluster_spec(
    topology: Topology,
    placements: List[Tuple[JobSpec, List[str]]],
    gpus_per_host: int,
    n_iterations: int,
    seed: int,
    label: str,
) -> RunSpec:
    """A declarative cluster-backend run of already-decided placements."""
    return RunSpec(
        backend="cluster",
        label=label,
        seed=seed,
        policy=AdaptiveUnfair(),
        topology=topology,
        n_iterations=n_iterations,
        capacity=EFFECTIVE_BOTTLENECK,
        options=(
            (
                "placements",
                tuple(
                    (spec, tuple(hosts)) for spec, hosts in placements
                ),
            ),
            ("gpus_per_host", gpus_per_host),
        ),
    )


def _report_from_data(data: Dict[str, object]) -> ClusterReport:
    """Rebuild the cluster report from a run result's plain data."""
    return ClusterReport(
        iteration_ms=dict(data["iteration_ms"]),
        solo_ms=dict(data["solo_ms"]),
        slowdown=dict(data["slowdown"]),
        policy_name=str(data["policy_name"]),
        timelines={
            job_id: io.timeline_from_dict(document)
            for job_id, document in data.get("timelines", {}).items()
        },
    )


@dataclass
class PolicyOutcome:
    """One placement policy's cluster-wide result."""

    policy_name: str
    report: ClusterReport
    mixed_links: int
    newcomer_racks: List[str]

    @property
    def mean_slowdown(self) -> float:
        """Average slowdown over network-using jobs."""
        return self.report.mean_slowdown

    @property
    def max_slowdown(self) -> float:
        """Worst job's slowdown."""
        return self.report.max_slowdown


def count_mixed_links(cluster: ClusterState) -> int:
    """Links carrying both a type-A and a type-B job."""
    mixed = 0
    for jobs in cluster.link_sharing().values():
        kinds = {job_id[0] for job_id in jobs}
        if "A" in kinds and "B" in kinds:
            mixed += 1
    return mixed


def run_policies(
    policies: Sequence[PlacementPolicy] | None = None,
    n_iterations: int = 50,
    seed: int = 0,
) -> List[PolicyOutcome]:
    """Place the newcomer with each policy and simulate the cluster."""
    if policies is None:
        policies = [
            RandomPlacement(seed=seed),
            ConsolidatedPlacement(),
            CompatibilityAwarePlacement(),
        ]
    prepared: List[Tuple[PlacementPolicy, int, List[str]]] = []
    specs: List[RunSpec] = []
    for policy in policies:
        cluster, newcomer = build_cluster()
        hosts = policy.place(cluster, newcomer, newcomer.n_workers)
        cluster.place(newcomer, hosts)
        racks = sorted(
            {cluster.topology.rack_of(host) or "?" for host in hosts}
        )
        specs.append(
            _cluster_spec(
                cluster.topology,
                _base_placements() + [(newcomer, list(hosts))],
                gpus_per_host=4,
                n_iterations=n_iterations,
                seed=seed,
                label=f"scheduler-{policy.name}",
            )
        )
        prepared.append((policy, count_mixed_links(cluster), racks))
    results = run_many(specs)
    outcomes: List[PolicyOutcome] = []
    for (policy, mixed, racks), run_result in zip(prepared, results):
        report = _report_from_data(run_result.data)
        # Fillers run at solo speed by construction; report network jobs.
        for filler in ("fill-r0", "fill-r2"):
            report.slowdown.pop(filler, None)
            report.iteration_ms.pop(filler, None)
            report.solo_ms.pop(filler, None)
        outcomes.append(
            PolicyOutcome(
                policy_name=policy.name,
                report=report,
                mixed_links=mixed,
                newcomer_racks=racks,
            )
        )
    return outcomes


def run_large_scale(
    n_racks: int = 10,
    hosts_per_rack: int = 2,
    gpus_per_host: int = 4,
    n_jobs: int = 7,
    n_iterations: int = 40,
    seed: int = 0,
) -> List[PolicyOutcome]:
    """A many-job version of the placement comparison.

    Seven jobs (alternating type A and type B, workers drawn from
    {6, 10, 12}) arrive on a ten-rack cluster. Large jobs must spill
    across racks; whom they spill next to is the policies' whole
    difference. Jobs that do not fit are skipped (all policies see the
    same arrival sequence).
    """
    policies: List[PlacementPolicy] = [
        RandomPlacement(seed=seed),
        ConsolidatedPlacement(),
        CompatibilityAwarePlacement(),
    ]
    prepared: List[Tuple[PlacementPolicy, int, int]] = []
    specs: List[RunSpec] = []
    for policy in policies:
        rng = RandomStreams(seed).get("large-scale")
        topology = Topology.leaf_spine(
            n_racks=n_racks,
            hosts_per_rack=hosts_per_rack,
            n_spines=1,
            host_capacity=EFFECTIVE_BOTTLENECK,
            uplink_capacity=EFFECTIVE_BOTTLENECK,
        )
        cluster = ClusterState(
            topology, gpus_per_host=gpus_per_host, router=Router(topology)
        )
        placements: List[Tuple[JobSpec, List[str]]] = []
        for index in range(n_jobs):
            workers = int(rng.choice([6, 10, 12]))
            if index % 2 == 0:
                spec = type_a_job(f"A{index}", workers)
            else:
                spec = type_b_job(f"B{index}", workers)
            try:
                hosts = policy.place(cluster, spec, workers)
            except Exception:
                continue
            cluster.place(spec, hosts)
            placements.append((spec, list(hosts)))
        specs.append(
            _cluster_spec(
                topology,
                placements,
                gpus_per_host=gpus_per_host,
                n_iterations=n_iterations,
                seed=seed,
                label=f"scheduler-large-{policy.name}",
            )
        )
        prepared.append((policy, count_mixed_links(cluster), len(placements)))
    results = run_many(specs)
    outcomes: List[PolicyOutcome] = []
    for (policy, mixed, placed), run_result in zip(prepared, results):
        outcomes.append(
            PolicyOutcome(
                policy_name=policy.name,
                report=_report_from_data(run_result.data),
                mixed_links=mixed,
                newcomer_racks=[f"{placed} jobs"],
            )
        )
    return outcomes


def report(outcomes: Sequence[PolicyOutcome]) -> str:
    """Render the scheduler comparison."""
    rows = []
    for outcome in outcomes:
        rows.append(
            (
                outcome.policy_name,
                "+".join(outcome.newcomer_racks),
                f"{outcome.mean_slowdown:.3f}",
                f"{outcome.max_slowdown:.3f}",
                str(outcome.mixed_links),
                str(outcome.report.jobs_at_solo_speed),
            )
        )
    return ascii_table(
        ["placement policy", "newcomer racks", "mean slowdown",
         "max slowdown", "A/B-mixed links", "jobs at solo speed"],
        rows,
        title="S4 placement — compatibility-aware vs locality-only",
    )


def main() -> None:
    """Print the scheduler comparisons (newcomer scenario + large scale)."""
    with current().span("experiment.scheduler"):
        print(report(run_policies()))
        print()
        large = report(run_large_scale())
        print(large.replace(
            "S4 placement — compatibility-aware vs locality-only",
            "S4 placement at scale — 7 jobs on 10 racks",
        ).replace("newcomer racks", "jobs placed  "))


if __name__ == "__main__":
    main()
