"""Scheduler tests: cluster state, placement policies, cluster simulation,
dynamic replay."""

import pytest

from repro.cc.adaptive import AdaptiveUnfair
from repro.cc.fair import FairSharing
from repro.core.compatibility import CompatibilityChecker
from repro.errors import PlacementError
from repro.net.topology import Topology
from repro.scheduler.cluster import ClusterState
from repro.scheduler.events import JobArrival, arrival_schedule, replay
from repro.scheduler.placement import (
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    RandomPlacement,
)
from repro.scheduler.simulation import ClusterSimulation
from repro.units import gbps, ms
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _cluster(n_racks=3, hosts_per_rack=2, gpus=4):
    topo = Topology.leaf_spine(
        n_racks=n_racks, hosts_per_rack=hosts_per_rack, n_spines=1,
        host_capacity=CAP, uplink_capacity=CAP,
    )
    return ClusterState(topo, gpus_per_host=gpus)


def _job(name, compute_ms=200, comm_ms=50, workers=2):
    return JobSpec(
        job_id=name, compute_time=ms(compute_ms),
        comm_bytes=ms(comm_ms) * CAP, n_workers=workers,
    )


class TestClusterState:
    def test_initial_capacity(self):
        cluster = _cluster(n_racks=2, hosts_per_rack=2, gpus=4)
        assert cluster.total_free_gpus() == 16
        assert cluster.free_gpus("h0_0") == 4

    def test_place_deducts_gpus(self):
        cluster = _cluster()
        cluster.place(_job("j"), ["h0_0", "h0_0", "h0_1"])
        assert cluster.free_gpus("h0_0") == 2
        assert cluster.free_gpus("h0_1") == 3

    def test_cross_rack_job_has_links(self):
        cluster = _cluster()
        job = cluster.place(_job("j"), ["h0_0", "h1_0"])
        assert job.uses_network
        link_names = {l.name for l in job.links}
        assert any(name.startswith("up_") for name in link_names)

    def test_rack_local_job_has_tor_links_only(self):
        cluster = _cluster()
        job = cluster.place(_job("j"), ["h0_0", "h0_1"])
        assert all("spine" not in l.src and "spine" not in l.dst
                   for l in job.links)

    def test_single_host_job_no_links(self):
        cluster = _cluster()
        job = cluster.place(_job("j"), ["h0_0", "h0_0"])
        assert not job.uses_network

    def test_overcommit_rejected(self):
        cluster = _cluster(gpus=1)
        with pytest.raises(PlacementError):
            cluster.place(_job("j"), ["h0_0", "h0_0"])

    def test_duplicate_placement_rejected(self):
        cluster = _cluster()
        cluster.place(_job("j"), ["h0_0"])
        with pytest.raises(PlacementError):
            cluster.place(_job("j"), ["h0_1"])

    def test_remove_frees_gpus(self):
        cluster = _cluster()
        cluster.place(_job("j"), ["h0_0", "h0_0"])
        cluster.remove("j")
        assert cluster.free_gpus("h0_0") == 4

    def test_remove_unknown_rejected(self):
        with pytest.raises(PlacementError):
            _cluster().remove("ghost")

    def test_link_sharing_map(self):
        cluster = _cluster()
        cluster.place(_job("a"), ["h0_0", "h1_0"])
        cluster.place(_job("b"), ["h0_1", "h1_1"])
        sharing = cluster.link_sharing()
        shared = [jobs for jobs in sharing.values() if len(jobs) == 2]
        assert shared  # both jobs cross the same rack uplink

    def test_hosts_by_rack(self):
        racks = _cluster(n_racks=2, hosts_per_rack=2).hosts_by_rack()
        assert set(racks) == {"tor0", "tor1"}
        assert racks["tor0"] == ["h0_0", "h0_1"]


class TestPlacementPolicies:
    def test_random_respects_capacity(self):
        cluster = _cluster()
        policy = RandomPlacement(seed=1)
        hosts = policy.place(cluster, _job("j"), 5)
        assert len(hosts) == 5
        cluster.place(_job("j"), hosts)  # must not raise

    def test_random_deterministic(self):
        a = RandomPlacement(seed=2).place(_cluster(), _job("j"), 4)
        b = RandomPlacement(seed=2).place(_cluster(), _job("j"), 4)
        assert a == b

    def test_random_rejects_oversized(self):
        with pytest.raises(PlacementError):
            RandomPlacement().place(_cluster(n_racks=1), _job("j"), 100)

    @pytest.mark.parametrize(
        "policy",
        [RandomPlacement(), ConsolidatedPlacement(),
         CompatibilityAwarePlacement()],
        ids=lambda policy: policy.name,
    )
    def test_nonpositive_worker_counts_refused(self, policy):
        cluster = _cluster()
        for n_workers in (0, -3):
            with pytest.raises(PlacementError, match="at least one worker"):
                policy.place(cluster, _job("j"), n_workers)

    def test_consolidated_prefers_single_rack(self):
        cluster = _cluster()
        hosts = ConsolidatedPlacement().place(cluster, _job("j"), 6)
        racks = {cluster.topology.rack_of(h) for h in hosts}
        assert len(racks) == 1

    def test_consolidated_picks_tightest_fit(self):
        cluster = _cluster(n_racks=2)
        # Fragment rack 0 so only 3 slots remain there.
        cluster.place(_job("filler", workers=5),
                      ["h0_0"] * 4 + ["h0_1"])
        hosts = ConsolidatedPlacement().place(cluster, _job("j"), 3)
        racks = {cluster.topology.rack_of(h) for h in hosts}
        assert racks == {"tor0"}  # tightest rack that fits

    def test_consolidated_spills_when_needed(self):
        cluster = _cluster(n_racks=2, hosts_per_rack=1, gpus=4)
        hosts = ConsolidatedPlacement().place(cluster, _job("j"), 6)
        racks = {cluster.topology.rack_of(h) for h in hosts}
        assert len(racks) == 2

    def test_consolidated_rejects_oversized(self):
        with pytest.raises(PlacementError):
            ConsolidatedPlacement().place(
                _cluster(n_racks=1, hosts_per_rack=1), _job("j"), 100
            )

    def test_compat_aware_prefers_rack_local(self):
        cluster = _cluster()
        hosts = CompatibilityAwarePlacement().place(cluster, _job("j"), 4)
        racks = {cluster.topology.rack_of(h) for h in hosts}
        assert len(racks) == 1

    def test_compat_aware_avoids_incompatible_neighbour(self):
        cluster = _cluster(n_racks=3, hosts_per_rack=1, gpus=8)
        # Resident comm-heavy job on racks 0-1 (incompatible with compute
        # heavy newcomers: utilization over 1 when they share).
        resident = JobSpec(
            "B-res", compute_time=ms(100),
            comm_bytes=ms(110) * CAP, n_workers=2,
        )
        cluster.place(resident, ["h0_0", "h1_0"])
        newcomer = JobSpec(
            "B-new", compute_time=ms(100),
            comm_bytes=ms(110) * CAP, n_workers=10,
        )
        hosts = CompatibilityAwarePlacement().place(cluster, newcomer, 10)
        racks = {cluster.topology.rack_of(h) for h in hosts}
        # 10 workers need two racks (cap 8); the clean pair avoids the
        # resident's rack-0/1 uplinks where possible: expects rack 2 used.
        assert "tor2" in racks

    def test_compat_aware_cluster_level_check(self):
        # The §5 global check accepts a placement that per-link checks
        # also accept, and the flag round-trips.
        cluster = _cluster(n_racks=3, hosts_per_rack=1, gpus=8)
        resident = JobSpec(
            "A-res", compute_time=ms(210),
            comm_bytes=ms(90) * CAP, n_workers=2,
        )
        cluster.place(resident, ["h0_0", "h1_0"])
        newcomer = JobSpec(
            "A-new", compute_time=ms(210),
            comm_bytes=ms(90) * CAP, n_workers=10,
        )
        policy = CompatibilityAwarePlacement(cluster_level=True)
        hosts = policy.place(cluster, newcomer, 10)
        cluster.place(newcomer, hosts)
        # Validate the §5 criterion end to end.
        from repro.core.cluster_compat import ClusterCompatibilityProblem
        from repro.core.compatibility import CompatibilityChecker

        checker = CompatibilityChecker(capacity=CAP)
        jobs = [j for j in cluster.jobs if j.uses_network]
        problem = ClusterCompatibilityProblem.from_assignments(
            [checker.circle(j.spec) for j in jobs],
            {j.job_id: [l.name for l in j.links] for j in jobs},
        )
        assert problem.solve().compatible

    def test_compat_aware_rejects_oversized(self):
        with pytest.raises(PlacementError):
            CompatibilityAwarePlacement().place(
                _cluster(n_racks=1, hosts_per_rack=1), _job("j"), 100
            )


class TestClusterSimulation:
    def test_isolated_jobs_run_at_solo_speed(self):
        cluster = _cluster(n_racks=2)
        cluster.place(_job("a", workers=2), ["h0_0", "h1_0"])
        report = ClusterSimulation(cluster, reference_capacity=CAP).run(
            FairSharing(), n_iterations=20
        )
        assert report.slowdown["a"] == pytest.approx(1.0, rel=1e-6)

    def test_single_host_job_reported_solo(self):
        cluster = _cluster()
        cluster.place(_job("a"), ["h0_0", "h0_0"])
        cluster.place(_job("b", workers=2), ["h1_0", "h2_0"])
        report = ClusterSimulation(cluster, reference_capacity=CAP).run(
            FairSharing(), n_iterations=20
        )
        assert report.slowdown["a"] == pytest.approx(1.0)

    def test_contending_jobs_slow_down_under_fair(self):
        cluster = _cluster(n_racks=2, hosts_per_rack=2)
        spec_a = JobSpec("a", ms(100), ms(110) * CAP, n_workers=2)
        spec_b = JobSpec("b", ms(100), ms(110) * CAP, n_workers=2)
        cluster.place(spec_a, ["h0_0", "h1_0"])
        cluster.place(spec_b, ["h0_1", "h1_1"])
        report = ClusterSimulation(cluster, reference_capacity=CAP).run(
            FairSharing(), n_iterations=30
        )
        assert report.mean_slowdown > 1.2

    def test_adaptive_recovers_compatible_contention(self):
        cluster = _cluster(n_racks=2, hosts_per_rack=2)
        spec_a = JobSpec("a", ms(210), ms(90) * CAP, n_workers=2)
        spec_b = JobSpec("b", ms(210), ms(90) * CAP, n_workers=2)
        cluster.place(spec_a, ["h0_0", "h1_0"])
        cluster.place(spec_b, ["h0_1", "h1_1"])
        report = ClusterSimulation(cluster, reference_capacity=CAP).run(
            AdaptiveUnfair(), n_iterations=40
        )
        assert report.mean_slowdown < 1.05
        assert report.jobs_at_solo_speed >= 1

    def test_empty_cluster_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            ClusterSimulation(_cluster()).run(FairSharing())


class TestDynamicReplay:
    def test_arrival_schedule_shape(self):
        gen = WorkloadGenerator(seed=3)
        arrivals = arrival_schedule(gen, count=5, mean_interarrival_s=10)
        assert len(arrivals) == 5
        times = [a.time for a in arrivals]
        assert times == sorted(times)

    def test_replay_places_and_audits(self):
        cluster = _cluster(n_racks=4, hosts_per_rack=2, gpus=4)
        gen = WorkloadGenerator(seed=4)
        arrivals = arrival_schedule(
            gen, count=8, mean_interarrival_s=10, mean_lifetime_s=1e9
        )
        stats = replay(
            cluster, ConsolidatedPlacement(), arrivals,
            checker=CompatibilityChecker(capacity=CAP),
        )
        assert stats.placed + stats.rejected == 8
        assert 0 <= stats.compatibility_rate <= 1

    def test_replay_departures_free_capacity(self):
        cluster = _cluster(n_racks=1, hosts_per_rack=1, gpus=4)
        spec = _job("short", workers=4)
        arrivals = [
            JobArrival(time=0.0, spec=spec, n_workers=4, lifetime=1.0),
            JobArrival(
                time=10.0, spec=spec.with_id("later"), n_workers=4,
                lifetime=1.0,
            ),
        ]
        stats = replay(cluster, ConsolidatedPlacement(), arrivals)
        assert stats.placed == 2
        assert stats.rejected == 0
