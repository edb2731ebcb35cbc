"""Tests for the online cluster service.

Covers the event loop (departures before arrivals, bounded queue with
deterministic retries), the cluster-wide admission audit (including the
fixture where it *disagrees* with the legacy per-link audit), the empty
``ClusterReport`` guard, and the ``service`` runner backend's determinism
across worker counts plus cacheability: byte-identical cache entries, and
placement latency read from worker spans rather than cached telemetry.
"""

import dataclasses
import math
import re
from typing import List, Sequence

import pytest

from repro.core.compatibility import CompatibilityChecker
from repro.errors import ConfigError, PlacementError, SimulationError
from repro.experiments.online import placement_latency_line
from repro.net.routing import Router
from repro.net.topology import Topology
from repro.runner import RunSpec, run_many
from repro.scheduler.cluster import ClusterState
from repro.scheduler.placement import (
    CompatibilityAwarePlacement,
    ConsolidatedPlacement,
    PlacementPolicy,
)
from repro.scheduler.service import ClusterService
from repro.scheduler.simulation import ClusterReport
from repro.telemetry import Telemetry, use
from repro.units import gbps, ms
from repro.workloads.job import JobSpec
from repro.workloads.traces import JobArrival, poisson_arrivals

CAP = gbps(42)


def _cluster(n_racks=2, hosts_per_rack=1, gpus=4):
    topology = Topology.leaf_spine(
        n_racks=n_racks,
        hosts_per_rack=hosts_per_rack,
        n_spines=1,
        host_capacity=CAP,
        uplink_capacity=CAP,
    )
    return ClusterState(topology, gpus_per_host=gpus, router=Router(topology))


def _job(job_id, compute_ms, comm_ms, workers=2):
    return JobSpec(
        job_id=job_id,
        compute_time=ms(compute_ms),
        comm_bytes=ms(comm_ms) * CAP,
        n_workers=workers,
    )


class FixedPlacement(PlacementPolicy):
    """Test-only policy: scripted hosts per job id."""

    name = "fixed"

    def __init__(self, plan):
        self.plan = dict(plan)

    def place(self, cluster, spec, n_workers):
        try:
            return list(self.plan[spec.job_id])
        except KeyError:
            raise PlacementError(f"no scripted hosts for {spec.job_id}")


class TestServiceEventLoop:
    def test_departure_frees_capacity_for_queued_job(self):
        cluster = _cluster(n_racks=1, gpus=4)
        service = ClusterService(
            cluster, ConsolidatedPlacement(), queue_limit=4
        )
        first = _job("first", 300, 100, workers=4)
        second = _job("second", 300, 100, workers=4)
        service.submit_all(
            [
                JobArrival(time=0.0, spec=first, n_workers=4, lifetime=5.0),
                JobArrival(time=1.0, spec=second, n_workers=4, lifetime=5.0),
            ]
        )
        stats = service.run()
        assert stats.admitted == 2
        assert stats.queued == 1
        assert stats.retry_admissions == 1
        outcomes = [(r.outcome, r.job_id, r.time) for r in stats.records]
        assert outcomes == [
            ("admitted", "first", 0.0),
            ("queued", "second", 1.0),
            ("admitted", "second", 5.0),  # retried at the departure
        ]
        assert stats.records[-1].attempt == 1

    def test_job_wider_than_the_free_gpus_is_never_offered(self):
        """A job needing more GPUs than are free is refused without a
        policy call: on arrival and at a retry after a departure that
        frees too few. Attempts still count once per retry, so the
        admission carries the attempt it always did."""

        class CountingPlacement(ConsolidatedPlacement):
            def __init__(self):
                super().__init__()
                self.offers = []

            def place(self, cluster, spec, n_workers):
                self.offers.append((spec.job_id, cluster.total_free_gpus()))
                return super().place(cluster, spec, n_workers)

        policy = CountingPlacement()
        service = ClusterService(
            _cluster(n_racks=1, gpus=4), policy, queue_limit=4
        )
        small = _job("a", 300, 100, workers=2)
        big = _job("big", 300, 100, workers=4)
        service.submit_all([
            JobArrival(time=0.0, spec=small, n_workers=2, lifetime=5.0),
            JobArrival(
                time=0.0, spec=small.with_id("b"), n_workers=2,
                lifetime=10.0,
            ),
            JobArrival(time=1.0, spec=big, n_workers=4, lifetime=1.0),
        ])
        stats = service.run()
        assert policy.offers == [("a", 4), ("b", 2), ("big", 4)]
        outcomes = [
            (r.outcome, r.job_id, r.time, r.attempt) for r in stats.records
        ]
        assert outcomes == [
            ("admitted", "a", 0.0, 0),
            ("admitted", "b", 0.0, 0),
            ("queued", "big", 1.0, 0),
            # a's departure at 5 s freed 2 GPUs: a retry, not an offer.
            ("admitted", "big", 10.0, 2),
        ]

    def test_equal_time_departure_processed_before_arrival(self):
        cluster = _cluster(n_racks=1, gpus=4)
        service = ClusterService(
            cluster, ConsolidatedPlacement(), queue_limit=0
        )
        spec = _job("one", 300, 100, workers=4)
        service.submit_all(
            [
                JobArrival(time=0.0, spec=spec, n_workers=4, lifetime=2.0),
                JobArrival(
                    time=2.0,
                    spec=spec.with_id("two"),
                    n_workers=4,
                    lifetime=2.0,
                ),
            ]
        )
        stats = service.run()
        assert stats.admitted == 2
        assert stats.rejected == 0

    def test_zero_queue_rejects_immediately(self):
        cluster = _cluster(n_racks=1, gpus=4)
        service = ClusterService(
            cluster, ConsolidatedPlacement(), queue_limit=0
        )
        spec = _job("big", 300, 100, workers=4)
        service.submit_all(
            [
                JobArrival(time=0.0, spec=spec, n_workers=4, lifetime=99.0),
                JobArrival(
                    time=1.0,
                    spec=spec.with_id("late"),
                    n_workers=4,
                    lifetime=99.0,
                ),
            ]
        )
        stats = service.run()
        assert stats.admitted == 1
        assert stats.rejected == 1
        assert stats.queued == 0

    def test_bounded_queue_overflows_to_rejection(self):
        cluster = _cluster(n_racks=1, gpus=4)
        service = ClusterService(
            cluster, ConsolidatedPlacement(), queue_limit=1
        )
        spec = _job("a", 300, 100, workers=4)
        arrivals = [
            JobArrival(
                time=float(i),
                spec=spec.with_id(f"a{i}"),
                n_workers=4,
                lifetime=1000.0,
            )
            for i in range(3)
        ]
        service.submit_all(arrivals)
        stats = service.run()
        # a0 admitted, a1 queued (admitted after a0's departure via the
        # retry event), a2 bounced off the full queue.
        assert stats.admitted == 2
        assert stats.retry_admissions == 1
        assert stats.queued == 1
        assert stats.rejected == 1
        assert stats.peak_queue_depth == 1

    def test_network_jobs_tracked_in_engine(self):
        cluster = _cluster(n_racks=2, gpus=2)
        service = ClusterService(cluster, ConsolidatedPlacement())
        spec = _job("wide", 300, 100, workers=4)  # must span both racks
        service.submit_all(
            [JobArrival(time=0.0, spec=spec, n_workers=4, lifetime=3.0)]
        )
        stats = service.run(until=1.0)
        assert stats.admitted == 1
        assert "wide" in service.engine
        # The departure is beyond the horizon; draining past it removes.
        service.run()
        assert "wide" not in service.engine
        assert service.concurrent == 0

    def test_run_is_deterministic(self):
        def outcome():
            cluster = _cluster(n_racks=3, gpus=4)
            service = ClusterService(
                cluster,
                CompatibilityAwarePlacement(),
                queue_limit=8,
            )
            service.submit_all(
                poisson_arrivals(
                    30, seed=11, mean_interarrival_s=20.0,
                    mean_lifetime_s=120.0,
                )
            )
            stats = service.run()
            return [r.to_dict() for r in stats.records]

        assert outcome() == outcome()

    def test_invalid_arrivals_rejected(self):
        cluster = _cluster()
        service = ClusterService(cluster, ConsolidatedPlacement())
        spec = _job("x", 300, 100)
        with pytest.raises(SimulationError):
            service.submit(
                JobArrival(time=-1.0, spec=spec, n_workers=2, lifetime=1.0)
            )
        with pytest.raises(SimulationError):
            service.submit(
                JobArrival(time=0.0, spec=spec, n_workers=2, lifetime=0.0)
            )
        for n_workers in (0, -3):
            with pytest.raises(SimulationError, match="n_workers"):
                service.submit(
                    JobArrival(
                        time=0.0, spec=spec, n_workers=n_workers,
                        lifetime=1.0,
                    )
                )
        assert service.run().records == []
        with pytest.raises(SimulationError):
            ClusterService(
                cluster, ConsolidatedPlacement(), queue_limit=-1
            )

    def test_arrival_behind_the_clock_rejected(self):
        arrivals = poisson_arrivals(
            8, seed=3, mean_interarrival_s=20.0, mean_lifetime_s=600.0
        )
        service = ClusterService(
            _cluster(n_racks=4), ConsolidatedPlacement(), queue_limit=4
        )
        service.submit_all(arrivals[3:])
        service.run(until=arrivals[-1].time)
        with pytest.raises(SimulationError, match="behind the service"):
            service.submit(arrivals[0])
        # An arrival at exactly the clock is accepted, and every record
        # stays in time order.
        service.submit(
            dataclasses.replace(arrivals[0], time=arrivals[-1].time)
        )
        times = [record.time for record in service.run().records]
        assert times == sorted(times)

    def test_clock_includes_the_last_until(self):
        service = ClusterService(_cluster(), ConsolidatedPlacement())
        service.run(until=50.0)
        spec = _job("x", 300, 100)
        with pytest.raises(SimulationError, match="behind the service"):
            service.submit(
                JobArrival(time=49.0, spec=spec, n_workers=2, lifetime=1.0)
            )
        service.submit(
            JobArrival(time=50.0, spec=spec, n_workers=2, lifetime=1.0)
        )
        assert [r.outcome for r in service.run().records] == ["admitted"]

    def test_engine_profiles_with_the_policy_checker(self):
        checker = CompatibilityChecker(capacity=gbps(10))
        policy = CompatibilityAwarePlacement(checker=checker)
        service = ClusterService(_cluster(), policy)
        assert service.engine.checker is checker
        assert policy.engine is service.engine
        spec = _job("x", 300, 100)
        assert service.engine.circle(spec) == checker.circle(spec)
        assert service.engine.circle(spec) != (
            CompatibilityChecker().circle(spec)
        )


class TestClusterWideAudit:
    """Satellite: the cluster-wide audit differs from per-link checks.

    Fixture: A spans racks 0-1, B racks 0-2, C racks 3-2 on a one-spine
    fabric, so A and B share exactly one link (rack 0's uplink) and B and
    C share exactly one other (rack 2's downlink). A and B are pairwise
    infeasible (250 ms comm each of a 400 ms period); B and C fit
    (250 + 100 <= 400). The legacy per-link audit looks only at the
    arriving job's links: C's links are clean in isolation, so it calls
    C compatible. The cluster-wide audit sees C join the connected
    component {A, B, C}, which admits no rotation assignment at all.
    """

    def _fixture(self):
        plan = {
            "A": ["h0_0", "h1_0"],
            "B": ["h0_0", "h2_0"],
            "C": ["h3_0", "h2_0"],
        }
        arrivals = [
            JobArrival(
                time=float(i),
                spec=spec,
                n_workers=2,
                lifetime=1000.0,
            )
            for i, spec in enumerate(
                [
                    _job("A", 150, 250),
                    _job("B", 150, 250),
                    _job("C", 300, 100),
                ]
            )
        ]
        return plan, arrivals

    def _legacy_per_link_audit(self, cluster, checker, job_id):
        """The old audit: each of the job's links checked independently."""
        job = cluster.job(job_id)
        for sharers in cluster.jobs_sharing_links_with(job.links).values():
            specs = [j.spec for j in sharers if j.uses_network]
            if len(specs) >= 2 and not checker.check(specs).compatible:
                return False
        return True

    def test_audits_disagree_on_three_job_two_link_fixture(self):
        checker = CompatibilityChecker(capacity=CAP)
        plan, arrivals = self._fixture()

        cluster = _cluster(n_racks=4, gpus=4)
        service = ClusterService(
            cluster, FixedPlacement(plan), checker=checker, queue_limit=0
        )
        service.submit_all(arrivals)
        stats = service.run(until=arrivals[-1].time)
        assert stats.admitted == 3
        # Cluster-wide: B makes {A, B} unsatisfiable, and C *joins* that
        # component, so only A's arrival was compatible.
        assert stats.compatible_admissions == 1
        assert stats.incompatible_admissions == 2

        # Legacy audit of the same end state: C's own links are clean
        # (its only contended link carries the feasible pair {B, C}), so
        # the per-link relaxation calls C compatible — the cluster-wide
        # audit above counted C incompatible. That is the divergence.
        legacy_verdicts = {
            job_id: self._legacy_per_link_audit(cluster, checker, job_id)
            for job_id in ("A", "B", "C")
        }
        assert legacy_verdicts == {"A": False, "B": False, "C": True}

    def test_engine_verdict_pins_the_shared_component(self):
        checker = CompatibilityChecker(capacity=CAP)
        plan, arrivals = self._fixture()
        cluster = _cluster(n_racks=4, gpus=4)
        service = ClusterService(
            cluster, FixedPlacement(plan), checker=checker, queue_limit=0
        )
        service.submit_all(arrivals)
        stats = service.run(until=10.0)
        by_job = {
            r.job_id: r for r in stats.records if r.outcome == "admitted"
        }
        assert by_job["A"].compatible is True
        assert by_job["B"].compatible is False
        assert by_job["C"].compatible is False
        assert by_job["C"].slowdown_proxy > 1.0
        assert service.engine.components() == [["A", "B", "C"]]


class TestReplayShim:
    """A batch replay on the service: no admission queue, run to the
    last arrival."""

    def test_replay_matches_legacy_counters(self):
        cluster = _cluster(n_racks=1, gpus=4)
        spec = _job("short", 300, 100, workers=4)
        arrivals = [
            JobArrival(time=0.0, spec=spec, n_workers=4, lifetime=1.0),
            JobArrival(
                time=10.0,
                spec=spec.with_id("later"),
                n_workers=4,
                lifetime=1.0,
            ),
        ]
        service = ClusterService(
            cluster, ConsolidatedPlacement(), queue_limit=0
        )
        service.submit_all(arrivals)
        stats = service.run(until=arrivals[-1].time)
        assert stats.admitted == 2
        assert stats.rejected == 0
        assert stats.compatibility_rate == 1.0
        # Like the legacy sweep, jobs outliving the last arrival stay.
        assert [job.job_id for job in cluster.jobs] == ["later"]


class TestClusterReportEmpty:
    """Satellite: empty reports return NaN instead of raising/warning."""

    def test_empty_report_slowdowns_are_nan(self):
        import warnings

        report = ClusterReport()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # empty np.mean would warn
            assert math.isnan(report.mean_slowdown)
            assert math.isnan(report.max_slowdown)
        assert report.jobs_at_solo_speed == 0

    def test_populated_report_unchanged(self):
        report = ClusterReport(slowdown={"a": 1.0, "b": 1.5})
        assert report.mean_slowdown == pytest.approx(1.25)
        assert report.max_slowdown == pytest.approx(1.5)


def _service_specs(seeds: Sequence[int] = (0, 1)) -> List[RunSpec]:
    return [
        RunSpec(
            backend="service",
            label=f"svc-{seed}",
            seed=seed,
            options=(
                ("n_arrivals", 25),
                ("mean_interarrival_s", 15.0),
                ("mean_lifetime_s", 120.0),
                ("placement", "compatibility-aware"),
                ("n_racks", 3),
                ("hosts_per_rack", 1),
                ("gpus_per_host", 4),
            ),
        )
        for seed in seeds
    ]


class TestServiceBackend:
    def test_serial_and_parallel_results_identical(self):
        serial = run_many(_service_specs(), jobs=1, cache=False)
        parallel = run_many(_service_specs(), jobs=4, cache=False)
        assert [r.data for r in serial] == [r.data for r in parallel]

    def test_results_cache_and_replay(self, tmp_path):
        specs = _service_specs(seeds=(7,))
        first = run_many(specs, jobs=1, cache=True, cache_dir=tmp_path)
        second = run_many(specs, jobs=1, cache=True, cache_dir=tmp_path)
        assert first[0].data == second[0].data
        assert first[0].spec_hash == specs[0].content_hash()

    def test_cache_entries_byte_identical_across_runs(self, tmp_path):
        # Wall-clock placement latency must stay out of the cached
        # telemetry, or two runs of one spec write different bytes.
        specs = _service_specs(seeds=(7,))
        for name in ("a", "b"):
            run_many(specs, jobs=1, cache=True, cache_dir=tmp_path / name)
        entries = {
            name: {
                path.name: path.read_bytes()
                for path in sorted((tmp_path / name).glob("*.json"))
            }
            for name in ("a", "b")
        }
        assert entries["a"] and entries["a"] == entries["b"]

    def test_placement_latency_from_worker_spans(self, tmp_path):
        specs = _service_specs(seeds=(7,))

        def run():
            session = Telemetry(name="service-test")
            with use(session):
                run_many(specs, jobs=1, cache=True, cache_dir=tmp_path)
                return session, placement_latency_line()

        cold, line = run()
        spans = [
            span for span in cold.spans.completed
            if span.name == "service.place"
        ]
        assert spans
        assert all(
            span.path == "runner.worker/svc-7/service.place"
            for span in spans
        )
        assert re.fullmatch(
            rf"placement latency: p50 \S+ ms, p99 \S+ ms "
            rf"over {len(spans)} placements",
            line,
        )
        # A cache hit replays results and telemetry but no wall clock.
        warm, line = run()
        assert int(warm.counter("runner.cache.hits").value) == 1
        assert line == "placement latency: - (cache hits or telemetry off)"


class TestFatTreeService:
    """The service backend on a three-tier fat-tree fabric, passed in as
    ``RunSpec.topology``."""

    @staticmethod
    def _spec(seed=0, **extra):
        options = {
            "n_arrivals": 20,
            "mean_interarrival_s": 15.0,
            "mean_lifetime_s": 120.0,
            "placement": "compatibility-aware",
            "gpus_per_host": 4,
        }
        options.update(extra)
        return RunSpec(
            backend="service",
            label=f"svc-fattree-{seed}",
            seed=seed,
            options=tuple(sorted(options.items())),
            topology=Topology.fat_tree(k=4, host_capacity=CAP),
        )

    def test_fat_tree_recipe_places_jobs(self):
        [result] = run_many([self._spec()], jobs=1, cache=False)
        assert result.data["admitted"] > 0

    def test_cluster_level_option_refused(self):
        # The service's engine scores candidates cluster-wide already;
        # the option was never read and only split the cache.
        with pytest.raises(ConfigError, match="cluster_level"):
            run_many(
                [self._spec(cluster_level=True)], jobs=1, cache=False
            )

    def test_fat_tree_service_is_deterministic(self):
        spec = self._spec()
        assert spec.cacheable()
        [first] = run_many([spec], jobs=1, cache=False)
        [second] = run_many([spec], jobs=1, cache=False)
        assert first.data == second.data
        assert first.data["admitted"] > 0

    def test_unknown_topology_recipe_rejected(self):
        # The fabric comes in as ``RunSpec.topology``; the backend builds
        # no fabric from a recipe name, so it refuses the option unread.
        for recipe in ("fat-tree", "torus"):
            with pytest.raises(ConfigError, match="'topology'"):
                run_many(
                    [self._spec(topology=recipe)], jobs=1, cache=False
                )

    def test_compat_placement_on_fat_tree_cluster(self):
        topology = Topology.fat_tree(4, host_capacity=CAP)
        cluster = ClusterState(
            topology, gpus_per_host=1, router=Router(topology)
        )
        # Racks are the fat tree's edge switches.
        racks = set(cluster.hosts_by_rack())
        assert "edge0_0" in racks and len(racks) == 8
        policy = CompatibilityAwarePlacement(cluster_level=True)
        hosts = policy.place(cluster, _job("a", 100, 40, workers=3), 3)
        assert len(hosts) == 3
        cluster.place(_job("a", 100, 40, workers=3), hosts)
        # Next job must spill across racks and still place cleanly.
        more = policy.place(cluster, _job("b", 100, 35, workers=4), 4)
        assert len(more) == 4
