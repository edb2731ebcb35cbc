"""Metamorphic tests: transformations that must not change outcomes.

Each test applies a symmetry of the model — time scaling, joint
capacity/byte scaling, uniform weight scaling, job relabelling — and
asserts the simulator and solvers respect it. These catch unit mix-ups
and hidden absolute constants that example-based tests miss.
"""

import numpy as np
import pytest

from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.core.circle import JobCircle
from repro.core.optimize import solve
from repro.net.phasesim import PhaseLevelSimulator
from repro.net.topology import Topology
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _run(specs, policy, capacity, n_iterations=12, seed=0):
    topo = Topology.dumbbell(
        hosts_per_side=len(specs),
        host_capacity=capacity,
        bottleneck_capacity=capacity,
    )
    sim = PhaseLevelSimulator(topo, policy, seed=seed)
    for i, spec in enumerate(specs):
        sim.add_job(spec, f"ha{i}", f"hb{i}", n_iterations=n_iterations)
    return sim.run()


def _pair(compute_ms=100, comm_ms=110, capacity=CAP):
    return [
        JobSpec("J1", ms(compute_ms), ms(comm_ms) * capacity),
        JobSpec("J2", ms(compute_ms), ms(comm_ms) * capacity),
    ]


class TestTimeScaling:
    def test_scaling_all_durations_scales_results(self):
        base = _run(_pair(100, 110), FairSharing(), CAP)
        scaled = _run(_pair(200, 220), FairSharing(), CAP)
        np.testing.assert_allclose(
            scaled.iteration_times("J1"),
            2 * base.iteration_times("J1"),
            rtol=1e-9,
        )

    def test_scaling_under_unfairness_too(self):
        policy = lambda: StaticWeighted.from_aggressiveness_order(
            ["J1", "J2"]
        )
        base = _run(_pair(100, 110), policy(), CAP)
        scaled = _run(_pair(300, 330), policy(), CAP)
        np.testing.assert_allclose(
            scaled.iteration_times("J2"),
            3 * base.iteration_times("J2"),
            rtol=1e-9,
        )


class TestCapacityScaling:
    def test_joint_capacity_and_bytes_scaling_is_identity(self):
        base = _run(_pair(100, 110, CAP), FairSharing(), CAP)
        double = _run(
            _pair(100, 110, 2 * CAP), FairSharing(), 2 * CAP
        )
        np.testing.assert_allclose(
            base.iteration_times("J1"),
            double.iteration_times("J1"),
            rtol=1e-9,
        )

    def test_doubling_capacity_halves_comm_time_only(self):
        spec = [JobSpec("J", ms(100), ms(100) * CAP)]
        base = _run(spec, FairSharing(), CAP)
        fast = _run(spec, FairSharing(), 2 * CAP)
        assert base.iteration_times("J")[0] == pytest.approx(ms(200))
        assert fast.iteration_times("J")[0] == pytest.approx(ms(150))


class TestWeightScaling:
    def test_uniform_weight_scale_changes_nothing(self):
        a = _run(
            _pair(),
            StaticWeighted({"J1": 2.0, "J2": 1.0}),
            CAP,
        )
        b = _run(
            _pair(),
            StaticWeighted({"J1": 20.0, "J2": 10.0}),
            CAP,
        )
        np.testing.assert_allclose(
            a.iteration_times("J1"), b.iteration_times("J1"), rtol=1e-9
        )
        np.testing.assert_allclose(
            a.iteration_times("J2"), b.iteration_times("J2"), rtol=1e-9
        )


class TestRelabelling:
    def test_job_names_do_not_matter_to_geometry(self):
        a = [
            JobCircle.from_phases("alpha", 60, 40),
            JobCircle.from_phases("beta", 55, 45),
        ]
        b = [
            JobCircle.from_phases("x1", 60, 40),
            JobCircle.from_phases("x2", 55, 45),
        ]
        assert solve(a).found == solve(b).found

    def test_circle_order_does_not_change_verdict(self):
        circles = [
            JobCircle.from_phases("a", 280, 50),
            JobCircle.from_phases("b", 280, 50),
            JobCircle.from_phases("c", 157, 8),
        ]
        forward = solve(circles)
        backward = solve(list(reversed(circles)))
        assert forward.found == backward.found

    def test_geometry_scale_invariance(self):
        # Scaling every tick count by k preserves compatibility.
        base = [
            JobCircle.from_phases("a", 30, 10),
            JobCircle.from_phases("b", 50, 10),
        ]
        scaled = [
            JobCircle.from_phases("a", 300, 100),
            JobCircle.from_phases("b", 500, 100),
        ]
        assert solve(base).found == solve(scaled).found


class TestIsolationInvariance:
    def test_disjoint_jobs_do_not_interact(self):
        # Two jobs on separate dumbbells vs together on one wide fabric
        # with disjoint paths: identical results.
        solo = _run(
            [JobSpec("J1", ms(100), ms(110) * CAP)], FairSharing(), CAP
        )
        topo = Topology.leaf_spine(
            n_racks=4, hosts_per_rack=1, n_spines=2,
            host_capacity=CAP, uplink_capacity=CAP,
        )
        sim = PhaseLevelSimulator(topo, FairSharing())
        sim.add_job(
            JobSpec("J1", ms(100), ms(110) * CAP), "h0_0", "h1_0",
            n_iterations=12,
        )
        sim.add_job(
            JobSpec("J2", ms(100), ms(110) * CAP), "h2_0", "h3_0",
            n_iterations=12,
        )
        together = sim.run()
        # Paths may share a spine under deterministic shortest-path
        # routing; assert only when they are truly disjoint.
        j1_links = {l.name for l in together.jobs["J1"].flow.links}
        j2_links = {l.name for l in together.jobs["J2"].flow.links}
        if j1_links.isdisjoint(j2_links):
            np.testing.assert_allclose(
                together.iteration_times("J1"),
                solo.iteration_times("J1"),
                rtol=1e-9,
            )

    def test_seed_changes_nothing_without_jitter(self):
        a = _run(_pair(), FairSharing(), CAP, seed=1)
        b = _run(_pair(), FairSharing(), CAP, seed=99)
        np.testing.assert_allclose(
            a.iteration_times("J1"), b.iteration_times("J1")
        )


class TestZeroEventScheduleIsIdentity:
    """An empty injection schedule is the documented no-op.

    Attaching ``InjectionSchedule()`` to a spec must be bit-identical to
    attaching no schedule at all, on *every* registered backend: the
    empty schedule collapses to the single NORMAL window and takes the
    exact same code path as a clean run. The specs below must cover the
    whole backend registry, so a newly registered backend fails this
    test until it gets a metamorphic cell here.
    """

    @staticmethod
    def _specs():
        from repro.runner import RunSpec, ScenarioSpec, SenderSpec
        from repro.units import gbps

        placements = (
            (
                JobSpec("J1", ms(10), ms(5) * CAP, n_workers=2),
                ("h0_0", "h1_0"),
            ),
        )
        return {
            "phase": RunSpec(
                backend="phase",
                seed=0,
                jobs=tuple(_pair()),
                policy=FairSharing(),
                n_iterations=6,
                capacity=CAP,
            ),
            "fluid": RunSpec(
                backend="fluid",
                seed=7,
                capacity=gbps(50),
                duration=0.02,
                options=(("dt", 20e-6),),
                scenarios=(
                    ScenarioSpec(
                        "only",
                        (
                            SenderSpec(
                                "J1",
                                125e-6,
                                compute_time=0.0015,
                                comm_bytes=gbps(50) * 0.001,
                            ),
                        ),
                    ),
                ),
            ),
            "cluster": RunSpec(
                backend="cluster",
                seed=0,
                policy=FairSharing(),
                topology=Topology.leaf_spine(
                    n_racks=2, hosts_per_rack=1, n_spines=1,
                    host_capacity=CAP, uplink_capacity=CAP,
                ),
                n_iterations=5,
                capacity=CAP,
                options=(
                    ("placements", placements),
                    ("warmup_iterations", 1),
                ),
            ),
            "service": RunSpec(
                backend="service",
                seed=3,
                capacity=CAP,
                options=(
                    ("n_arrivals", 8),
                    ("mean_interarrival_s", 30.0),
                    ("mean_lifetime_s", 120.0),
                    ("placement", "compatibility-aware"),
                    ("n_racks", 2),
                    ("hosts_per_rack", 2),
                    ("gpus_per_host", 4),
                ),
            ),
        }

    def test_every_builtin_backend_is_covered(self):
        # Experiment modules may register extra backends at import time
        # (e.g. sweep's point backend, a thin wrapper over a built-in),
        # so scope the coverage check to the built-in registry.
        from repro.runner import backends

        builtin = sorted(
            name
            for name in backends.backend_names()
            if type(backends.get_backend(name)).__module__
            == "repro.runner.backends"
        )
        assert sorted(self._specs()) == builtin

    @pytest.mark.parametrize(
        "name", ["cluster", "fluid", "phase", "service"]
    )
    def test_empty_schedule_bit_identical_to_none(self, name):
        import json

        from repro import io
        from repro.faults import InjectionSchedule
        from repro.runner import execute

        spec = self._specs()[name]
        clean = execute(spec)
        empty = execute(spec.replace(faults=InjectionSchedule()))
        fingerprint = lambda result: json.dumps(
            io.run_result_to_dict(result),
            sort_keys=True,
            separators=(",", ":"),
        )
        assert fingerprint(clean) == fingerprint(empty)
