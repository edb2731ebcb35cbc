"""Property-based tests for the extension subsystems.

Covers invariants the first property suite predates: cluster-level
certificates, fractional-vs-integer overlap consistency, profiler
round-trips, gate admissibility, single-port scheduler equivalences, and
serialization round-trips.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.circle import JobCircle
from repro.core.cluster_compat import ClusterCompatibilityProblem
from repro.core.rotation import CommWindow
from repro.core.unified import UnifiedCircle
from repro.io import job_spec_from_dict, job_spec_to_dict
from repro.mechanisms.flow_scheduling import PeriodicGate
from repro.net.flows import Flow
from repro.net.fluid import FluidAllocator
from repro.net.topology import Link
from repro.switches.priority import StrictPriorityScheduler
from repro.units import gbps
from repro.workloads.job import JobSpec
from repro.workloads.profiler import profile_trace
from repro.workloads.traces import demand_trace


@st.composite
def circle_params(draw, max_period=60):
    period = draw(st.integers(4, max_period))
    comm = draw(st.integers(1, period - 1))
    return period - comm, comm


class TestClusterCompatProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(circle_params(max_period=40), min_size=3, max_size=4))
    def test_chain_solutions_verify_per_link(self, params):
        circles = [
            JobCircle.from_phases(f"j{i}", compute, comm)
            for i, (compute, comm) in enumerate(params)
        ]
        links_by_job = {}
        for index in range(len(circles)):
            links = []
            if index > 0:
                links.append(f"L{index - 1}")
            if index < len(circles) - 1:
                links.append(f"L{index}")
            links_by_job[f"j{index}"] = links
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, links_by_job
        )
        result = problem.solve()
        if result.compatible:
            # Certificate must hold on every contended link.
            sharers_of = {}
            for job_id, links in links_by_job.items():
                for link in links:
                    sharers_of.setdefault(link, set()).add(job_id)
            for link, sharers in sharers_of.items():
                if len(sharers) < 2:
                    continue
                sub = [c for c in circles if c.job_id in sharers]
                rotations = {j: result.rotations[j] for j in sharers}
                assert UnifiedCircle(sub).overlap_ticks(rotations) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(circle_params(max_period=40), min_size=2, max_size=3))
    def test_single_shared_link_matches_plain_solver(self, params):
        from repro.core.optimize import solve

        circles = [
            JobCircle.from_phases(f"j{i}", compute, comm)
            for i, (compute, comm) in enumerate(params)
        ]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, {c.job_id: ["L"] for c in circles}
        )
        cluster_result = problem.solve()
        plain = solve(circles, seed=0)
        if plain.found:
            assert cluster_result.compatible
        if plain.complete and not plain.found:
            assert not cluster_result.compatible


class TestFractionalConsistency:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(circle_params(max_period=50), min_size=2, max_size=3))
    def test_full_demand_matches_integer_coverage(self, params):
        circles = [
            JobCircle.from_phases(f"j{i}", compute, comm, demand=1.0)
            for i, (compute, comm) in enumerate(params)
        ]
        unified = UnifiedCircle(circles)
        assert unified.fractional_overlap_ticks() == (
            unified.overlap_ticks()
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(circle_params(max_period=50), min_size=2, max_size=3),
        st.floats(0.1, 0.5),
    )
    def test_small_demands_never_overlap_capacity_one(self, params, demand):
        # If demands sum below capacity, no point can exceed it.
        if demand * len(params) > 1.0:
            return
        circles = [
            JobCircle.from_phases(f"j{i}", compute, comm, demand=demand)
            for i, (compute, comm) in enumerate(params)
        ]
        unified = UnifiedCircle(circles)
        assert unified.fractional_overlap_ticks() == 0


class TestProfilerRoundtrip:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(20, 400),   # compute ms
        st.integers(10, 300),   # comm ms
        st.integers(4, 8),      # iterations
    )
    def test_profile_recovers_spec(self, compute_ms, comm_ms, n):
        cap = gbps(42)
        spec = JobSpec(
            "j",
            compute_time=compute_ms * 1e-3,
            comm_bytes=comm_ms * 1e-3 * cap,
        )
        trace = demand_trace(spec, cap, n_iterations=n)
        horizon = n * spec.solo_iteration_time(cap)
        profile = profile_trace(trace, 0.0, horizon)
        assert abs(profile.compute_time - spec.compute_time) < 1e-9
        assert abs(
            profile.comm_time - spec.solo_comm_time(cap)
        ) < 1e-9
        assert abs(profile.bandwidth_demand - cap) < 1.0


class TestGateProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 80),    # window start
        st.integers(1, 20),    # window length
        st.floats(0.0, 0.5),   # query time
    )
    def test_gate_admits_inside_its_windows_only(self, start, length, now):
        period = 100
        window = CommWindow(
            job_id="j", start=start, length=length, period=period
        )
        gate = PeriodicGate([window], ticks_per_second=1000)
        admitted = gate("j", now)
        assert admitted >= now - 1e-12
        # The admitted instant lies inside a window occurrence.
        phase = (admitted % (period / 1000)) * 1000
        assert start - 1e-6 <= phase <= start + length + 1e-6

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 0.5))
    def test_gate_is_idempotent_at_admission(self, now):
        window = CommWindow(job_id="j", start=25, length=10, period=100)
        gate = PeriodicGate([window], ticks_per_second=1000)
        admitted = gate("j", now)
        assert gate("j", admitted) == admitted


class TestSchedulerEquivalences:
    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 5),
            st.floats(0.0, 2e9),
            min_size=1,
            max_size=5,
        )
    )
    def test_strict_priority_matches_fluid_allocator(self, demands):
        capacity = 1e9
        port = StrictPriorityScheduler(capacity)
        port_rates = port.service_rates(demands)

        link = Link("a", "b", capacity, name="L")
        flows = [
            Flow(
                flow_id=f"f{priority}", src="a", dst="b", links=[link],
                priority=priority, rate_cap=demand if demand > 0 else 1e-9,
                job_id=f"f{priority}",
            )
            for priority, demand in demands.items()
        ]
        alloc = FluidAllocator().allocate(flows)
        for flow in flows:
            expected = port_rates[flow.priority]
            assert abs(alloc.rate_of(flow) - expected) <= max(
                1e-3, expected * 1e-9
            )


class TestIoProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.text(
            "abcdefghijklmnopqrstuvwxyz-_0123456789",
            min_size=1,
            max_size=20,
        ),
        st.floats(0.0, 10.0),
        st.floats(1.0, 1e10),
        st.floats(0.0, 0.5),
        st.integers(1, 64),
    )
    def test_job_spec_roundtrip(self, job_id, compute, comm, jitter, workers):
        spec = JobSpec(
            job_id=job_id,
            compute_time=compute,
            comm_bytes=comm,
            compute_jitter=jitter,
            n_workers=workers,
        )
        assert job_spec_from_dict(job_spec_to_dict(spec)) == spec
