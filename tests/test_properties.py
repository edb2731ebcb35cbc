"""Property-based tests (hypothesis) on the core invariants.

These pin down the algebra the whole reproduction rests on:

* arc-set algebra behaves like measurable sets on a circle;
* the exact feasible-rotation computation agrees with brute force;
* the fluid allocator conserves capacity and respects weights;
* the phase simulator conserves bytes;
* solver-claimed compatibility certificates always verify.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import swept_overlap

from repro.core.arcs import ArcSet
from repro.core.circle import JobCircle
from repro.core.optimize import (
    exact_pair_feasible_rotations,
    feasible_against,
    solve,
)
from repro.core.unified import UnifiedCircle
from repro.net.flows import Flow
from repro.net.fluid import FluidAllocator
from repro.net.topology import Link
from repro.switches.wfq import WeightedFairScheduler

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

perimeters = st.integers(min_value=2, max_value=200)


@st.composite
def arc_sets(draw, perimeter=None):
    p = perimeter if perimeter is not None else draw(perimeters)
    n = draw(st.integers(0, 5))
    arcs = [
        (draw(st.integers(-2 * p, 2 * p)), draw(st.integers(0, p)))
        for _ in range(n)
    ]
    return ArcSet(p, arcs)


@st.composite
def arc_set_pairs(draw):
    p = draw(perimeters)
    return draw(arc_sets(p)), draw(arc_sets(p))


@st.composite
def job_circles(draw, max_period=60):
    period = draw(st.integers(2, max_period))
    comm = draw(st.integers(1, period))
    return JobCircle.from_phases(
        draw(st.text("abcdefgh", min_size=1, max_size=4)) or "j",
        period - comm,
        comm,
    )


# ---------------------------------------------------------------------------
# Arc algebra
# ---------------------------------------------------------------------------

class TestArcAlgebraProperties:
    @given(arc_set_pairs())
    def test_union_measure_inclusion_exclusion(self, pair):
        a, b = pair
        assert a.union(b).measure == (
            a.measure + b.measure - a.intersection(b).measure
        )

    @given(arc_set_pairs())
    def test_intersection_bounded(self, pair):
        a, b = pair
        inter = a.intersection(b)
        assert inter.measure <= min(a.measure, b.measure)

    @given(arc_sets())
    def test_complement_partitions(self, s):
        assert s.measure + s.complement().measure == s.perimeter
        assert s.intersection(s.complement()).is_empty

    @given(arc_sets(), st.integers(-500, 500))
    def test_rotation_preserves_measure(self, s, delta):
        assert s.rotate(delta).measure == s.measure

    @given(arc_sets(), st.integers(-500, 500))
    def test_rotation_inverse(self, s, delta):
        assert s.rotate(delta).rotate(-delta) == s

    @given(arc_sets(), st.integers(1, 4))
    def test_tiling_scales_measure(self, s, k):
        tiled = s.tile(s.perimeter * k)
        assert tiled.measure == s.measure * k

    @given(arc_set_pairs())
    def test_intersects_iff_positive_overlap(self, pair):
        a, b = pair
        assert a.intersects(b) == (a.overlap_length(b) > 0)

    @given(arc_sets())
    def test_gaps_complement_measure(self, s):
        gap_total = sum(length for _, length in s.gaps())
        assert gap_total == s.perimeter - s.measure

    @given(arc_set_pairs())
    def test_coverage_consistent_with_measures(self, pair):
        a, b = pair
        segments = ArcSet.coverage([a, b])
        weighted = sum((e - s) * c for s, e, c in segments)
        assert weighted == a.measure + b.measure


# ---------------------------------------------------------------------------
# Feasible rotations vs brute force
# ---------------------------------------------------------------------------

class TestFeasibilityProperties:
    @settings(max_examples=40, deadline=None)
    @given(job_circles(max_period=30), job_circles(max_period=30))
    def test_pair_feasible_set_matches_brute_force(self, first, second):
        first = JobCircle.from_phases("a", first.perimeter - first.comm_ticks,
                                      first.comm_ticks)
        second = JobCircle.from_phases(
            "b", second.perimeter - second.comm_ticks, second.comm_ticks
        )
        feasible = exact_pair_feasible_rotations(first, second)
        for delta in range(second.perimeter):
            expected = swept_overlap([first, second], {"b": delta}) == 0
            assert feasible.contains(delta) == expected

    @settings(max_examples=40, deadline=None)
    @given(arc_sets(perimeter=60), job_circles(max_period=30))
    def test_feasible_rotations_match_brute_force(self, placed, circle):
        # ``placed`` is one fixed job's arcs, held at rotation 0. The
        # job's period need not divide 60: both tile onto their LCM.
        circle = JobCircle.from_phases(
            "j", circle.perimeter - circle.comm_ticks, circle.comm_ticks
        )
        feasible = feasible_against(circle, [(JobCircle("p", placed), 0)])
        unified = math.lcm(60, circle.perimeter)
        tiled = placed.tile(unified)
        for delta in range(circle.perimeter):
            rotated = circle.rotate(delta).tiled_comm(unified)
            assert feasible.contains(delta) == (
                not tiled.intersects(rotated)
            )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_circles(max_period=40), min_size=2, max_size=3))
    def test_solver_certificates_verify(self, circles):
        # Re-id to avoid duplicates.
        circles = [
            JobCircle.from_phases(
                f"j{i}", c.perimeter - c.comm_ticks, c.comm_ticks
            )
            for i, c in enumerate(circles)
        ]
        outcome = solve(circles, seed=0)
        if outcome.found:
            assert swept_overlap(circles, outcome.rotations) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(job_circles(max_period=40), min_size=2, max_size=3))
    def test_infeasibility_by_utilization_is_sound(self, circles):
        circles = [
            JobCircle.from_phases(
                f"j{i}", c.perimeter - c.comm_ticks, c.comm_ticks
            )
            for i, c in enumerate(circles)
        ]
        unified = UnifiedCircle(circles)
        if unified.utilization_lower_bound() > 1.0:
            outcome = solve(circles, seed=0)
            assert not outcome.found


# ---------------------------------------------------------------------------
# Fluid allocation invariants
# ---------------------------------------------------------------------------

class TestAllocatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.1, 10.0),    # weight
                st.integers(0, 2),       # priority
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_single_link_conservation_and_nonneg(self, flow_params):
        link = Link("a", "b", 1e9, name="L")
        flows = [
            Flow(
                flow_id=f"f{i}", src="a", dst="b", links=[link],
                weight=w, priority=p, job_id=f"f{i}",
            )
            for i, (w, p) in enumerate(flow_params)
        ]
        alloc = FluidAllocator().allocate(flows)
        total = sum(alloc.rate_of(f) for f in flows)
        assert total <= link.capacity * (1 + 1e-9)
        assert all(alloc.rate_of(f) >= 0 for f in flows)
        # Work conservation: a saturating class exists, so the link fills.
        assert total >= link.capacity * (1 - 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=2, max_size=5))
    def test_single_link_weighted_shares(self, weights):
        link = Link("a", "b", 1e9, name="L")
        flows = [
            Flow(flow_id=f"f{i}", src="a", dst="b", links=[link], weight=w)
            for i, w in enumerate(weights)
        ]
        alloc = FluidAllocator().allocate(flows)
        total_weight = sum(weights)
        for flow, weight in zip(flows, weights):
            expected = link.capacity * weight / total_weight
            assert alloc.rate_of(flow) == np.float64(expected) or abs(
                alloc.rate_of(flow) - expected
            ) < 1e-3 * link.capacity

    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.text("xyz", min_size=1, max_size=3),
            st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 1e9)),
            min_size=1,
            max_size=5,
        )
    )
    def test_wfq_never_exceeds_demand_or_capacity(self, demands):
        sched = WeightedFairScheduler(1e9)
        rates = sched.service_rates(demands)
        assert sum(rates.values()) <= 1e9 * (1 + 1e-9)
        for flow_id, (_, demand) in demands.items():
            assert rates[flow_id] <= demand * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Phase simulator conservation
# ---------------------------------------------------------------------------

class TestSimulatorProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(50, 300),   # compute ms (J1)
        st.integers(20, 200),   # comm ms (J1)
        st.integers(50, 300),   # compute ms (J2)
        st.integers(20, 200),   # comm ms (J2)
        st.sampled_from(["fair", "weighted"]),
    )
    def test_bytes_conserved_and_iterations_complete(
        self, c1, m1, c2, m2, policy_name
    ):
        from repro.cc.factory import make_policy
        from repro.net.phasesim import PhaseLevelSimulator
        from repro.net.topology import Topology
        from repro.units import gbps, ms
        from repro.workloads.job import JobSpec

        cap = gbps(42)
        specs = [
            JobSpec("J1", ms(c1), ms(m1) * cap),
            JobSpec("J2", ms(c2), ms(m2) * cap),
        ]
        policy = (
            make_policy("fair")
            if policy_name == "fair"
            else make_policy("weighted", order=["J1", "J2"])
        )
        topo = Topology.dumbbell(
            hosts_per_side=2, host_capacity=cap, bottleneck_capacity=cap
        )
        sim = PhaseLevelSimulator(topo, policy)
        for i, spec in enumerate(specs):
            sim.add_job(spec, f"ha{i}", f"hb{i}", n_iterations=5)
        result = sim.run()
        for spec in specs:
            run = result.jobs[spec.job_id]
            assert len(run.records) == 5
            for record in run.records:
                moved = run.rate_trace.integrate(
                    record.comm_start, record.end
                )
                assert abs(moved - spec.comm_bytes) <= max(
                    2.0, spec.comm_bytes * 1e-6
                )
            # Iterations can never beat the dedicated-network bound.
            solo = spec.solo_iteration_time(cap)
            assert all(
                record.duration >= solo * (1 - 1e-9)
                for record in run.records
            )
