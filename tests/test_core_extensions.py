"""Tests for the §5 extensions: cluster-level compatibility, fractional
demands, hyper-parameter tuning, and multi-phase circles."""

import pytest

from repro.core.circle import JobCircle
from repro.core.cluster_compat import ClusterCompatibilityProblem
from repro.core.optimize import solve, solve_fractional
from repro.core.tuning import (
    TuningSuggestion,
    scale_compute,
    suggest_compute_scaling,
)
from repro.core.unified import UnifiedCircle
from repro.errors import CompatibilityError, GeometryError


class TestClusterCompatibility:
    def _chain(self, comm=120):
        circles = [
            JobCircle.from_phases(j, 300 - comm, comm)
            for j in ("a", "b", "c", "d")
        ]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles,
            {"a": ["L1"], "b": ["L1", "L2"], "c": ["L2", "L3"],
             "d": ["L3"]},
        )
        return circles, problem

    def test_chain_feasible_when_single_link_is_not(self):
        circles, problem = self._chain()
        assert not solve(circles).found  # 4 x 120 > 300
        result = problem.solve()
        assert result.compatible
        assert result.violated_links == []

    def test_solution_audits_clean_per_link(self):
        circles, problem = self._chain()
        result = problem.solve()
        # Verify per link: neighbours never overlap.
        for pair in (("a", "b"), ("b", "c"), ("c", "d")):
            sub = [c for c in circles if c.job_id in pair]
            unified = UnifiedCircle(sub)
            rotations = {j: result.rotations[j] for j in pair}
            assert unified.overlap_ticks(rotations) == 0, pair

    def test_non_neighbours_may_overlap(self):
        circles, problem = self._chain()
        result = problem.solve()
        # a and d share no link; nothing requires their arcs disjoint.
        # (With 4 x 120 on a 300 circle SOME non-neighbours must overlap.)
        overlaps = 0
        for pair in (("a", "c"), ("a", "d"), ("b", "d")):
            sub = [c for c in circles if c.job_id in pair]
            rotations = {j: result.rotations[j] for j in pair}
            overlaps += UnifiedCircle(sub).overlap_ticks(rotations)
        assert overlaps > 0

    def test_components_split_independent_jobs(self):
        circles = [
            JobCircle.from_phases(j, 100, 50) for j in ("a", "b", "c")
        ]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, {"a": ["L1"], "b": ["L1"], "c": ["L9"]}
        )
        assert problem.components() == [["a", "b"], ["c"]]

    def test_infeasible_neighbours_detected(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, {"a": ["L1"], "b": ["L1"]}
        )
        result = problem.solve()
        assert not result.compatible
        assert "L1" in result.violated_links

    def test_unknown_job_rejected(self):
        circles = [JobCircle.from_phases("a", 100, 50)]
        problem = ClusterCompatibilityProblem(circles)
        with pytest.raises(CompatibilityError):
            problem.assign("ghost", ["L1"])

    def test_duplicate_ids_rejected(self):
        circle = JobCircle.from_phases("a", 100, 50)
        with pytest.raises(CompatibilityError):
            ClusterCompatibilityProblem([circle, circle])

    def test_different_periods_on_chain(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),   # period 40
            JobCircle.from_phases("b", 50, 10),   # period 60
            JobCircle.from_phases("c", 30, 10),   # period 40
        ]
        problem = ClusterCompatibilityProblem.from_assignments(
            circles, {"a": ["L1"], "b": ["L1", "L2"], "c": ["L2"]}
        )
        result = problem.solve()
        assert result.compatible


class TestFractionalDemands:
    def test_half_demand_jobs_overlap_freely(self):
        circles = [
            JobCircle.from_phases("p", 40, 60, demand=0.5),
            JobCircle.from_phases("q", 40, 60, demand=0.5),
        ]
        outcome = solve_fractional(circles)
        assert outcome.found

    def test_full_demand_equivalent_to_classic(self):
        circles = [
            JobCircle.from_phases("p", 40, 60),
            JobCircle.from_phases("q", 40, 60),
        ]
        outcome = solve_fractional(circles)
        assert not outcome.found
        assert outcome.overlap >= 20

    def test_mixed_demands(self):
        # 0.6 + 0.6 > 1: the two big-demand jobs must avoid each other,
        # but each may overlap the 0.4 job.
        circles = [
            JobCircle.from_phases("big1", 60, 40, demand=0.6),
            JobCircle.from_phases("big2", 60, 40, demand=0.6),
            JobCircle.from_phases("small", 20, 80, demand=0.4),
        ]
        outcome = solve_fractional(circles, seed=1)
        assert outcome.found
        unified = UnifiedCircle(circles)
        assert unified.fractional_overlap_ticks(outcome.rotations) == 0

    def test_demand_coverage_levels(self):
        circles = [
            JobCircle.from_phases("p", 50, 50, demand=0.3),
            JobCircle.from_phases("q", 50, 50, demand=0.4),
        ]
        unified = UnifiedCircle(circles)
        levels = {
            round(level, 6)
            for _, _, level in unified.demand_coverage()
        }
        assert levels == {0.0, 0.7}

    def test_bad_capacity_rejected(self):
        circles = [JobCircle.from_phases("p", 50, 50)]
        with pytest.raises(GeometryError):
            UnifiedCircle(circles).fractional_overlap_ticks(capacity=0.0)
        with pytest.raises(CompatibilityError):
            solve_fractional(circles, capacity=0.0)


class TestTuning:
    def test_scale_compute_changes_period_only(self):
        circle = JobCircle.from_phases("j", 100, 110)
        scaled = scale_compute(circle, 1.1)
        assert scaled.perimeter == 220
        assert scaled.comm_ticks == 110

    def test_scale_multi_arc_rejected(self):
        circle = JobCircle.from_arcs("j", 100, [(10, 5), (50, 5)])
        with pytest.raises(CompatibilityError):
            scale_compute(circle, 1.1)

    def test_bad_scale_rejected(self):
        with pytest.raises(CompatibilityError):
            scale_compute(JobCircle.from_phases("j", 10, 10), 0.0)

    def test_already_compatible_returns_identity(self):
        circles = [
            JobCircle.from_phases("a", 210, 90),
            JobCircle.from_phases("b", 210, 90),
        ]
        suggestion = suggest_compute_scaling(circles)
        assert suggestion is not None
        assert suggestion.total_adjustment == 0.0
        assert suggestion.jobs_touched == 0

    def test_vgg_pair_fixed_by_small_bump(self):
        circles = [
            JobCircle.from_phases("a", 100, 110),
            JobCircle.from_phases("b", 100, 110),
        ]
        suggestion = suggest_compute_scaling(circles, max_scale_change=0.25)
        assert suggestion is not None
        assert suggestion.total_adjustment <= 0.25
        # Certificate verifies.
        unified = UnifiedCircle(list(suggestion.circles))
        assert unified.overlap_ticks(suggestion.rotations) == 0

    def test_hopeless_instance_returns_none(self):
        # Comm alone exceeds the circle even after max stretching.
        circles = [
            JobCircle.from_phases("a", 10, 200),
            JobCircle.from_phases("b", 10, 200),
        ]
        assert suggest_compute_scaling(
            circles, max_scale_change=0.1, steps=4
        ) is None

    def test_bad_args_rejected(self):
        with pytest.raises(CompatibilityError):
            suggest_compute_scaling([])
        with pytest.raises(CompatibilityError):
            suggest_compute_scaling(
                [JobCircle.from_phases("a", 10, 10)], max_scale_change=0.0
            )

    def test_jobs_touched_tolerates_float_noise(self):
        # Regression for the FP001 fix: a scale that differs from 1.0
        # only by accumulated rounding must not count as "touched".
        circles = (
            JobCircle.from_phases("a", 210, 90),
            JobCircle.from_phases("b", 210, 90),
        )
        suggestion = TuningSuggestion(
            scales={"a": 1.0 + 1e-12, "b": 1.05},
            circles=circles,
            rotations={"a": 0, "b": 0},
            total_adjustment=0.05,
        )
        assert suggestion.jobs_touched == 1


class TestMultiPhaseCircles:
    def test_multi_phase_compatibility(self):
        # Circles with two bursts per iteration (general arc geometry,
        # built with ``from_arcs``) interleave: each job's bursts fit in
        # the other's gaps.
        a = JobCircle.from_arcs("a", 140, [(40, 30), (110, 30)])
        b = JobCircle.from_arcs("b", 140, [(40, 30), (110, 30)])
        from repro.core.compatibility import CompatibilityChecker

        result = CompatibilityChecker().check_circles([a, b])
        assert result.compatible
