"""CompatibilityChecker facade, rotation conversions, and metrics tests."""

import numpy as np
import pytest

from repro.core.circle import JobCircle
from repro.core.compatibility import CompatibilityChecker
from repro.core.metrics import (
    compatibility_score,
    min_overlap,
    pairwise_compatibility_matrix,
)
from repro.core.rotation import (
    CommWindow,
    communication_schedule,
    degrees_to_rotation,
    rotation_to_degrees,
    rotation_to_seconds,
)
from repro.core.unified import UnifiedCircle
from repro.errors import CompatibilityError, GeometryError
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _spec(name, compute_ms, comm_ms):
    return JobSpec(
        job_id=name, compute_time=ms(compute_ms),
        comm_bytes=ms(comm_ms) * CAP,
    )


class TestChecker:
    def test_compatible_pair(self):
        result = CompatibilityChecker(capacity=CAP).check(
            [_spec("a", 210, 90), _spec("b", 210, 90)]
        )
        assert result.compatible
        assert result.certified
        assert result.overlap_ticks == 0
        assert set(result.rotations) == {"a", "b"}

    def test_rotations_are_a_real_certificate(self):
        checker = CompatibilityChecker(capacity=CAP)
        specs = [_spec("a", 210, 90), _spec("b", 210, 90)]
        result = checker.check(specs)
        circles = checker.circles(specs)
        assert UnifiedCircle(circles).overlap_ticks(result.rotations) == 0

    def test_incompatible_pair_certified(self):
        result = CompatibilityChecker(capacity=CAP).check(
            [_spec("a", 100, 110), _spec("b", 100, 110)]
        )
        assert not result.compatible
        assert result.certified
        assert result.utilization > 1.0

    def test_different_periods(self):
        # Figure 5: periods 40/60, arcs 10/10 -> compatible.
        result = CompatibilityChecker(capacity=CAP).check(
            [_spec("a", 30, 10), _spec("b", 50, 10)]
        )
        assert result.compatible
        assert result.unified_perimeter == 120

    def test_single_job_trivially_compatible(self):
        result = CompatibilityChecker(capacity=CAP).check(
            [_spec("only", 100, 50)]
        )
        assert result.compatible

    def test_empty_rejected(self):
        with pytest.raises(CompatibilityError):
            CompatibilityChecker().check([])

    def test_overlap_fraction(self):
        result = CompatibilityChecker(capacity=CAP).check(
            [_spec("a", 100, 110), _spec("b", 100, 110)]
        )
        assert 0 < result.overlap_fraction <= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(CompatibilityError):
            CompatibilityChecker(ticks_per_second=0)

    def test_table1_verdicts_match_paper(self):
        from repro.workloads.profiles import table1_groups

        checker = CompatibilityChecker()
        for group in table1_groups():
            result = checker.check(group.specs)
            assert result.compatible == group.paper_compatible, group.name
            assert result.certified, group.name


class TestRotationConversions:
    def test_degrees_roundtrip(self):
        assert rotation_to_degrees(10, 120) == pytest.approx(30.0)
        assert degrees_to_rotation(30.0, 120) == 10

    def test_degrees_wraps(self):
        assert rotation_to_degrees(130, 120) == pytest.approx(30.0)

    def test_seconds(self):
        assert rotation_to_seconds(250, 1000) == pytest.approx(0.25)

    def test_bad_inputs_rejected(self):
        with pytest.raises(GeometryError):
            rotation_to_degrees(1, 0)
        with pytest.raises(GeometryError):
            degrees_to_rotation(30.0, 0)
        with pytest.raises(GeometryError):
            rotation_to_seconds(1, 0)


class TestCommunicationSchedule:
    def test_windows_cover_comm(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),
            JobCircle.from_phases("b", 50, 10),
        ]
        rotations = {"a": 0, "b": 10}
        schedule = communication_schedule(circles, rotations)
        assert len(schedule["a"]) == 3  # tiles on the 120 circle
        assert len(schedule["b"]) == 2
        total_a = sum(w.length for w in schedule["a"])
        assert total_a == 30

    def test_compatible_windows_disjoint(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        schedule = communication_schedule(circles, {"a": 0, "b": 30})
        spans = [
            (w.start, w.start + w.length)
            for windows in schedule.values()
            for w in windows
        ]
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_window_period_is_unified(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),
            JobCircle.from_phases("b", 50, 10),
        ]
        schedule = communication_schedule(circles, {})
        assert all(
            w.period == 120
            for windows in schedule.values()
            for w in windows
        )


class TestMetrics:
    def test_overlap_ticks_at_zero_rotation(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        unified = UnifiedCircle(circles)
        assert unified.overlap_ticks() == 20
        assert unified.overlap_ticks({"b": 50}) == 0

    def test_min_overlap_compatible_is_zero(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        best, rotations = min_overlap(circles)
        assert best == 0
        assert UnifiedCircle(circles).overlap_ticks(rotations) == 0

    def test_min_overlap_incompatible_bounded_below(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        best, _ = min_overlap(circles)
        assert best >= 20  # 120 demand into a 100 period

    def test_min_overlap_anneals_once(self, monkeypatch):
        # solve's own last resort is the annealing run min_overlap
        # would repeat with the same circles and seed.
        from repro.core import metrics, optimize

        calls = []
        anneal = optimize.annealing_search

        def counting(*args, **kwargs):
            calls.append(args)
            return anneal(*args, **kwargs)

        monkeypatch.setattr(optimize, "annealing_search", counting)
        monkeypatch.setattr(metrics, "annealing_search", counting)
        # Every pair of these fits and the three do not. Skipping the
        # complete DFS, whose proof would settle so small an instance,
        # leaves annealing as solve's last resort.
        monkeypatch.setattr(optimize, "COMPLETE_SEARCH_MAX_PERIMETER", 0)
        circles = [
            JobCircle.from_phases("a", 6, 2),
            JobCircle.from_phases("b", 3, 1),
            JobCircle.from_phases("c", 2, 2),
        ]
        best, rotations = min_overlap(circles)
        assert len(calls) == 1
        assert best == 1
        assert rotations == {"a": 7, "b": 0, "c": 2}
        assert UnifiedCircle(circles).overlap_ticks(rotations) == 1

    def test_score_range(self):
        compatible = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        assert compatibility_score(compatible) == 1.0
        clash = [
            JobCircle.from_phases("a", 0, 100),
            JobCircle.from_phases("b", 0, 100),
        ]
        assert compatibility_score(clash) < 0.6

    def test_pairwise_matrix(self):
        circles = [
            JobCircle.from_phases("a", 210, 90),
            JobCircle.from_phases("b", 210, 90),
            JobCircle.from_phases("c", 100, 110),  # too big for anyone
        ]
        matrix = pairwise_compatibility_matrix(circles)
        assert matrix.shape == (3, 3)
        assert matrix[0, 1] and matrix[1, 0]
        assert not matrix[0, 2] and not matrix[2, 0]
        assert np.all(np.diag(matrix))
