"""JobCircle and UnifiedCircle tests."""

import pytest

from repro.core.arcs import ArcSet
from repro.core.circle import JobCircle
from repro.core.unified import UnifiedCircle, unified_perimeter
from repro.errors import GeometryError
from repro.units import gbps, ms
from repro.workloads.job import JobSpec


class TestJobCircle:
    def test_from_phases(self):
        c = JobCircle.from_phases("j", 141, 114)
        assert c.perimeter == 255
        assert c.comm.intervals == ((141, 255),)
        assert c.comm_ticks == 114

    def test_comm_fraction(self):
        c = JobCircle.from_phases("j", 60, 40)
        assert c.comm_fraction == pytest.approx(0.4)

    def test_zero_compute_allowed(self):
        c = JobCircle.from_phases("j", 0, 50)
        assert c.comm.is_full

    def test_zero_comm_rejected(self):
        with pytest.raises(GeometryError):
            JobCircle.from_phases("j", 100, 0)

    def test_from_arcs_multiple(self):
        c = JobCircle.from_arcs("j", 100, [(10, 5), (50, 5)])
        assert c.comm_ticks == 10

    def test_from_arcs_empty_rejected(self):
        with pytest.raises(GeometryError):
            JobCircle.from_arcs("j", 100, [])

    def test_from_job_quantizes(self):
        spec = JobSpec("j", compute_time=ms(141), comm_bytes=ms(114) * gbps(42))
        c = JobCircle.from_job(spec, gbps(42), ticks_per_second=1000)
        assert c.perimeter == 255
        assert c.comm.intervals == ((141, 255),)

    def test_from_job_vanishing_comm_rejected(self):
        spec = JobSpec("j", compute_time=ms(100), comm_bytes=1.0)
        with pytest.raises(GeometryError):
            JobCircle.from_job(spec, gbps(42), ticks_per_second=10)

    def test_from_job_takes_no_demand(self):
        # A spec's circle has full demand; a fractional one is built with
        # ``from_phases(..., demand=)``.
        spec = JobSpec("j", compute_time=0.1, comm_bytes=1e6)
        circle = JobCircle.from_job(spec, 1e9, ticks_per_second=1000)
        assert circle.demand == 1.0
        with pytest.raises(TypeError):
            JobCircle.from_job(spec, 1e9, ticks_per_second=1000, demand=0.5)

    def test_rotate_returns_new_circle(self):
        c = JobCircle.from_phases("j", 60, 40)
        rotated = c.rotate(10)
        assert rotated.comm.intervals == ((0, 10), (70, 100))
        assert c.comm.intervals == ((60, 100),)

    def test_demand_validation(self):
        with pytest.raises(GeometryError):
            JobCircle.from_phases("j", 10, 10, demand=0.0)
        with pytest.raises(GeometryError):
            JobCircle.from_phases("j", 10, 10, demand=1.5)

    def test_empty_job_id_rejected(self):
        with pytest.raises(GeometryError):
            JobCircle.from_phases("", 10, 10)

    def test_tiled_comm(self):
        c = JobCircle.from_phases("j", 30, 10)
        tiled = c.tiled_comm(120)
        assert tiled.measure == 30
        assert tiled.perimeter == 120


class TestUnifiedCircle:
    def test_perimeter_is_lcm(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),  # period 40
            JobCircle.from_phases("b", 45, 15),  # period 60
        ]
        assert unified_perimeter(circles) == 120
        assert UnifiedCircle(circles).perimeter == 120

    def test_paper_figure5_example(self):
        # LCM(40, 60) = 120, with 3 and 2 phases per revolution.
        circles = [
            JobCircle.from_phases("J1", 30, 10),
            JobCircle.from_phases("J2", 50, 10),
        ]
        unified = UnifiedCircle(circles)
        tiled = unified.tiled()
        assert len(tiled["J1"].intervals) == 3
        assert len(tiled["J2"].intervals) == 2

    def test_duplicate_ids_rejected(self):
        c = JobCircle.from_phases("same", 10, 10)
        with pytest.raises(GeometryError):
            UnifiedCircle([c, c])

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            unified_perimeter([])

    def test_rotations_are_periodic_in_own_perimeter(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),
            JobCircle.from_phases("b", 45, 15),
        ]
        unified = UnifiedCircle(circles)
        assert unified.tiled({"a": 0}) == unified.tiled({"a": 40})
        assert unified.tiled({"b": 7}) == unified.tiled({"b": 67})

    def test_overlap_ticks_zero_when_disjoint(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        unified = UnifiedCircle(circles)
        assert unified.overlap_ticks({"b": 50}) == 0
        tiled = unified.tiled({"b": 50}).values()
        assert ArcSet.max_coverage(list(tiled)) == 1

    def test_overlap_ticks_full_collision(self):
        circles = [
            JobCircle.from_phases("a", 80, 20),
            JobCircle.from_phases("b", 80, 20),
        ]
        unified = UnifiedCircle(circles)
        assert unified.overlap_ticks() == 20
        assert ArcSet.max_coverage(list(unified.tiled().values())) == 2

    def test_total_comm_ticks_counts_tiles(self):
        circles = [
            JobCircle.from_phases("a", 30, 10),  # 3 tiles of 10 on 120
            JobCircle.from_phases("b", 45, 15),  # 2 tiles of 15
        ]
        assert UnifiedCircle(circles).total_comm_ticks() == 60

    def test_utilization_lower_bound(self):
        circles = [
            JobCircle.from_phases("a", 40, 60),
            JobCircle.from_phases("b", 40, 60),
        ]
        assert UnifiedCircle(circles).utilization_lower_bound() == (
            pytest.approx(1.2)
        )

    def test_job_ids_order(self):
        circles = [
            JobCircle.from_phases("z", 10, 10),
            JobCircle.from_phases("a", 10, 10),
        ]
        assert UnifiedCircle(circles).job_ids == ["z", "a"]
