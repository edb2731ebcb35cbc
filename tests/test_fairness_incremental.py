"""Tests for the fairness metrics."""

import pytest

from repro.analysis.fairness import (
    contention_fraction,
    contention_shares,
    efficiency,
    jain_index,
)
from repro.cc.fair import FairSharing
from repro.cc.weighted import StaticWeighted
from repro.errors import SimulationError
from repro.experiments.common import BOTTLENECK, run_jobs
from repro.units import gbps, ms
from repro.workloads.job import JobSpec

CAP = gbps(42)


def _pair(comm_ms=110):
    return [
        JobSpec("J1", ms(100), ms(comm_ms) * CAP),
        JobSpec("J2", ms(100), ms(comm_ms) * CAP),
    ]


class TestJainIndex:
    def test_equal_rates_index_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_value(self):
        assert jain_index([3.0]) == pytest.approx(1.0)

    def test_starved_flow_lowers_index(self):
        assert jain_index([10.0, 0.0]) == pytest.approx(0.5)

    def test_two_to_one_split(self):
        # JFI of (2, 1) = 9 / (2 * 5) = 0.9.
        assert jain_index([2.0, 1.0]) == pytest.approx(0.9)

    def test_zero_rates_index_one(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(SimulationError):
            jain_index([])
        with pytest.raises(SimulationError):
            jain_index([-1.0, 1.0])


class TestContentionMetrics:
    def test_fair_sharing_is_fair_during_contention(self):
        result = run_jobs(_pair(), FairSharing(), n_iterations=10)
        shares = contention_shares(result, ["J1", "J2"])
        assert jain_index(list(shares.values())) == pytest.approx(1.0)
        assert shares["J1"] == pytest.approx(CAP / 2, rel=1e-6)

    def test_weighted_sharing_is_unfair_during_contention(self):
        result = run_jobs(
            _pair(),
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            n_iterations=10,
        )
        shares = contention_shares(result, ["J1", "J2"])
        assert shares["J1"] > shares["J2"]
        assert jain_index(list(shares.values())) < 0.99

    def test_contention_fraction_drops_under_unfairness(self):
        fair = run_jobs(_pair(), FairSharing(), n_iterations=20)
        unfair = run_jobs(
            _pair(),
            StaticWeighted.from_aggressiveness_order(["J1", "J2"]),
            n_iterations=20,
        )
        assert contention_fraction(unfair, ["J1", "J2"]) < (
            contention_fraction(fair, ["J1", "J2"])
        )

    def test_interleaved_jobs_have_no_contention(self):
        specs = [
            JobSpec("J1", ms(210), ms(90) * CAP),
            JobSpec("J2", ms(210), ms(90) * CAP),
        ]
        result = run_jobs(
            specs, FairSharing(), n_iterations=5,
            start_offsets={"J2": ms(105)},  # phases never meet
        )
        assert contention_fraction(result, ["J1", "J2"]) == 0.0
        shares = contention_shares(result, ["J1", "J2"])
        assert all(v == 0.0 for v in shares.values())

    def test_efficiency_reflects_busy_bottleneck(self):
        result = run_jobs(_pair(), FairSharing(), n_iterations=10)
        value = efficiency(result, BOTTLENECK, CAP)
        # Comm is 220 of every 320 ms under the locked fair schedule.
        assert value == pytest.approx(220 / 320, rel=0.05)

    def test_efficiency_validation(self):
        result = run_jobs(_pair(), FairSharing(), n_iterations=2)
        with pytest.raises(SimulationError):
            efficiency(result, BOTTLENECK, 0.0)
        with pytest.raises(SimulationError):
            efficiency(result, BOTTLENECK, CAP, start=5.0, end=1.0)
